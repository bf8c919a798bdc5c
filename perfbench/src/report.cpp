// Shared helpers: workload table, statistics, span recorder, outcome
// accounting and provenance.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "harness.h"

namespace perfbench {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    Workload txpipe;
    txpipe.name = "txpipe_closed";
    txpipe.closed_loop = true;
    txpipe.window = 256;
    txpipe.batch = 64;
    txpipe.read_rate = 100.0;
    txpipe.hot_set = 16;
    txpipe.difficulty = 8000.0;

    Workload mixed;
    mixed.name = "mixed_open";
    mixed.write_rate = 200.0;
    mixed.batch = 16;
    mixed.read_rate = 40.0;
    mixed.prebuilt_accounts = std::size_t{1} << 17;
    mixed.difficulty = 20000.0;
    return std::vector<Workload>{txpipe, mixed};
  }();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

themis::obs::live::Histogram::Snapshot hist_delta(
    const themis::obs::live::Histogram::Snapshot& end,
    const themis::obs::live::Histogram::Snapshot& begin) {
  themis::obs::live::Histogram::Snapshot out;
  for (std::size_t i = 0; i < themis::obs::live::Histogram::kBuckets; ++i) {
    out.counts[i] = end.counts[i] - begin.counts[i];
    out.total += out.counts[i];
  }
  out.sum_ns = end.sum_ns - begin.sum_ns;
  return out;
}

void hist_add(themis::obs::live::Histogram::Snapshot& into,
              const themis::obs::live::Histogram::Snapshot& more) {
  for (std::size_t i = 0; i < themis::obs::live::Histogram::kBuckets; ++i) {
    into.counts[i] += more.counts[i];
  }
  into.total += more.total;
  into.sum_ns += more.sum_ns;
}

// --- Tracer ---------------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    const auto it = child_ns.find(s.id);
    const double children = it == child_ns.end() ? 0.0 : it->second;
    Totals& t = out[s.name];
    t.self_us += (static_cast<double>(s.end_ns - s.start_ns) - children) / 1e3;
    ++t.count;
  }
  return out;
}

bool Tracer::write(const fs::path& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string_view name,
                       std::uint64_t parent, std::uint64_t trace)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = std::string(name);
  span_.id = tracer_.next_id();
  span_.parent = parent;
  span_.trace = trace;
  span_.start_ns = tracer_.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end_ns = tracer_.now_ns();
  tracer_.record(std::move(span_));
}

// --- Outcome --------------------------------------------------------------------

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(what);
}

bool Outcome::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty() && failed_.load() == 0;
}

std::vector<std::string> Outcome::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

// --- provenance -----------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string provenance_json(const Options& opt, int setup_reps, int sim_reps) {
  std::ostringstream out;
  const char* source = std::getenv("PERFBENCH_SOURCE");
  out << "{\"workload\":\"" << json_escape(opt.workload) << "\""
      << ",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"setup_reps\":" << setup_reps << ",\"sim_reps\":" << sim_reps
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":\"" << json_escape(cpu_model()) << "\""
      << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER) << "\""
      << ",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE) << "\""
      << ",\"source\":\"" << json_escape(source != nullptr ? source : "unknown")
      << "\"}";
  return out.str();
}

}  // namespace perfbench
