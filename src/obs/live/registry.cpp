#include "obs/live/registry.h"

#include <chrono>

namespace themis::obs::live {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTimer::ScopedTimer(Histogram* h) : h_(h) {
  if (h_ != nullptr) start_ns_ = monotonic_ns();
}

ScopedTimer::~ScopedTimer() {
  if (h_ != nullptr) h_->record_ns(monotonic_ns() - start_ns_);
}

double Histogram::Snapshot::quantile_ns(double q) const {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank target, then linear interpolation inside the winning bucket
  // between its lower and upper bound (overflow bucket: extrapolate 2x).
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(Histogram::bound_ns(i - 1));
    const double upper = i + 1 == kBuckets
                             ? 2.0 * static_cast<double>(
                                         Histogram::bound_ns(i - 1))
                             : static_cast<double>(Histogram::bound_ns(i));
    const double within =
        counts[i] == 0
            ? 0.0
            : (target - static_cast<double>(before)) /
                  static_cast<double>(counts[i]);
    return lower + (upper - lower) * within;
  }
  return static_cast<double>(Histogram::bound_ns(kBuckets - 1));
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counter_by_name_.find(std::string(name));
  if (it != counter_by_name_.end()) return *it->second;
  Named<Counter>& slot = counters_.emplace_back();  // atomics are immovable
  slot.name = std::string(name);
  slot.help = std::string(help);
  Counter& c = slot.metric;
  counter_by_name_.emplace(std::string(name), &c);
  return c;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauge_by_name_.find(std::string(name));
  if (it != gauge_by_name_.end()) return *it->second;
  Named<Gauge>& slot = gauges_.emplace_back();
  slot.name = std::string(name);
  slot.help = std::string(help);
  Gauge& g = slot.metric;
  gauge_by_name_.emplace(std::string(name), &g);
  return g;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histogram_by_name_.find(std::string(name));
  if (it != histogram_by_name_.end()) return *it->second;
  Named<Histogram>& slot = histograms_.emplace_back();
  slot.name = std::string(name);
  slot.help = std::string(help);
  Histogram& h = slot.metric;
  histogram_by_name_.emplace(std::string(name), &h);
  return h;
}

void Registry::gauge_fn(std::string_view name, std::string_view help,
                        std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FnGauge& g : fn_gauges_) {
    if (g.name == name) return;  // already registered
  }
  fn_gauges_.push_back({std::string(name), std::string(help), std::move(fn)});
}

std::vector<Registry::CounterSample> Registry::counter_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSample> out;
  out.reserve(counters_.size());
  for (const auto& named : counters_) {
    out.push_back({named.name, named.help, named.metric.get()});
  }
  return out;
}

std::vector<Registry::GaugeSample> Registry::gauge_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GaugeSample> out;
  out.reserve(gauges_.size() + fn_gauges_.size());
  for (const auto& named : gauges_) {
    out.push_back(
        {named.name, named.help, static_cast<double>(named.metric.get())});
  }
  for (const FnGauge& g : fn_gauges_) {
    out.push_back({g.name, g.help, g.fn()});
  }
  return out;
}

std::vector<Registry::HistogramSample> Registry::histogram_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSample> out;
  out.reserve(histograms_.size());
  for (const auto& named : histograms_) {
    out.push_back({named.name, named.help, named.metric.snapshot()});
  }
  return out;
}

std::string_view family_of(std::string_view sample_name) {
  const std::size_t brace = sample_name.find('{');
  return brace == std::string_view::npos ? sample_name
                                         : sample_name.substr(0, brace);
}

}  // namespace themis::obs::live
