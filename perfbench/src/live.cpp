// Live network, generator threads and restart cycles.
//
// Generator threads (at most four, one HTTP connection each) run a list of
// duties: a closed- or open-loop writer, an open-loop proof reader, a
// finality observer and a once-a-second /metrics.prom scraper.  Open-loop
// duties time every request from when it was due and record how late the
// thread ran.  Everything the generator learns is kept per thread and merged
// after the threads are joined.
#include "live.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/bytes.h"
#include "core/geost.h"
#include "crypto/merkle.h"
#include "rpc/http_client.h"
#include "rpc/json.h"
#include "state/authstate/merkle_state.h"

namespace perfbench {

using namespace themis;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Confirmation polls ask for the oldest pending ids; every id costs the node
// one lookup under its lock, so polls stay small and spaced.
constexpr auto kPollInterval = std::chrono::milliseconds(10);
constexpr auto kObserveInterval = std::chrono::milliseconds(10);
constexpr std::size_t kMaxPollIds = 128;
constexpr std::size_t kSampleBodies = 32;
/// Timer slack of the generator threads: open-loop duties sleep until their
/// due time, and the default 50 us slack would show as lateness.
constexpr unsigned long kTimerSlackNs = 1000;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool wait_until(const std::function<bool()>& pred, double timeout_s,
                std::chrono::microseconds step = std::chrono::microseconds(500)) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(step);
  }
  return true;
}

// --- node readings ---------------------------------------------------------------

Tally read_node(p2p::P2pNode& node) {
  Tally t;
  const auto cs = node.chain_stats();
  const auto ts = node.transport_stats();
  t.counters = {
      {"txs_submitted", static_cast<double>(cs.txs_submitted)},
      {"txs_returned", static_cast<double>(cs.txs_returned)},
      {"txs_purged", static_cast<double>(cs.txs_purged)},
      {"reorgs", static_cast<double>(cs.reorgs)},
      {"blocks_rejected", static_cast<double>(cs.blocks_rejected)},
      {"blocks_produced", static_cast<double>(cs.blocks_produced)},
      {"votes_accepted", static_cast<double>(cs.ckpt_votes_accepted)},
      {"votes_rejected", static_cast<double>(cs.ckpt_votes_rejected)},
      {"certs", static_cast<double>(cs.ckpt_certs_formed)},
      {"invs_received",
       static_cast<double>(cs.invs_received + cs.tx_invs_received)},
      {"invs_redundant",
       static_cast<double>(cs.invs_redundant + cs.tx_invs_redundant)},
      {"bytes_out", static_cast<double>(ts.bytes_out)},
  };
  for (const auto& h : node.live_registry().histogram_samples()) {
    t.hists[h.name] = h.snap;
  }
  return t;
}

void tally_add(Tally& into, const Tally& end, const Tally& begin) {
  for (const auto& [name, value] : end.counters) {
    const auto it = begin.counters.find(name);
    into.counters[name] += value - (it == begin.counters.end() ? 0.0 : it->second);
  }
  for (const auto& [name, snap] : end.hists) {
    const auto it = begin.hists.find(name);
    hist_add(into.hists[name],
             it == begin.hists.end() ? snap : hist_delta(snap, it->second));
  }
}

/// The measured window.  Its end moves earlier if a closed-loop writer runs
/// out of pre-signed inputs, so a faster program is measured over a shorter
/// window instead of running dry inside it.
class Window {
 public:
  Clock::time_point start, begin;  ///< generator start; window start
  Clock::duration drain{};         ///< how long writers wait for confirmations

  Clock::time_point end() const {
    return Clock::time_point(Clock::duration(end_.load()));
  }
  Clock::time_point drain_deadline() const { return end() + drain; }
  bool in(Clock::time_point t) const { return t >= begin && t < end(); }
  void set_end(Clock::time_point t) { end_.store(t.time_since_epoch().count()); }
  /// End the window at `t` if it would end later.
  void cut(Clock::time_point t) {
    Clock::rep cur = end_.load();
    const Clock::rep want = t.time_since_epoch().count();
    while (want < cur && !end_.compare_exchange_weak(cur, want)) {
    }
  }

 private:
  std::atomic<Clock::rep> end_{0};
};

// --- HTTP connection ----------------------------------------------------------------

class Conn {
 public:
  Conn(std::uint16_t port, Tracer& tracer, const Window& window)
      : http_("127.0.0.1", port, 10000), tracer_(tracer), window_(window) {}

  /// POST a JSON-RPC body; nullopt on transport, HTTP, parse or RPC error.
  std::optional<rpc::Json> call(std::string_view span, const std::string& body,
                                std::uint64_t trace, std::string* raw_reply) {
    const ScopedSpan s(tracer_, span, 0, trace);
    const bool counted = window_.in(Clock::now());
    const auto reply = http_.post("/", body);
    if (counted) {
      ++requests;
      bytes += static_cast<double>(body.size());
      if (reply.has_value()) bytes += static_cast<double>(reply->body.size());
    }
    if (!reply.has_value() || reply->status != 200) return std::nullopt;
    if (raw_reply != nullptr) *raw_reply = reply->body;
    try {
      rpc::Json json = rpc::Json::parse(reply->body);
      if (!json.has("result")) return std::nullopt;
      return json;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  std::optional<std::string> get(std::string_view span,
                                 const std::string& target) {
    const ScopedSpan s(tracer_, span);
    const bool counted = window_.in(Clock::now());
    const auto reply = http_.get(target);
    if (counted) {
      ++requests;
      if (reply.has_value()) bytes += static_cast<double>(reply->body.size());
    }
    if (!reply.has_value() || reply->status != 200) return std::nullopt;
    return reply->body;
  }

  double bytes = 0.0;
  std::uint64_t requests = 0;

 private:
  rpc::HttpClient http_;
  Tracer& tracer_;
  const Window& window_;
};

std::string rpc_body(std::string_view method, const std::string& params) {
  std::string body = "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"";
  body += method;
  body += "\",\"params\":";
  body += params;
  body += "}";
  return body;
}

// --- run-wide shared state ------------------------------------------------------------

/// One transaction the generator attempted.
struct TxSample {
  const TxInput* tx = nullptr;
  Clock::time_point start;  ///< submit time (closed) or due time (open)
  std::optional<Clock::time_point> confirmed;
  bool rejected = false;
};

/// Per-thread results, merged after join.
struct ThreadResult {
  std::vector<TxSample> txs;
  std::vector<double> submit_rtt_ms, proof_rtt_ms, late_ms, read_ms;
  std::vector<std::string> sample_requests, sample_replies;
  std::uint64_t sample_txs = 0;
  double stream_used = 0.0;  ///< closed-loop writer: share of its inputs sent
  bool window_cut = false;   ///< its inputs ran out inside the window
  double bytes = 0.0;
  std::uint64_t requests = 0;
  double cpu_begin = -1.0, cpu_end = -1.0;
};

struct Shared {
  Window* window = nullptr;
  Tracer* tracer = nullptr;
  Outcome* outcome = nullptr;
  const Options* opt = nullptr;
  std::atomic<int> writers_active{0};
  std::atomic<bool> stop_observer{false};
  std::atomic<bool> injected{false};  ///< the one-shot fault was injected
  // Finality observer output (one observer per run).
  std::mutex mu;
  std::unordered_map<std::string, std::uint64_t> tx_height;
  std::vector<std::pair<Clock::time_point, std::uint64_t>> finalized;
  std::atomic<std::uint64_t> fetched_height{0};
};

class Duty {
 public:
  virtual ~Duty() = default;
  /// Next time this duty wants to run; nullopt = finished.
  virtual std::optional<Clock::time_point> due() = 0;
  virtual void run(Clock::time_point now) = 0;
};

/// Confirmation bookkeeping shared by the two writer kinds.
class WriterBase : public Duty {
 protected:
  WriterBase(Conn& conn, Shared& sh, ThreadResult& out)
      : conn_(conn), sh_(sh), out_(out) {
    ++sh_.writers_active;
  }
  ~WriterBase() override { finish(); }

  void finish() {
    if (finished_) return;
    finished_ = true;
    sh_.outcome->failed(pending_.size());  // never confirmed by the deadline
    pending_.clear();
    --sh_.writers_active;
  }

  /// Submit txs [first, first+n) of `stream`; returns how many were consumed
  /// (accepted, duplicate or rejected).  `start` is the latency origin.
  std::size_t submit(const std::vector<TxInput>& stream, std::size_t first,
                     std::size_t n, Clock::time_point start,
                     std::size_t skip_index) {
    std::string params = "{\"txs\":[";
    std::vector<std::size_t> sent;
    for (std::size_t i = first; i < first + n; ++i) {
      if (i == skip_index) continue;
      if (!sent.empty()) params += ',';
      params += stream[i].spec;
      sent.push_back(i);
    }
    params += "]}";
    const std::uint64_t trace = sh_.tracer->enabled() ? sh_.tracer->next_id() : 0;
    std::size_t consumed = 0;
    // The withheld transaction counts as attempted and never confirms.
    if (skip_index >= first && skip_index < first + n) {
      sh_.outcome->attempted();
      add_pending(stream[skip_index], start);
      ++consumed;
    }
    if (sent.empty()) return consumed;
    const std::string body = rpc_body("submit_txs", params);
    const auto t0 = Clock::now();
    std::string raw;
    const auto reply = conn_.call("gen.submit_txs", body, trace, &raw);
    const auto t1 = Clock::now();
    if (sh_.window->in(t0)) out_.submit_rtt_ms.push_back(ms_between(t0, t1));
    if (!reply.has_value()) {
      sh_.outcome->attempted(sent.size());
      sh_.outcome->failed(sent.size());
      for (const std::size_t i : sent) reject(stream[i], start);
      return consumed + sent.size();
    }
    if (out_.sample_requests.size() < kSampleBodies && sh_.window->in(t0)) {
      out_.sample_requests.push_back(body);
      out_.sample_replies.push_back(raw);
      out_.sample_txs += sent.size();
    }
    const rpc::Json::Array& results = (*reply)["result"]["results"].as_array();
    for (std::size_t k = 0; k < sent.size() && k < results.size(); ++k) {
      const std::string& status = results[k]["status"].as_string();
      if (status == "nonce_gap") break;  // retried once mining catches up
      sh_.outcome->attempted();
      ++consumed;
      if (status == "accepted" || status == "duplicate") {
        add_pending(stream[sent[k]], start);
      } else {
        sh_.outcome->failed();
        reject(stream[sent[k]], start);
      }
    }
    return consumed;
  }

  /// Poll the oldest pending ids and record the confirmed ones.
  void poll(Clock::time_point now) {
    last_poll_ = now;
    if (pending_.empty()) return;
    const std::size_t n = std::min(kMaxPollIds, pending_.size());
    std::string params = "{\"ids\":[";
    for (std::size_t k = 0; k < n; ++k) {
      if (k > 0) params += ',';
      params += '"';
      params += out_.txs[pending_[k]].tx->id_hex;
      params += '"';
    }
    params += "]}";
    const auto reply = conn_.call("gen.get_txs", rpc_body("get_txs", params),
                                  0, nullptr);
    if (!reply.has_value()) return;
    const auto seen = Clock::now();
    const rpc::Json::Array& states = (*reply)["result"]["states"].as_array();
    if (states.size() != n) return;
    std::deque<std::size_t> keep;
    for (std::size_t k = 0; k < pending_.size(); ++k) {
      if (k < n && states[k].as_string() == "confirmed") {
        out_.txs[pending_[k]].confirmed = seen;
      } else {
        keep.push_back(pending_[k]);
      }
    }
    pending_.swap(keep);
  }

  void add_pending(const TxInput& tx, Clock::time_point start) {
    out_.txs.push_back(TxSample{&tx, start, std::nullopt, false});
    pending_.push_back(out_.txs.size() - 1);
  }
  void reject(const TxInput& tx, Clock::time_point start) {
    out_.txs.push_back(TxSample{&tx, start, std::nullopt, true});
  }

  /// Past the drain deadline everything still pending has failed.
  bool drained(Clock::time_point now) {
    if (now < sh_.window->end()) return false;
    if (pending_.empty() || now >= sh_.window->drain_deadline()) {
      finish();
      return true;
    }
    return false;
  }

  Conn& conn_;
  Shared& sh_;
  ThreadResult& out_;
  std::deque<std::size_t> pending_;
  Clock::time_point last_poll_{};
  bool finished_ = false;
};

/// Closed loop: keeps `window` transfers of one sender outstanding.
class ClosedWriter final : public WriterBase {
 public:
  ClosedWriter(Conn& conn, Shared& sh, ThreadResult& out,
               const std::vector<TxInput>& stream, std::size_t window,
               std::size_t batch, std::size_t skip_index)
      : WriterBase(conn, sh, out),
        stream_(stream),
        window_(window),
        batch_(batch),
        skip_(skip_index) {}
  ~ClosedWriter() override {
    out_.stream_used = static_cast<double>(next_) / static_cast<double>(stream_.size());
  }

  std::optional<Clock::time_point> due() override {
    const auto now = Clock::now();
    if (finished_ || drained(now)) return std::nullopt;
    if (can_submit(now)) return now;
    return last_poll_ + kPollInterval;
  }

  void run(Clock::time_point now) override {
    if (can_submit(now)) {
      const std::size_t n = std::min(
          {batch_, window_ - pending_.size(), stream_.size() - next_});
      next_ += submit(stream_, next_, n, Clock::now(), skip_);
      return;
    }
    if (next_ >= stream_.size() && now < sh_.window->end()) {
      out_.window_cut = true;
      sh_.window->cut(now);
    }
    poll(now);
  }

 private:
  bool can_submit(Clock::time_point now) const {
    return now < sh_.window->end() && next_ < stream_.size() &&
           pending_.size() + std::min(batch_, stream_.size() - next_) <= window_;
  }
  const std::vector<TxInput>& stream_;
  std::size_t window_, batch_, skip_;
  std::size_t next_ = 0;
};

/// Open loop: one batch every batch/rate seconds, senders in turn.
class OpenWriter final : public WriterBase {
 public:
  OpenWriter(Conn& conn, Shared& sh, ThreadResult& out, const Inputs& in,
             double rate, std::size_t batch, std::size_t skip_index)
      : WriterBase(conn, sh, out),
        in_(in),
        batch_(batch),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(static_cast<double>(batch) / rate))),
        skip_(skip_index),
        next_(in.streams.size(), 0) {
    next_due_ = sh.window->start;
  }

  std::optional<Clock::time_point> due() override {
    const auto now = Clock::now();
    if (finished_ || drained(now)) return std::nullopt;
    std::optional<Clock::time_point> d;
    if (next_due_ < sh_.window->end()) d = next_due_;
    if (!pending_.empty()) {
      const auto p = last_poll_ + kPollInterval;
      d = d.has_value() ? std::min(*d, p) : p;
    }
    return d.has_value() ? d : now + kPollInterval;
  }

  void run(Clock::time_point now) override {
    if (next_due_ < sh_.window->end() && now >= next_due_) {
      const Clock::time_point due_at = next_due_;
      next_due_ += period_;
      if (sh_.window->in(due_at)) out_.late_ms.push_back(ms_between(due_at, now));
      const std::size_t s = turn_++ % in_.streams.size();
      const auto& stream = in_.streams[s];
      std::size_t n = std::min(batch_, stream.size() - next_[s]);
      if (n == 0) {
        sh_.outcome->check(false, "open-loop writer ran out of pre-signed inputs");
        next_due_ = sh_.window->end();
        return;
      }
      // A nonce_gap verdict leaves the tail for the sender's next turn.
      next_[s] += submit(stream, next_[s], n, due_at, s == 0 ? skip_ : SIZE_MAX);
      return;
    }
    if (now >= last_poll_ + kPollInterval) poll(now);
  }

 private:
  const Inputs& in_;
  std::size_t batch_;
  Clock::duration period_;
  std::size_t skip_;
  std::vector<std::size_t> next_;
  std::size_t turn_ = 0;
  Clock::time_point next_due_;
};

/// get_balance {prove:true} at `rate` per second, open loop: every read is
/// timed from when it was due.  Verifies every proof it receives.
class Reader final : public Duty {
 public:
  Reader(Conn& conn, Shared& sh, ThreadResult& out, const Inputs& in,
         double rate)
      : conn_(conn),
        sh_(sh),
        out_(out),
        accounts_(in.read_accounts),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate))) {
    next_due_ = sh.window->start;
  }

  std::optional<Clock::time_point> due() override {
    if (next_due_ >= sh_.window->end()) return std::nullopt;
    return next_due_;
  }

  void run(Clock::time_point now) override {
    const Clock::time_point due_at = next_due_;
    next_due_ += period_;
    const bool counted = sh_.window->in(due_at);
    if (counted) out_.late_ms.push_back(ms_between(due_at, now));
    const ledger::NodeId account = accounts_[next_++ % accounts_.size()];
    std::string params =
        "{\"account\":" + std::to_string(account) + ",\"prove\":true}";
    if (sh_.opt->inject == "read_error" && !sh_.injected.exchange(true)) {
      params = "{\"account\":\"x\",\"prove\":true}";
    }
    sh_.outcome->attempted();
    const auto t0 = Clock::now();
    const auto reply =
        conn_.call("gen.get_balance", rpc_body("get_balance", params), 0, nullptr);
    const auto t1 = Clock::now();
    const bool ok = reply.has_value() && verify(account, (*reply)["result"]);
    const auto t2 = Clock::now();
    if (!ok) sh_.outcome->failed();
    if (!counted) return;
    out_.proof_rtt_ms.push_back(ms_between(t0, t1));
    out_.read_ms.push_back(ok ? ms_between(due_at, t2) : kInf);
  }

 private:
  bool verify(ledger::NodeId account, const rpc::Json& r) {
    try {
      const rpc::Json& p = r["proof"];
      if (!p["available"].as_bool()) return false;
      state::authstate::AccountProof proof;
      proof.page = static_cast<std::uint32_t>(p["page"].as_u64());
      proof.page_count = static_cast<std::uint32_t>(p["page_count"].as_u64());
      proof.page_bytes = from_hex(p["page_bytes"].as_string());
      for (const rpc::Json& step : p["steps"].as_array()) {
        proof.steps.push_back(crypto::MerkleStep{
            hash_from_hex(step["sibling"].as_string()), step["left"].as_bool()});
      }
      if (sh_.opt->inject == "tamper_proof" && !proof.page_bytes.empty() &&
          !sh_.injected.exchange(true)) {
        proof.page_bytes[proof.page_bytes.size() / 2] ^= 0x01;
      }
      const auto balance = UInt128::from_decimal(r["balance"].as_string());
      if (!balance.has_value()) return false;
      state::Account claimed;
      claimed.balance = *balance;
      claimed.next_nonce = r["next_nonce"].as_u64();
      const bool ok = state::authstate::verify_account_proof(
          hash_from_hex(r["state_root"].as_string()), account, claimed, proof);
      if (!ok) sh_.outcome->check(false, "a returned balance proof failed to verify");
      return ok;
    } catch (const std::exception&) {
      sh_.outcome->check(false, "a balance proof reply was malformed");
      return false;
    }
  }

  Conn& conn_;
  Shared& sh_;
  ThreadResult& out_;
  const std::vector<ledger::NodeId>& accounts_;
  Clock::duration period_;
  std::size_t next_ = 0;
  Clock::time_point next_due_;
};

/// Polls status and fetches every new block: the height of each
/// transaction and the time finality reached each height.
class Observer final : public Duty {
 public:
  Observer(Conn& conn, Shared& sh) : conn_(conn), sh_(sh) {}

  std::optional<Clock::time_point> due() override {
    if (sh_.stop_observer.load()) return std::nullopt;
    return last_ + kObserveInterval;
  }

  void run(Clock::time_point now) override {
    last_ = now;
    const auto status = conn_.call("gen.status", rpc_body("status", "{}"), 0,
                                   nullptr);
    if (!status.has_value()) return;
    const auto seen = Clock::now();
    const std::uint64_t height = (*status)["result"]["height"].as_u64();
    const std::uint64_t fin = (*status)["result"]["finalized_height"].as_u64();
    {
      std::lock_guard<std::mutex> lock(sh_.mu);
      if (sh_.finalized.empty() || fin > sh_.finalized.back().second) {
        sh_.finalized.emplace_back(seen, fin);
      }
    }
    for (std::uint64_t h = sh_.fetched_height.load() + 1; h <= height; ++h) {
      if (h <= base_) continue;
      const auto block = conn_.call(
          "gen.get_block",
          rpc_body("get_block", "{\"height\":" + std::to_string(h) + "}"), 0,
          nullptr);
      if (!block.has_value()) return;
      std::lock_guard<std::mutex> lock(sh_.mu);
      for (const rpc::Json& id : (*block)["result"]["txs"].as_array()) {
        sh_.tx_height[id.as_string()] = h;
      }
      sh_.fetched_height.store(h);
    }
  }

  void set_base(std::uint64_t base) {
    base_ = base;
    sh_.fetched_height.store(base);
  }

 private:
  Conn& conn_;
  Shared& sh_;
  Clock::time_point last_{};
  std::uint64_t base_ = 0;
};

/// One /metrics.prom scrape per second of the window.
class Scraper final : public Duty {
 public:
  Scraper(Conn& conn, Shared& sh) : conn_(conn), sh_(sh) {
    next_ = sh.window->start;
  }
  std::optional<Clock::time_point> due() override {
    if (next_ >= sh_.window->end()) return std::nullopt;
    return next_;
  }
  void run(Clock::time_point) override {
    next_ += std::chrono::seconds(1);
    sh_.outcome->attempted();
    const auto body = conn_.get("gen.scrape", "/metrics.prom");
    if (!body.has_value() || body->find("themis_") == std::string::npos) {
      sh_.outcome->failed();
    }
  }

 private:
  Conn& conn_;
  Shared& sh_;
  Clock::time_point next_;
};

/// A generator thread: one connection, a list of duties.
struct GenThread {
  std::size_t node = 0;
  std::vector<std::function<std::unique_ptr<Duty>(Conn&, ThreadResult&)>>
      duties;
};

void run_thread(const GenThread& spec, std::uint16_t port, Shared& sh,
                ThreadResult& out) {
  prctl(PR_SET_TIMERSLACK, kTimerSlackNs);
  Conn conn(port, *sh.tracer, *sh.window);
  std::vector<std::unique_ptr<Duty>> duties;
  for (const auto& make : spec.duties) duties.push_back(make(conn, out));
  for (;;) {
    Duty* next = nullptr;
    Clock::time_point when = Clock::time_point::max();
    for (auto& d : duties) {
      const auto due = d->due();
      if (due.has_value() && *due < when) {
        when = *due;
        next = d.get();
      }
    }
    if (next == nullptr) break;
    const auto now = Clock::now();
    if (out.cpu_begin < 0 && now >= sh.window->begin) out.cpu_begin = thread_cpu_s();
    if (out.cpu_end < 0 && now >= sh.window->end()) out.cpu_end = thread_cpu_s();
    if (when > now) {
      std::this_thread::sleep_until(std::min(when, now + std::chrono::milliseconds(20)));
      continue;
    }
    next->run(now);
  }
  duties.clear();  // writers settle their pending transactions here
  if (out.cpu_end < 0) out.cpu_end = thread_cpu_s();
  if (out.cpu_begin < 0) out.cpu_begin = out.cpu_end;
  out.bytes = conn.bytes;
  out.requests = conn.requests;
}

struct Usage {
  double cpu_s = 0.0, invol = 0.0;
};
Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.invol = static_cast<double>(ru.ru_nivcsw);
  return u;
}

}  // namespace

// --- Net --------------------------------------------------------------------------

Net::Net(const Workload& w, const Options& opt, const Inputs& in)
    : w_(w), opt_(opt), in_(in) {}

Net::~Net() { stop_all(); }

p2p::P2pNodeConfig Net::config(std::size_t i) const {
  p2p::P2pNodeConfig c;
  c.id = static_cast<ledger::NodeId>(i);
  c.n_nodes = kNodes;
  c.listen_port = 0;
  c.difficulty = w_.difficulty;
  c.mine = i == kMinerNode;
  c.rng_seed = opt_.seed * 16 + i + 1;
  c.genesis_fund = kGenesisFund;
  c.datadir = opt_.work / ("node" + std::to_string(i));
  c.snapshot_interval = kSnapshotInterval;
  for (std::size_t j = 0; j < i; ++j) {
    if (slots_[j].node != nullptr) {
      c.peers.push_back("127.0.0.1:" +
                        std::to_string(slots_[j].node->listen_port()));
    }
  }
  return c;
}

bool Net::start_rpc(std::size_t i) {
  Slot& s = slots_[i];
  s.gateway = std::make_unique<rpc::Gateway>(*s.node);
  rpc::Gateway* gw = s.gateway.get();
  s.server = std::make_unique<rpc::HttpServer>(
      rpc::HttpServerConfig{},
      [gw](const rpc::HttpRequest& request) { return gw->handle(request); });
  if (!s.server->start()) return false;
  s.rpc_port = s.server->port();
  return true;
}

bool Net::start_node(std::size_t i, Clock::time_point* started_at) {
  Slot& s = slots_[i];
  s.node = std::make_unique<p2p::P2pNode>(
      config(i), std::make_shared<core::GeostRule>(kNodes));
  if (started_at != nullptr) *started_at = Clock::now();
  if (!s.node->start()) return false;
  return true;
}

void Net::stop_node(std::size_t i) {
  Slot& s = slots_[i];
  if (s.server != nullptr) s.server->stop();
  if (s.node != nullptr) s.node->stop();
  s.server.reset();
  s.gateway.reset();
  s.node.reset();
  s.rpc_port = 0;
}

void Net::stop_all() {
  for (std::size_t i = kNodes; i-- > 0;) stop_node(i);
}

bool Net::boot() {
  for (std::size_t i = 0; i < kNodes; ++i) {
    const fs::path dir = opt_.work / ("node" + std::to_string(i));
    fs::remove_all(dir);
    if (!in_.datadir_template.empty()) {
      fs::copy(in_.datadir_template, dir, fs::copy_options::recursive);
    }
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!start_node(i) || !start_rpc(i)) return false;
  }
  return wait_until(
      [this] {
        for (std::size_t i = 0; i < kNodes; ++i) {
          if (!slots_[i].node->ready()) return false;
        }
        return slots_[1].node->head() == slots_[0].node->head() &&
               slots_[2].node->head() == slots_[0].node->head() &&
               slots_[0].node->ready_peer_count() == kNodes - 1;
      },
      30.0);
}

// --- restart cycles -------------------------------------------------------------------

namespace {

/// Pause mining and wait until every running node holds one head that has
/// not moved for `still`.
bool pause_and_settle(Net& net, std::chrono::milliseconds still) {
  net.node(kMinerNode).set_mining(false);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  ledger::BlockHash head = net.node(kMinerNode).head();
  auto since = Clock::now();
  for (auto now = since; now < deadline; now = Clock::now()) {
    const ledger::BlockHash h = net.node(kMinerNode).head();
    if (h != head) {
      head = h;
      since = now;
    }
    bool same = true;
    for (std::size_t i = 0; i < kNodes; ++i) {
      same = same && (!net.up(i) || net.node(i).head() == head);
    }
    if (same && now - since >= still) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Stop the cycled node, let the miner advance, restart it and wait until it
/// reaches the miner's head; checks the restarted node's root against its
/// peer's.  Mining pauses once the miner has advanced, so every restart
/// syncs the same blocks instead of chasing a moving head.
void restart_cycle(Net& net, LiveReport& r, Outcome& outcome) {
  p2p::P2pNode& miner = net.node(kMinerNode);
  // Stop right after the node writes a snapshot, so every restart replays
  // the same short suffix and syncs the same kCatchupBlocks.
  p2p::P2pNode& old = net.node(kCycledNode);
  const std::uint64_t written = old.chain_stats().snapshots_written;
  outcome.check(
      wait_until([&] { return old.chain_stats().snapshots_written > written; },
                 30.0, std::chrono::microseconds(1000)),
      "restart cycle: the cycled node wrote no snapshot");
  const std::uint64_t h0 = miner.head_height();
  const double served0 = miner.chain_stats().sync_blocks_served +
                         net.node(1).chain_stats().sync_blocks_served;
  net.stop_node(kCycledNode);
  outcome.attempted();
  const bool advanced =
      wait_until([&] { return miner.head_height() >= h0 + kCatchupBlocks; },
                 60.0, std::chrono::microseconds(1000)) &&
      pause_and_settle(net, std::chrono::milliseconds(100));
  struct ResumeMining {
    p2p::P2pNode& miner;
    ~ResumeMining() { miner.set_mining(true); }
  } resume{miner};
  Clock::time_point t0;
  if (!advanced || !net.start_node(kCycledNode, &t0)) {
    outcome.failed();
    outcome.check(false, "restart cycle: miner stalled or node failed to start");
    return;
  }
  p2p::P2pNode& node = net.node(kCycledNode);
  const bool ready = wait_until([&] { return node.ready(); }, 30.0,
                                std::chrono::microseconds(200));
  const double restart = seconds_since(t0);
  const bool caught =
      ready && wait_until([&] { return node.head() == miner.head(); }, 60.0,
                          std::chrono::microseconds(200));
  const double catchup = seconds_since(t0);
  if (!caught) {
    outcome.failed();
    outcome.check(false, "restart cycle: restarted node never caught up");
    r.restart_s.push_back(kInf);
    r.catchup_s.push_back(kInf);
    return;
  }
  r.restart_s.push_back(restart);
  r.catchup_s.push_back(catchup);
  r.sync_rounds.push_back(static_cast<double>(node.chain_stats().sync_rounds));
  r.sync_blocks_served.push_back(
      miner.chain_stats().sync_blocks_served +
      net.node(1).chain_stats().sync_blocks_served - served0);
  // Roots compared only while both nodes sit on the same head.
  bool compared = false;
  for (int attempt = 0; attempt < 200 && !compared; ++attempt) {
    // Heads only grow (one miner), so a head read equal before and after a
    // root read pins the root to that head.
    const ledger::BlockHash head = miner.head();
    const Hash32 a = miner.head_state_root();
    const bool node_at_head = node.head() == head;
    const Hash32 b = node.head_state_root();
    if (node_at_head && miner.head() == head && node.head() == head) {
      outcome.check(a == b, "restarted node's state root differs from its peer's");
      compared = true;
    } else {
      wait_until([&] { return node.head() == miner.head(); }, 5.0);
    }
  }
  outcome.check(compared, "restarted node never settled on the miner's head");
}

}  // namespace

// --- run_live ----------------------------------------------------------------------------

LiveReport run_live(Net& net, const Inputs& in, const Options& opt,
                    Tracer& tracer, Outcome& outcome) {
  const Workload& w = net.workload();
  LiveReport r;
  Window win;
  const double warmup = opt.tiny ? 0.2 : 1.0;
  win.start = Clock::now();
  win.begin = win.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(warmup));
  win.set_end(win.begin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(opt.seconds)));
  win.drain = std::chrono::seconds(opt.tiny ? 5 : 15);

  Shared sh;
  sh.window = &win;
  sh.tracer = &tracer;
  sh.outcome = &outcome;
  sh.opt = &opt;
  const std::size_t skip = opt.inject == "drop_tx" ? 10 : SIZE_MAX;

  // Thread layout per workload (at most four threads and connections).
  std::vector<GenThread> layout;
  const auto observer_duty = [&sh, &in](Conn& c, ThreadResult&) {
    auto d = std::make_unique<Observer>(c, sh);
    d->set_base(in.base_height);
    return std::unique_ptr<Duty>(std::move(d));
  };
  const auto reader_duty = [&sh, &in, &w](Conn& c, ThreadResult& o) {
    return std::unique_ptr<Duty>(
        std::make_unique<Reader>(c, sh, o, in, w.read_rate));
  };
  const auto scraper_duty = [&sh](Conn& c, ThreadResult&) {
    return std::unique_ptr<Duty>(std::make_unique<Scraper>(c, sh));
  };
  const auto open_writer = [&sh, &in, &w, skip](Conn& c, ThreadResult& o) {
    return std::unique_ptr<Duty>(std::make_unique<OpenWriter>(
        c, sh, o, in, w.write_rate, w.batch, skip));
  };
  // The reader gets a thread of its own so no other duty makes it late, on
  // the node that does not mine (in the open loop also neither takes the
  // writes nor polls; that node's scraper takes the fourth thread).
  if (w.closed_loop) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      GenThread t;
      t.node = i;
      t.duties.push_back([&sh, &in, &w, i, skip](Conn& c, ThreadResult& o) {
        return std::unique_ptr<Duty>(std::make_unique<ClosedWriter>(
            c, sh, o, in.streams[i], w.window, w.batch, i == 0 ? skip : SIZE_MAX));
      });
      if (i == kMinerNode) {
        t.duties.push_back(observer_duty);
        t.duties.push_back(scraper_duty);
      }
      layout.push_back(std::move(t));
    }
    layout.push_back(GenThread{kCycledNode, {reader_duty}});
  } else {
    layout.push_back(GenThread{1, {open_writer, scraper_duty}});
    layout.push_back(GenThread{2, {reader_duty}});
    layout.push_back(GenThread{2, {scraper_duty}});
    layout.push_back(GenThread{0, {observer_duty, scraper_duty}});
  }

  // Baseline readings, then start the generator.
  std::array<Tally, kNodes> begin;
  for (std::size_t i = 0; i < kNodes; ++i) begin[i] = read_node(net.node(i));
  std::vector<ThreadResult> results(layout.size());
  std::vector<std::thread> threads;
  threads.reserve(layout.size());
  for (std::size_t t = 0; t < layout.size(); ++t) {
    threads.emplace_back(run_thread, std::cref(layout[t]),
                         net.rpc_port(layout[t].node), std::ref(sh),
                         std::ref(results[t]));
  }

  // Window: readings at its edges, samplers in between.
  std::this_thread::sleep_until(win.begin);
  for (std::size_t i = 0; i < kNodes; ++i) begin[i] = read_node(net.node(i));
  const Usage u0 = usage();
  const std::uint64_t blocks0 = net.node(kMinerNode).chain_stats().blocks_produced;
  // Finality lag every 100 ms, pool depth once a second; short sleeps so
  // the closing readings follow a cut window closely.
  double lag_sum = 0.0;
  std::uint64_t lag_n = 0;
  auto next_sample = win.begin;
  for (auto now = Clock::now(); now < win.end(); now = Clock::now()) {
    if (now >= next_sample) {
      next_sample += std::chrono::milliseconds(100);
      lag_sum += static_cast<double>(net.node(kMinerNode).finality_info().lag);
      if (lag_n++ % 10 == 0) {
        for (std::size_t i = 0; i < kNodes; ++i) {
          r.pool_depth_max = std::max(
              r.pool_depth_max, static_cast<double>(net.node(i).pool_depth()));
        }
      }
    }
    std::this_thread::sleep_until(
        std::min(next_sample, now + std::chrono::milliseconds(5)));
  }
  const Usage u1 = usage();
  r.window_s = std::chrono::duration<double>(win.end() - win.begin).count();
  for (std::size_t i = 0; i < kNodes; ++i) {
    tally_add(r.tally, read_node(net.node(i)), begin[i]);
  }
  r.blocks_in_window =
      net.node(kMinerNode).chain_stats().blocks_produced - blocks0;
  r.cpu_s = u1.cpu_s - u0.cpu_s;
  r.invol_ctx_switches = u1.invol - u0.invol;
  r.finality_lag_mean = lag_n > 0 ? lag_sum / static_cast<double>(lag_n) : 0.0;

  // Drain: writers settle, then finality must cover the confirmed head.
  wait_until([&] { return sh.writers_active.load() == 0; }, 60.0,
             std::chrono::milliseconds(2));
  const std::uint64_t need = net.node(kMinerNode).head_height();
  const bool finalized = wait_until(
      [&] {
        std::lock_guard<std::mutex> lock(sh.mu);
        return !sh.finalized.empty() && sh.finalized.back().second >= need &&
               sh.fetched_height.load() >= need;
      },
      opt.tiny ? 10.0 : 20.0, std::chrono::milliseconds(2));
  outcome.check(finalized, "finality did not reach the confirmed head");
  sh.stop_observer.store(true);
  for (std::thread& t : threads) t.join();

  // Merge the generator's results.
  std::uint64_t window_txs = 0;
  for (ThreadResult& t : results) {
    r.gen_cpu_s += t.cpu_end - t.cpu_begin;
    r.client_bytes += t.bytes;
    r.client_requests += t.requests;
    r.submit_rtt_ms.insert(r.submit_rtt_ms.end(), t.submit_rtt_ms.begin(),
                           t.submit_rtt_ms.end());
    r.proof_rtt_ms.insert(r.proof_rtt_ms.end(), t.proof_rtt_ms.begin(),
                          t.proof_rtt_ms.end());
    r.late_ms.insert(r.late_ms.end(), t.late_ms.begin(), t.late_ms.end());
    r.read_ms.insert(r.read_ms.end(), t.read_ms.begin(), t.read_ms.end());
    for (std::string& b : t.sample_requests) r.sample_requests.push_back(std::move(b));
    for (std::string& b : t.sample_replies) r.sample_replies.push_back(std::move(b));
    r.sample_txs += t.sample_txs;
    r.stream_used_max = std::max(r.stream_used_max, t.stream_used);
    r.window_cut = r.window_cut || t.window_cut;
    for (const TxSample& tx : t.txs) {
      if (tx.confirmed.has_value() && win.in(*tx.confirmed)) ++r.confirmed_in_window;
      if (!win.in(tx.start)) continue;
      ++window_txs;
      if (!tx.confirmed.has_value()) {
        r.commit_ms.push_back(kInf);
        r.final_ms.push_back(kInf);
        continue;
      }
      r.commit_ms.push_back(ms_between(tx.start, *tx.confirmed));
      double fin = kInf;
      const auto h = sh.tx_height.find(tx.tx->id_hex);
      if (h != sh.tx_height.end()) {
        for (const auto& [when, height] : sh.finalized) {
          if (height >= h->second) {
            fin = ms_between(tx.start, std::max(when, *tx.confirmed));
            break;
          }
        }
      }
      if (!std::isfinite(fin)) outcome.failed();
      r.final_ms.push_back(fin);
    }
  }
  outcome.check(window_txs > 0, "no transaction was attempted in the window");

  // Every accepted transaction confirmed on every node.  A node restored
  // from a snapshot indexes only the blocks above it; there a transaction
  // in a block at or below the snapshot must show as its sender's consumed
  // nonce instead.
  std::size_t unconfirmed = 0;
  for (const ThreadResult& t : results) {
    for (const TxSample& tx : t.txs) {
      if (tx.rejected) continue;
      const ledger::TxId id = hash_from_hex(tx.tx->id_hex);
      const auto h = sh.tx_height.find(tx.tx->id_hex);
      for (std::size_t i = 0; i < kNodes; ++i) {
        p2p::P2pNode& node = net.node(i);
        if (node.tx_status(id).state ==
            p2p::P2pNode::TxStatusInfo::State::confirmed) {
          continue;
        }
        const auto cs = node.chain_stats();
        if (cs.restored_from_snapshot && h != sh.tx_height.end() &&
            h->second <= cs.snapshot_height &&
            node.account_info(tx.tx->sender).next_nonce > tx.tx->nonce) {
          continue;
        }
        ++unconfirmed;
        break;
      }
    }
  }
  outcome.check(unconfirmed == 0,
                std::to_string(unconfirmed) +
                    " accepted transactions are not confirmed on every node");

  // Restart cycles after the window, on an idle network.
  for (int c = 0; c < kRestartCycles; ++c) {
    restart_cycle(net, r, outcome);
    if (!net.up(kCycledNode)) break;
  }

  // Quiesce: stop mining, wait for one head everywhere, compare roots and
  // total supply.
  const bool settled = net.up(kCycledNode) &&
                       pause_and_settle(net, std::chrono::milliseconds(100));
  outcome.check(settled, "nodes did not settle on one head");
  bool compared = false;
  for (int attempt = 0; settled && attempt < 100 && !compared; ++attempt) {
    const ledger::BlockHash head = net.node(0).head();
    std::array<Hash32, kNodes> roots{};
    std::array<UInt128, kNodes> supply{};
    bool same_head = true;
    for (std::size_t i = 0; i < kNodes; ++i) {
      same_head = same_head && net.node(i).head() == head;
      roots[i] = net.node(i).head_state_root();
      supply[i] = net.node(i).total_supply();
      same_head = same_head && net.node(i).head() == head;
    }
    if (!same_head) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    compared = true;
    r.head_root = roots[0];
    for (std::size_t i = 0; i < kNodes; ++i) {
      outcome.check(roots[i] == roots[0],
                    "nodes at the same head report different state roots");
      outcome.check(supply[i] == UInt128(kGenesisFund * kNodes),
                    "total supply is not conserved");
    }
  }
  outcome.check(compared, "nodes never held one head long enough to compare");

  // The miner's main chain above the base, for the replays.
  if (opt.trace) {
    auto info = net.node(0).block_info(net.node(0).head());
    while (info.has_value() && info->block->height() > in.base_height) {
      r.chain.push_back(info->block);
      info = net.node(0).block_info(info->block->header().prev);
    }
    std::reverse(r.chain.begin(), r.chain.end());
    if (info.has_value()) r.base_block = info->block;
  }
  return r;
}

}  // namespace perfbench
