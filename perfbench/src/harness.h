// perfbench: the repository benchmark.
//
// One process runs one workload against the program from outside: three
// in-process P2pNodes on loopback TCP, each behind a real JSON-RPC server,
// driven by at most four generator threads over HTTP, followed by a restart
// phase of the non-mining node and a run of the discrete-event simulator on a
// fixed input.  Every workload reports every end-to-end metric; the
// workloads differ in the traffic mix and the state they start from (see
// perfbench/README.md for the list and the per-layer -> end-to-end map).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ledger/transaction.h"
#include "ledger/types.h"
#include "obs/live/registry.h"
#include "state/ledger_state.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// The live consortium: three nodes, node 0 mines, each node id is also a
// funded sender account (genesis_fund each, as P2pNodeConfig sets it).
inline constexpr std::size_t kNodes = 3;
inline constexpr std::uint64_t kGenesisFund = 1'000'000;
inline constexpr std::size_t kMinerNode = 0;
inline constexpr std::size_t kCycledNode = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fault injected by the generator for the self-check: "tamper_proof"
  /// flips one byte of the first proof it verifies, "drop_tx" withholds one
  /// transaction of sender 0 so its successors can never confirm, and
  /// "read_error" sends the first proof read with malformed params, so the
  /// node answers it with an RPC error.
  std::string inject;
  /// Self-check size: a small state and short phases.
  bool tiny = false;
  /// Set-up repetitions (0 = the default: 3, or 2 at tiny size).  Runs that
  /// do not report setup_s, such as a traced run and its twin, use 1.
  int setup_reps = 0;
  fs::path work;  ///< scratch directory for datadirs and the span file
};

struct Workload {
  std::string name;
  bool closed_loop = false;      ///< one saturating writer per node
  std::size_t window = 256;      ///< closed loop: outstanding txs per writer
  std::size_t batch = 64;        ///< txs per submit_txs request
  double write_rate = 0.0;       ///< open loop: txs per second
  double read_rate = 0.0;        ///< open-loop get_balance {prove:true} per second
  std::size_t hot_set = 0;       ///< recipients from this many accounts; 0 = uniform
  std::size_t prebuilt_accounts = 0;  ///< pre-built state size (0 = genesis only)
  double difficulty = 20000.0;   ///< expected hashes per block (fixed)
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile, q in [0,1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);

/// Histogram snapshot difference (end - begin), merged over nodes by adding.
themis::obs::live::Histogram::Snapshot hist_delta(
    const themis::obs::live::Histogram::Snapshot& end,
    const themis::obs::live::Histogram::Snapshot& begin);
void hist_add(themis::obs::live::Histogram::Snapshot& into,
              const themis::obs::live::Histogram::Snapshot& more);

// --- spans ---------------------------------------------------------------------

/// In-memory span recorder for the traced run; a no-op when disabled.  A
/// span has a name, start, end, the span that caused it (parent) and the
/// identifier shared by every span of one transaction batch (trace).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0, parent = 0, trace = 0;
    std::int64_t start_ns = 0, end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  std::int64_t now_ns() const;
  void record(Span span);

  /// Spans by name: total self time (duration minus child spans) in
  /// microseconds and the span count.
  struct Totals {
    double self_us = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;
  std::size_t size() const;
  /// Write every span as one JSON object per line.
  bool write(const fs::path& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t parent = 0,
             std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Tracer::Span span_;
};

// --- results --------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation accounting and output-check verdicts for the whole run.
class Outcome {
 public:
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }
  void check(bool ok, const std::string& what);
  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }
  /// No output check failed and no operation failed.
  bool correct() const;
  std::vector<std::string> failures() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// --- inputs ---------------------------------------------------------------------

/// One pre-signed transfer, ready to send: the submit_txs spec fragment
/// {"raw":"<hex>"} and its id, built during set-up.
struct TxInput {
  std::string spec;
  std::string id_hex;
  themis::ledger::NodeId sender = 0;
  std::uint64_t nonce = 0;
};

struct Inputs {
  /// Per sender (index = sender id = node id), transfers in nonce order.
  std::vector<std::vector<TxInput>> streams;
  /// A sample of the signed transactions for the verify_batch replay.
  std::vector<themis::ledger::SignedTransaction> signed_sample;
  /// Accounts the readers query, in order.
  std::vector<themis::ledger::NodeId> read_accounts;
  /// State every node starts from (genesis allocation, or the pre-built
  /// state the pre-built history produces).
  themis::state::LedgerState base_state;
  std::uint64_t base_height = 0;
  std::uint64_t account_space = 0;  ///< ids [0, account_space) exist
  /// Pre-built datadir to copy into every node (empty = fresh datadirs).
  fs::path datadir_template;
};

/// Deterministic in (workload, seed): same seed, same inputs.
Inputs make_inputs(const Workload& w, const Options& opt,
                   std::size_t txs_per_sender, std::size_t reads);

// --- phases ---------------------------------------------------------------------

struct SimReport {
  double sim_s_per_wall_s = 0.0;
  double build_s = 0.0;
  double ns_per_event = 0.0;
  std::uint64_t events = 0, blocks = 0, stale = 0, gossip_delivered = 0,
                pending_peak = 0;
  double redundant_push_ratio = 0.0, stale_ratio = 0.0;
};

/// The fixed simulator input (fig6 shape, n=400, FinalityOverlay k=16, one
/// thread, one trial) run `reps` times; checks the counts repeat exactly.
SimReport run_sim_phase(const Options& opt, Tracer& tracer, Outcome& outcome);
int sim_reps(const Options& opt);

/// Provenance printed with every result.
std::string provenance_json(const Options& opt, int setup_reps, int sim_reps);

}  // namespace perfbench
