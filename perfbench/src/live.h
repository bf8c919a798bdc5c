// The live half of a run: a three-node loopback network behind JSON-RPC
// servers, the generator threads that drive it, and the restart cycles of the
// non-mining node.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger/block.h"
#include "obs/live/registry.h"
#include "p2p/node.h"
#include "rpc/gateway.h"
#include "rpc/http_server.h"

namespace perfbench {

/// Snapshot interval of every node (finalized blocks), so a restart costs a
/// snapshot load plus a bounded suffix, not the whole history.
inline constexpr std::uint64_t kSnapshotInterval = 32;
/// Blocks the miner advances while the cycled node is down.
inline constexpr std::uint64_t kCatchupBlocks = 16;
/// Restart cycles of the cycled node after each window; restart_s and
/// catchup_s are medians over them.  A cycle syncs 16 or 17 blocks, so
/// single cycles differ.
inline constexpr int kRestartCycles = 5;

class Net {
 public:
  Net(const Workload& w, const Options& opt, const Inputs& in);
  ~Net();
  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  /// Copy the pre-built datadir (if any) to every node, start all nodes and
  /// their RPC servers, wait until they are connected at one head.
  bool boot();
  void stop_all();

  themis::p2p::P2pNode& node(std::size_t i) { return *slots_[i].node; }
  bool up(std::size_t i) const { return slots_[i].node != nullptr; }
  std::uint16_t rpc_port(std::size_t i) const { return slots_[i].rpc_port; }
  const Workload& workload() const { return w_; }

  /// Stop node i and its RPC server (the datadir stays).
  void stop_node(std::size_t i);
  /// Construct and start node i on its datadir (no RPC server; boot()
  /// starts those).  `started_at` is taken just before P2pNode::start().
  bool start_node(std::size_t i, Clock::time_point* started_at = nullptr);

 private:
  themis::p2p::P2pNodeConfig config(std::size_t i) const;
  bool start_rpc(std::size_t i);

  struct Slot {
    std::unique_ptr<themis::p2p::P2pNode> node;
    std::unique_ptr<themis::rpc::Gateway> gateway;
    std::unique_ptr<themis::rpc::HttpServer> server;
    std::uint16_t rpc_port = 0;
  };
  const Workload& w_;
  const Options& opt_;
  const Inputs& in_;
  std::array<Slot, kNodes> slots_;
};

/// Counter and histogram readings summed over nodes between two instants.
struct Tally {
  std::map<std::string, double> counters;
  std::map<std::string, themis::obs::live::Histogram::Snapshot> hists;
};

struct LiveReport {
  double window_s = 0.0;  ///< shorter than --seconds if the window was cut
  // End-to-end samples (failed operations are +infinity).
  std::uint64_t confirmed_in_window = 0;
  std::vector<double> commit_ms, final_ms, read_ms;
  std::vector<double> restart_s, catchup_s;
  // Generator-side layer samples.
  std::vector<double> submit_rtt_ms, proof_rtt_ms, late_ms;
  double client_bytes = 0.0;          ///< request + reply bytes in the window
  std::uint64_t client_requests = 0;  ///< requests sent in the window
  std::vector<std::string> sample_requests, sample_replies;
  std::uint64_t sample_txs = 0;
  double stream_used_max = 0.0;  ///< largest share of a sender's inputs sent
  bool window_cut = false;       ///< a sender's inputs ran out: window ended early
  // Node-side readings over the window, summed over nodes.
  Tally tally;
  std::uint64_t blocks_in_window = 0;
  double pool_depth_max = 0.0;
  double finality_lag_mean = 0.0;
  // Restart cycles.
  std::vector<double> sync_rounds, sync_blocks_served;
  // Process accounting over the window.
  double cpu_s = 0.0, gen_cpu_s = 0.0, invol_ctx_switches = 0.0;
  // Main chain of the miner after the run (base excluded), for the replays.
  std::vector<themis::ledger::BlockPtr> chain;
  themis::ledger::BlockPtr base_block;  ///< parent of chain.front()
  themis::Hash32 head_root{};
};

/// Run the workload's window, then the restart cycles, against `net`.
LiveReport run_live(Net& net, const Inputs& in, const Options& opt,
                    Tracer& tracer, Outcome& outcome);

/// Single-threaded replays of the run's own chain and inputs through each
/// layer's public functions, recorded as spans; returns per-layer values.
Metrics run_replays(const Workload& w, const LiveReport& live,
                    const Inputs& in, const Options& opt, Tracer& tracer,
                    Outcome& outcome, double admit_batch_txs);

}  // namespace perfbench
