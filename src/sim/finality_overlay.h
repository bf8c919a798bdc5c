// Checkpoint finality overlay for the discrete-event simulator.
//
// Mirrors the p2p node's finality wiring (src/finality + P2pNode) inside the
// GossipNetwork model so finality latency can be measured at consortium
// sizes (n = 100..400+) no socket testbed reaches: each PowNode gets a
// CheckpointTracker; on every head change the node asks its ChainCore which
// checkpoint heights are due (ChainCore::checkpoints_due, the rule P2pNode
// votes by too) and casts a vote for each (kCkptVote flood, same push-gossip
// as block announcements), and every node independently accumulates votes
// until the >2/3 quorum forms its certificate.  The two wirings differ only
// in signing.
//
// Votes travel unsigned (TrackerConfig::verify_signatures = false): the
// overlay measures propagation and quorum dynamics, not Schnorr throughput —
// micro_crypto and the aggregation tests cover the cryptography.  The vote's
// modeled wire size matches the real encoding so bandwidth numbers carry
// over.
//
// Attach AFTER every PowNode::start(): the overlay interposes on each node's
// installed gossip handler (votes peel off, everything else chains through)
// and claims the PowNode head listener.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "consensus/node.h"
#include "finality/tracker.h"
#include "net/gossip.h"

namespace themis::sim {

struct FinalityOverlayConfig {
  /// Checkpoint interval k (votes at heights k, 2k, ...).
  std::uint64_t interval = 16;
  /// Modeled wire size of one vote: height + block + epoch + voter + sig.
  std::size_t vote_bytes = 120;
};

class FinalityOverlay {
 public:
  FinalityOverlay(net::Simulation& sim, net::GossipNetwork& network,
                  std::vector<consensus::PowNode*> nodes,
                  FinalityOverlayConfig config);

  /// Interpose on gossip handlers and head listeners.  Call after start().
  void attach();

  struct Metrics {
    std::uint64_t votes_cast = 0;       ///< votes originated across all nodes
    std::uint64_t certificates = 0;     ///< certificates formed across all nodes
    std::uint64_t finalized_min = 0;    ///< min finalized height over nodes
    std::uint64_t finalized_max = 0;    ///< max finalized height over nodes
    /// Head-height-minus-checkpoint at the moment each certificate formed
    /// (blocks the head had advanced past the checkpoint by then).
    double mean_lag_blocks = 0.0;
    std::uint64_t max_lag_blocks = 0;
    /// Seconds from a node's head reaching a checkpoint height to that node
    /// forming the checkpoint's certificate.
    double mean_latency_s = 0.0;
    double max_latency_s = 0.0;
    std::uint64_t latency_samples = 0;
  };
  Metrics metrics() const;

 private:
  struct NodeState {
    std::unique_ptr<finality::CheckpointTracker> tracker;
    /// Sim time this node's head first reached each checkpoint height.
    std::unordered_map<std::uint64_t, SimTime> reached_at;
    std::vector<double> latencies_s;   ///< per-certificate, this node's view
    std::vector<std::uint64_t> lags;   ///< per-certificate lag in blocks
    std::uint64_t votes_cast = 0;
  };

  void on_head_change(net::PeerId id);
  void on_vote(net::PeerId id, const finality::CheckpointVote& vote);
  /// Shared post-add_vote accounting (quorum => latency/lag samples).
  void record_outcome(net::PeerId id, finality::VoteOutcome outcome,
                      std::uint64_t height);

  net::Simulation& sim_;
  net::GossipNetwork& network_;
  std::vector<consensus::PowNode*> nodes_;
  FinalityOverlayConfig config_;
  mutable std::vector<NodeState> states_;
};

}  // namespace themis::sim
