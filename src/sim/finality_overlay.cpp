#include "sim/finality_overlay.h"

#include <any>

#include "common/check.h"
#include "consensus/wire.h"

namespace themis::sim {

FinalityOverlay::FinalityOverlay(net::Simulation& sim,
                                 net::GossipNetwork& network,
                                 std::vector<consensus::PowNode*> nodes,
                                 FinalityOverlayConfig config)
    : sim_(sim),
      network_(network),
      nodes_(std::move(nodes)),
      config_(config) {
  expects(config_.interval > 0, "checkpoint interval must be positive");
  expects(nodes_.size() == network_.n_nodes(),
          "overlay must cover every network node");
  // One-node-one-vote with placeholder keys: signature verification is off
  // in the simulation model, so the 2n point multiplications real key
  // derivation would cost are skipped (membership and weight still apply).
  std::vector<finality::Validator> members;
  members.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    members.push_back(
        {static_cast<ledger::NodeId>(i), crypto::PublicKey{}, 1});
  }
  finality::TrackerConfig tc;
  tc.interval = config_.interval;
  tc.verify_signatures = false;
  states_.resize(nodes_.size());
  for (NodeState& st : states_) {
    st.tracker = std::make_unique<finality::CheckpointTracker>(
        tc, finality::ValidatorSet(members),
        finality::make_backend(finality::ConcatAggregation::kId));
  }
}

void FinalityOverlay::attach() {
  for (net::PeerId i = 0; i < nodes_.size(); ++i) {
    // Chain through the PowNode's installed handler: votes peel off here,
    // block announcements keep flowing to the node untouched.
    net::GossipNetwork::Handler prev = network_.handler(i);
    network_.set_handler(
        i, [this, prev = std::move(prev), i](net::PeerId self,
                                             const net::Message& msg) {
          if (msg.type == consensus::kCkptVote) {
            on_vote(i, std::any_cast<const finality::CheckpointVote&>(
                           msg.payload));
            return;
          }
          if (prev) prev(self, msg);
        });
    nodes_[i]->set_head_listener(
        [this, i](const consensus::PowNode&) { on_head_change(i); });
  }
}

void FinalityOverlay::on_head_change(net::PeerId id) {
  consensus::PowNode& node = *nodes_[id];
  NodeState& st = states_[id];
  const std::uint64_t k = config_.interval;
  const std::uint64_t head_h = node.head_height();
  const std::uint64_t top = (head_h / k) * k;

  // Stamp first-reach times for the latency metric (newest first; stop at
  // the first height already stamped by an earlier head change).
  for (std::uint64_t h = top; h >= k; h -= k) {
    if (!st.reached_at.emplace(h, sim_.now()).second) break;
  }

  for (const consensus::ChainCore::Checkpoint& due :
       node.core().checkpoints_due(k, st.tracker->finalized_height())) {
    finality::CheckpointVote vote;
    vote.height = due.height;
    vote.block = due.block;
    vote.epoch = due.height / k;
    vote.voter = static_cast<ledger::NodeId>(id);
    // Unsigned by design: verify_signatures is off in the model.
    const finality::VoteOutcome outcome = st.tracker->add_vote(vote);
    ++st.votes_cast;
    record_outcome(id, outcome, due.height);
    network_.broadcast(id, consensus::kCkptVote, config_.vote_bytes, vote);
  }
}

void FinalityOverlay::on_vote(net::PeerId id,
                              const finality::CheckpointVote& vote) {
  record_outcome(id, states_[id].tracker->add_vote(vote), vote.height);
}

void FinalityOverlay::record_outcome(net::PeerId id,
                                     finality::VoteOutcome outcome,
                                     std::uint64_t height) {
  if (outcome != finality::VoteOutcome::quorum) return;
  NodeState& st = states_[id];
  const std::uint64_t head_h = nodes_[id]->head_height();
  st.lags.push_back(head_h > height ? head_h - height : 0);
  const auto it = st.reached_at.find(height);
  if (it != st.reached_at.end()) {
    st.latencies_s.push_back((sim_.now() - it->second).to_seconds());
  }
}

FinalityOverlay::Metrics FinalityOverlay::metrics() const {
  Metrics m;
  m.finalized_min = UINT64_MAX;
  double lag_sum = 0.0;
  std::uint64_t lag_n = 0;
  double lat_sum = 0.0;
  for (const NodeState& st : states_) {
    m.votes_cast += st.votes_cast;
    m.certificates += st.tracker->stats().certificates_formed;
    m.finalized_min = std::min(m.finalized_min, st.tracker->finalized_height());
    m.finalized_max = std::max(m.finalized_max, st.tracker->finalized_height());
    for (const std::uint64_t lag : st.lags) {
      lag_sum += static_cast<double>(lag);
      m.max_lag_blocks = std::max(m.max_lag_blocks, lag);
      ++lag_n;
    }
    for (const double s : st.latencies_s) {
      lat_sum += s;
      m.max_latency_s = std::max(m.max_latency_s, s);
      ++m.latency_samples;
    }
  }
  if (m.finalized_min == UINT64_MAX) m.finalized_min = 0;
  if (lag_n > 0) m.mean_lag_blocks = lag_sum / static_cast<double>(lag_n);
  if (m.latency_samples > 0) {
    m.mean_latency_s = lat_sum / static_cast<double>(m.latency_samples);
  }
  return m;
}

}  // namespace themis::sim
