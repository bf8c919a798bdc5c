// The transport-free block-arrival core shared by the simulator and the
// daemon (DESIGN.md §16).
//
// The §III round is one algorithm: validate a received block (signature,
// Eq. 6/7 difficulty, proof-of-work, body), insert it, re-run the fork-choice
// rule.  ChainCore is its only implementation.  PowNode drives it from
// simulated gossip and its mining timer; P2pNode from socket frames and its
// miner thread, under the node mutex.  Neither keeps its own orphan buffer,
// validation set-up or head update, and both finality wirings vote by
// checkpoints_due().
//
// The orphan buffer is bounded: a block whose parent is unknown cannot be
// checked, so without a bound any peer could pin memory with parentless
// blocks.  Orphans at or below the fork-choice anchor are dropped on arrival
// (their branch forks below the walk's start), the oldest are evicted past
// kMaxOrphans, and the buffered descendants of a rejected block go with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "consensus/difficulty.h"
#include "consensus/forkchoice.h"
#include "consensus/head_tracker.h"
#include "crypto/schnorr.h"
#include "ledger/blocktree.h"
#include "ledger/validation.h"
#include "obs/profile.h"

namespace themis::consensus {

/// Maps node ids to their public keys when header signatures are enabled.
class KeyRegistry {
 public:
  void add(ledger::NodeId id, crypto::PublicKey key) { keys_[id] = key; }
  std::optional<crypto::PublicKey> lookup(ledger::NodeId id) const {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<ledger::NodeId, crypto::PublicKey> keys_;
};

class ChainCore {
 public:
  /// Orphan-buffer cap: far above what gossip reordering or a sync round
  /// buffers (the figure drivers never reach it).
  static constexpr std::size_t kMaxOrphans = 1024;

  /// Which §III checks run on arriving blocks.
  struct Checks {
    bool signature = false;  ///< header signature against the KeyRegistry
    bool pow = false;        ///< header hash meets the claimed difficulty
    bool body = false;       ///< merkle root / tx_count commit to the body
  };
  /// Run after header validation on every block about to be inserted
  /// (adopted orphans included); false rejects the block.
  using BodyCheck = std::function<bool(const ledger::Block&)>;

  ChainCore(std::shared_ptr<ForkChoiceRule> rule,
            std::shared_ptr<DifficultyPolicy> policy,
            std::shared_ptr<const KeyRegistry> registry,
            std::uint64_t finality_depth, Checks checks,
            BodyCheck body_check = nullptr);
  ChainCore(const ChainCore&) = delete;  // the validation context holds `this`
  ChainCore& operator=(const ChainCore&) = delete;

  enum class Arrival {
    duplicate,  ///< already in the tree or the orphan buffer
    orphaned,   ///< parent unknown: buffered (or dropped, see orphans_dropped)
    rejected,   ///< failed validation
    inserted,   ///< the tree grew
  };
  struct Result {
    Arrival arrival = Arrival::duplicate;
    /// Blocks added to the tree in insertion order: the arriving block,
    /// then the orphans it unblocked.
    std::vector<ledger::BlockPtr> inserted;
    std::size_t rejected = 0;         ///< arriving block and adopted orphans
    std::size_t orphans_dropped = 0;  ///< left the buffer unvalidated
    HeadTracker::Update update;
  };

  /// Dedupe → buffer an orphan → validate (+ body check) → insert the block
  /// and every buffered descendant it unblocks as one batch → head update →
  /// aggregate floor.  The result is valid until the next call; its storage
  /// is reused, so a steady-state arrival allocates nothing here.
  const Result& add_block(ledger::BlockPtr block);

  struct Checkpoint {
    std::uint64_t height = 0;
    ledger::BlockHash block{};  ///< the preferred path's block at `height`
  };
  /// Checkpoint heights (multiples of `interval`) newly covered by the
  /// preferred path, each with the block to vote for.  A height is returned
  /// at most once, ever (re-voting would equivocate); heights at or below
  /// `finalized_height` or below the anchor are passed over for good.
  std::vector<Checkpoint> checkpoints_due(std::uint64_t interval,
                                          std::uint64_t finalized_height);

  /// HeadTracker::set_finalized, then the aggregate floor follows the
  /// anchor.  True when the head changed (forced switch).
  bool set_finalized(const ledger::BlockHash& block);

  /// Adopt a rebuilt tree (restart from a store or snapshot): head and
  /// anchor are re-derived, orphans cleared, the last vote kept.
  void reset(ledger::BlockTree tree);

  /// Profile HeadTracker::on_insert under `stat` (null = off).
  void set_head_update_profile(obs::ScopeStat* stat) { prof_head_ = stat; }

  const ledger::BlockTree& tree() const { return tree_; }
  const HeadTracker& tracker() const { return tracker_; }
  DifficultyPolicy& policy() const { return *policy_; }
  std::size_t orphan_count() const { return orphans_.size(); }

 private:
  bool validate(const ledger::Block& block) const;
  void buffer_orphan(ledger::BlockPtr block);
  /// Remove and return the buffered orphans whose parent is `parent`.
  std::vector<ledger::BlockPtr> take_orphans(const ledger::BlockHash& parent);
  void drop_descendants(const ledger::BlockHash& id);

  std::shared_ptr<ForkChoiceRule> rule_;
  std::shared_ptr<DifficultyPolicy> policy_;
  std::shared_ptr<const KeyRegistry> registry_;
  std::uint64_t finality_depth_;
  BodyCheck body_check_;
  ledger::ValidationContext ctx_;

  ledger::BlockTree tree_;
  HeadTracker tracker_;
  /// Blocks whose parent is not in the tree yet, oldest first.
  std::vector<ledger::BlockPtr> orphans_;
  std::uint64_t last_voted_height_ = 0;  ///< checkpoints_due's monotone cursor

  Result result_;                        ///< reused across add_block calls
  std::vector<ledger::BlockPtr> ready_;  ///< batch-insert work stack
  obs::ScopeStat* prof_head_ = nullptr;
};

}  // namespace themis::consensus
