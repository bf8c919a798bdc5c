#include "consensus/chain_core.h"

#include "common/check.h"

namespace themis::consensus {

using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;

ChainCore::ChainCore(std::shared_ptr<ForkChoiceRule> rule,
                     std::shared_ptr<DifficultyPolicy> policy,
                     std::shared_ptr<const KeyRegistry> registry,
                     std::uint64_t finality_depth, Checks checks,
                     BodyCheck body_check)
    : rule_(std::move(rule)),
      policy_(std::move(policy)),
      registry_(std::move(registry)),
      finality_depth_(finality_depth),
      body_check_(std::move(body_check)) {
  expects(rule_ != nullptr && policy_ != nullptr, "rule and policy required");
  expects(!checks.signature || registry_ != nullptr,
          "signatures require a key registry");
  ctx_.check_signature = checks.signature;
  ctx_.check_pow = checks.pow;
  ctx_.check_body = checks.body;
  if (registry_ != nullptr) {
    ctx_.public_key = [this](ledger::NodeId id) { return registry_->lookup(id); };
  }
  ctx_.expected_difficulty =
      [this](ledger::NodeId producer,
             const BlockHash& parent) -> std::optional<double> {
    if (!tree_.contains(parent)) return std::nullopt;
    return policy_->difficulty_for(tree_, parent, producer);
  };
  ctx_.parent_height =
      [this](const BlockHash& parent) -> std::optional<std::uint64_t> {
    if (!tree_.contains(parent)) return std::nullopt;
    return tree_.height(parent);
  };
  tracker_.reset(tree_, *rule_, tree_.genesis_hash(), finality_depth_);
}

const ChainCore::Result& ChainCore::add_block(BlockPtr block) {
  result_.arrival = Arrival::duplicate;
  result_.inserted.clear();
  result_.rejected = 0;
  result_.orphans_dropped = 0;
  result_.update = {};

  const BlockHash id = block->id();
  if (tree_.contains(id)) return result_;
  if (!tree_.contains(block->header().prev)) {
    // Validation needs the parent chain (difficulty table): wait for it.
    for (const BlockPtr& orphan : orphans_) {
      if (orphan->id() == id) return result_;
    }
    result_.arrival = Arrival::orphaned;
    buffer_orphan(std::move(block));
    return result_;
  }
  if (!validate(*block)) {
    result_.arrival = Arrival::rejected;
    result_.rejected = 1;
    drop_descendants(id);
    return result_;
  }

  // Insert the block plus every buffered descendant it unblocks.  All of
  // them descend from the first, so the batch is one subtree — exactly what
  // HeadTracker::on_insert needs.  The LIFO work stack fixes the insertion
  // (receipt) order GHOST's tie-break reads.
  result_.arrival = Arrival::inserted;
  const BlockHash batch_parent = block->header().prev;
  ready_.push_back(std::move(block));
  while (!ready_.empty()) {
    BlockPtr cur = std::move(ready_.back());
    ready_.pop_back();
    const BlockHash cur_id = cur->id();
    result_.inserted.push_back(cur);
    tree_.insert(std::move(cur));
    if (orphans_.empty()) continue;
    for (BlockPtr& waiting : take_orphans(cur_id)) {
      if (validate(*waiting)) {
        ready_.push_back(std::move(waiting));
      } else {
        ++result_.rejected;
        drop_descendants(waiting->id());
      }
    }
  }
  {
    obs::ProfileScope profile(prof_head_);
    result_.update = tracker_.on_insert(
        tree_, *rule_, id, batch_parent,
        /*batch_is_leaf=*/result_.inserted.size() == 1);
  }
  // Fork-choice walks start at the anchor, so aggregate maintenance below it
  // is wasted work — let the tree freeze that prefix.
  if (result_.update.head_changed) {
    tree_.set_aggregate_floor(tracker_.anchor_height());
  }
  return result_;
}

bool ChainCore::validate(const Block& block) const {
  return ledger::validate_block(block, ctx_) == ledger::BlockCheck::ok &&
         (!body_check_ || body_check_(block));
}

void ChainCore::buffer_orphan(BlockPtr block) {
  if (block->header().height <= tracker_.anchor_height()) {
    ++result_.orphans_dropped;  // a walk from the anchor never sees it
    return;
  }
  orphans_.push_back(std::move(block));
  if (orphans_.size() > kMaxOrphans) {
    orphans_.erase(orphans_.begin());
    ++result_.orphans_dropped;
  }
}

std::vector<BlockPtr> ChainCore::take_orphans(const BlockHash& parent) {
  std::vector<BlockPtr> children;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < orphans_.size(); ++i) {
    if (orphans_[i]->header().prev == parent) {
      children.push_back(std::move(orphans_[i]));
    } else {
      if (kept != i) orphans_[kept] = std::move(orphans_[i]);
      ++kept;
    }
  }
  orphans_.resize(kept);
  return children;
}

void ChainCore::drop_descendants(const BlockHash& id) {
  if (orphans_.empty()) return;
  for (const BlockPtr& child : take_orphans(id)) {
    ++result_.orphans_dropped;
    drop_descendants(child->id());
  }
}

std::vector<ChainCore::Checkpoint> ChainCore::checkpoints_due(
    std::uint64_t interval, std::uint64_t finalized_height) {
  std::vector<Checkpoint> due;
  const std::uint64_t top = (tracker_.head_height() / interval) * interval;
  for (std::uint64_t h = (last_voted_height_ / interval + 1) * interval;
       h <= top; h += interval) {
    last_voted_height_ = h;
    if (h <= finalized_height) continue;
    if (const BlockHash* block = tracker_.path_block_at(h)) {
      due.push_back({h, *block});
    }
  }
  return due;
}

bool ChainCore::set_finalized(const BlockHash& block) {
  const bool head_changed = tracker_.set_finalized(tree_, *rule_, block);
  tree_.set_aggregate_floor(tracker_.anchor_height());
  return head_changed;
}

void ChainCore::reset(ledger::BlockTree tree) {
  tree_ = std::move(tree);
  orphans_.clear();
  result_.inserted.clear();
  tracker_.reset(tree_, *rule_, tree_.genesis_hash(), finality_depth_);
}

}  // namespace themis::consensus
