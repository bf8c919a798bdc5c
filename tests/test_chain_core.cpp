// ChainCore: the block-arrival path shared by the simulator's PowNode and the
// daemon's P2pNode — dedupe, orphan buffering and adoption, validation,
// head update — and the checkpoint-vote rule both finality wirings use.
#include "consensus/chain_core.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace themis::consensus {
namespace {

using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;
using Arrival = ChainCore::Arrival;

constexpr double kDifficulty = 10.0;

std::unique_ptr<ChainCore> make_core(std::uint64_t finality_depth = 64) {
  return std::make_unique<ChainCore>(
      std::make_shared<GhostRule>(),
      std::make_shared<FixedDifficulty>(kDifficulty), nullptr, finality_depth,
      ChainCore::Checks{});
}

BlockPtr make_block(const BlockHash& prev, std::uint64_t height,
                    std::uint64_t nonce = 0, double difficulty = kDifficulty) {
  ledger::BlockHeader header;
  header.height = height;
  header.prev = prev;
  header.producer = 1;
  header.difficulty = difficulty;
  header.nonce = nonce;
  return std::make_shared<const Block>(header, crypto::Signature{},
                                       std::vector<ledger::Transaction>{});
}

/// A chain of `n` blocks on `root` (heights root_height+1 ...).
std::vector<BlockPtr> make_chain(const BlockHash& root,
                                 std::uint64_t root_height, std::size_t n,
                                 std::uint64_t nonce = 0) {
  std::vector<BlockPtr> chain;
  BlockHash prev = root;
  for (std::size_t i = 0; i < n; ++i) {
    chain.push_back(make_block(prev, root_height + 1 + i, nonce));
    prev = chain.back()->id();
  }
  return chain;
}

/// An orphan whose parent nobody has.
BlockPtr random_orphan(Rng& rng, std::uint64_t height) {
  BlockHash prev{};
  for (auto& byte : prev) byte = static_cast<std::uint8_t>(rng.next_u64());
  return make_block(prev, height);
}

TEST(ChainCore, ChildFirstChainIsAdoptedAsOneBatch) {
  auto in_order = make_core();
  auto reversed = make_core();
  const std::vector<BlockPtr> chain =
      make_chain(in_order->tree().genesis_hash(), 0, 5);

  for (const BlockPtr& b : chain) {
    EXPECT_EQ(in_order->add_block(b).arrival, Arrival::inserted);
  }

  for (std::size_t i = chain.size(); i-- > 1;) {
    const ChainCore::Result& r = reversed->add_block(chain[i]);
    EXPECT_EQ(r.arrival, Arrival::orphaned);
    EXPECT_TRUE(r.inserted.empty());
    EXPECT_FALSE(r.update.head_changed);
  }
  EXPECT_EQ(reversed->orphan_count(), 4u);

  const ChainCore::Result& r = reversed->add_block(chain[0]);
  EXPECT_EQ(r.arrival, Arrival::inserted);
  ASSERT_EQ(r.inserted.size(), chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(r.inserted[i]->id(), chain[i]->id()) << i;  // insertion order
  }
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_TRUE(r.update.head_changed);
  EXPECT_FALSE(r.update.reorg);
  EXPECT_EQ(reversed->orphan_count(), 0u);
  EXPECT_EQ(reversed->tracker().head(), in_order->tracker().head());
  EXPECT_EQ(reversed->tracker().head(), chain.back()->id());
  EXPECT_EQ(reversed->tracker().head_height(), 5u);
}

TEST(ChainCore, DuplicatesOfTreeBlocksAndBufferedOrphansAreIgnored) {
  auto core = make_core();
  const std::vector<BlockPtr> chain =
      make_chain(core->tree().genesis_hash(), 0, 3);
  EXPECT_EQ(core->add_block(chain[0]).arrival, Arrival::inserted);
  EXPECT_EQ(core->add_block(chain[0]).arrival, Arrival::duplicate);

  EXPECT_EQ(core->add_block(chain[2]).arrival, Arrival::orphaned);
  const ChainCore::Result& again = core->add_block(chain[2]);
  EXPECT_EQ(again.arrival, Arrival::duplicate);
  EXPECT_EQ(again.orphans_dropped, 0u);
  EXPECT_EQ(core->orphan_count(), 1u);

  // The buffered copy is adopted exactly once.
  const ChainCore::Result& r = core->add_block(chain[1]);
  ASSERT_EQ(r.inserted.size(), 2u);
  EXPECT_EQ(core->tracker().head(), chain[2]->id());
}

TEST(ChainCore, WrongDifficultyBlockIsRejected) {
  auto core = make_core();
  const BlockPtr bad =
      make_block(core->tree().genesis_hash(), 1, 0, kDifficulty * 2);
  const ChainCore::Result& r = core->add_block(bad);
  EXPECT_EQ(r.arrival, Arrival::rejected);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_TRUE(r.inserted.empty());
  EXPECT_FALSE(core->tree().contains(bad->id()));
  EXPECT_EQ(core->tracker().head(), core->tree().genesis_hash());
}

TEST(ChainCore, InvalidOrphanIsRejectedOnceAndItsDescendantsDropped) {
  auto core = make_core();
  const BlockPtr parent = make_block(core->tree().genesis_hash(), 1);
  const BlockPtr forged = make_block(parent->id(), 2, 0, kDifficulty * 2);
  const BlockPtr grandchild = make_block(forged->id(), 3);

  // Neither orphan can be checked before its parent arrives.
  EXPECT_EQ(core->add_block(grandchild).rejected, 0u);
  EXPECT_EQ(core->add_block(forged).rejected, 0u);
  EXPECT_EQ(core->orphan_count(), 2u);

  const ChainCore::Result& r = core->add_block(parent);
  EXPECT_EQ(r.arrival, Arrival::inserted);
  ASSERT_EQ(r.inserted.size(), 1u);
  EXPECT_EQ(r.inserted[0]->id(), parent->id());
  EXPECT_EQ(r.rejected, 1u);         // the forged block, once
  EXPECT_EQ(r.orphans_dropped, 1u);  // its child can never attach
  EXPECT_EQ(core->orphan_count(), 0u);
  EXPECT_FALSE(core->tree().contains(forged->id()));
  EXPECT_EQ(core->tracker().head(), parent->id());
}

TEST(ChainCore, OrphansAtOrBelowTheAnchorAreDropped) {
  auto core = make_core(/*finality_depth=*/4);
  for (const BlockPtr& b : make_chain(core->tree().genesis_hash(), 0, 10)) {
    core->add_block(b);
  }
  ASSERT_EQ(core->tracker().anchor_height(), 6u);
  Rng rng(3);

  const ChainCore::Result& low = core->add_block(random_orphan(rng, 6));
  EXPECT_EQ(low.arrival, Arrival::orphaned);
  EXPECT_EQ(low.orphans_dropped, 1u);
  EXPECT_EQ(core->orphan_count(), 0u);

  const ChainCore::Result& high = core->add_block(random_orphan(rng, 7));
  EXPECT_EQ(high.arrival, Arrival::orphaned);
  EXPECT_EQ(high.orphans_dropped, 0u);
  EXPECT_EQ(core->orphan_count(), 1u);
}

TEST(ChainCore, OrphanBufferEvictsOldestPastTheCap) {
  auto core = make_core();
  const std::vector<BlockPtr> early =
      make_chain(core->tree().genesis_hash(), 0, 2, /*nonce=*/1);
  const std::vector<BlockPtr> late =
      make_chain(core->tree().genesis_hash(), 0, 2, /*nonce=*/2);
  Rng rng(5);

  EXPECT_EQ(core->add_block(early[1]).arrival, Arrival::orphaned);  // oldest
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < ChainCore::kMaxOrphans; ++i) {
    dropped += core->add_block(random_orphan(rng, 100)).orphans_dropped;
  }
  const ChainCore::Result& newest = core->add_block(late[1]);
  EXPECT_EQ(newest.arrival, Arrival::orphaned);
  dropped += newest.orphans_dropped;
  EXPECT_EQ(core->add_block(late[1]).arrival, Arrival::duplicate);
  EXPECT_EQ(core->orphan_count(), ChainCore::kMaxOrphans);
  EXPECT_EQ(dropped, 2u);  // each drop counted once

  // The oldest orphan was evicted: its parent arrives alone.
  EXPECT_EQ(core->add_block(early[0]).inserted.size(), 1u);
  // The newest one is still buffered and adopted with its parent.
  EXPECT_EQ(core->add_block(late[0]).inserted.size(), 2u);
  EXPECT_LE(core->orphan_count(), ChainCore::kMaxOrphans);
}

TEST(ChainCore, CheckpointsDueOncePerHeightAboveFinalityAndAnchor) {
  auto core = make_core(/*finality_depth=*/4);
  const std::vector<BlockPtr> chain =
      make_chain(core->tree().genesis_hash(), 0, 16);
  for (std::size_t i = 0; i < 10; ++i) core->add_block(chain[i]);
  ASSERT_EQ(core->tracker().anchor_height(), 6u);

  // Heights 2 and 4 already fell below the anchor: passed over for good.
  std::vector<ChainCore::Checkpoint> due = core->checkpoints_due(2, 0);
  ASSERT_EQ(due.size(), 3u);
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_EQ(due[i].height, 6u + 2 * i);
    EXPECT_EQ(due[i].block, chain[due[i].height - 1]->id());
  }
  EXPECT_TRUE(core->checkpoints_due(2, 0).empty());  // at most once

  for (std::size_t i = 10; i < 16; ++i) core->add_block(chain[i]);
  // 12 and 14 are at or below the finalized height; only 16 is due.
  due = core->checkpoints_due(2, /*finalized_height=*/14);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].height, 16u);
  EXPECT_EQ(due[0].block, chain[15]->id());
  EXPECT_TRUE(core->checkpoints_due(2, 0).empty());
}

TEST(ChainCore, RejectsMissingRuleOrRegistry) {
  EXPECT_THROW(ChainCore(nullptr, std::make_shared<FixedDifficulty>(1.0),
                         nullptr, 64, ChainCore::Checks{}),
               PreconditionError);
  EXPECT_THROW(ChainCore(std::make_shared<GhostRule>(),
                         std::make_shared<FixedDifficulty>(1.0), nullptr, 64,
                         ChainCore::Checks{.signature = true}),
               PreconditionError);
}

}  // namespace
}  // namespace themis::consensus
