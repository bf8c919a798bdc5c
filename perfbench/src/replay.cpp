// Single-threaded replays for the traced run: after the measured window the
// run's own chain and inputs go once more through each layer's public
// function, each call inside a span.  The per-layer costs below are the
// spans' self times over the work they covered.
#include <algorithm>
#include <optional>

#include "consensus/wire.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "finality/aggregation.h"
#include "finality/checkpoint.h"
#include "finality/tracker.h"
#include "ledger/block_store.h"
#include "ledger/blocktree.h"
#include "ledger/validation.h"
#include "live.h"
#include "p2p/frame.h"
#include "rpc/json.h"
#include "state/authstate/merkle_state.h"
#include "state/authstate/snapshot.h"
#include "state/transfer.h"

namespace perfbench {

using namespace themis;

namespace {

constexpr std::uint64_t kCheckpointInterval = 16;

double self_us(const std::map<std::string, Tracer::Totals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_us;
}

}  // namespace

Metrics run_replays(const Workload& w, const LiveReport& live,
                    const Inputs& in, const Options& opt, Tracer& tracer,
                    Outcome& outcome, double admit_batch_txs) {
  const auto& chain = live.chain;
  std::size_t txs = 0;
  for (const ledger::BlockPtr& b : chain) txs += b->transactions().size();
  const double blocks = static_cast<double>(std::max<std::size_t>(1, chain.size()));
  const double per_tx = static_cast<double>(std::max<std::size_t>(1, txs));
  const fs::path dir = opt.work / "replay";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<crypto::PublicKey> keys;
  std::vector<crypto::Keypair> keypairs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    keypairs.push_back(crypto::Keypair::from_node_id(i));
    keys.push_back(keypairs.back().public_key());
  }

  std::size_t proofs = 0, sigs = 0, votes = 0, hashes = 0;
  {
    const ScopedSpan root(tracer, "replay");
    const std::uint64_t parent = root.id();

    // state: apply every block to the base state, re-hash its dirty pages.
    state::LedgerState st = in.base_state;
    state::authstate::RootCache cache;
    cache.rebuild(st);
    for (const ledger::BlockPtr& b : chain) {
      {
        const ScopedSpan s(tracer, "replay.state.apply_block", parent);
        st.apply_block(*b);
      }
      std::vector<ledger::NodeId> touched;
      for (const ledger::Transaction& tx : b->transactions()) {
        touched.push_back(tx.sender());
        if (const auto t = state::transfer_of(tx)) touched.push_back(t->to);
      }
      const ScopedSpan s(tracer, "replay.state.root_update", parent);
      cache.update(st, touched);
    }
    if (!chain.empty() && live.head_root != Hash32{}) {
      outcome.check(cache.root() == live.head_root,
                    "replaying the chain does not reproduce the node's root");
    }

    // state: proof generation at the run's state size.
    for (std::size_t i = 0; i < in.read_accounts.size() && i < 256; ++i) {
      const ledger::NodeId id = in.read_accounts[i];
      const ScopedSpan s(tracer, "replay.state.prove", parent);
      state::authstate::AccountProof proof;
      proof.page = state::authstate::page_of(id);
      proof.page_count = cache.page_count();
      proof.page_bytes = state::authstate::encode_page(st, proof.page);
      proof.steps = crypto::merkle_prove(cache.page_hashes(), proof.page);
      ++proofs;
    }

    // state: snapshot of the replayed head, written then loaded.
    {
      state::authstate::Snapshot snap;
      snap.height = chain.empty() ? in.base_height : chain.back()->height();
      snap.block = chain.empty() ? ledger::BlockHash{} : chain.back()->id();
      snap.state_root = cache.root();
      snap.state = st;
      state::authstate::write_snapshot(dir / "state.snap", snap);
      const ScopedSpan s(tracer, "replay.state.snapshot_load", parent);
      outcome.check(state::authstate::read_snapshot(dir / "state.snap").has_value(),
                    "snapshot written by the replay does not load");
    }

    // ledger: validate_block against the chain's own parents.
    std::map<ledger::BlockHash, std::uint64_t> heights;
    if (live.base_block != nullptr) {
      heights[live.base_block->id()] = live.base_block->height();
    }
    for (const ledger::BlockPtr& b : chain) heights[b->id()] = b->height();
    ledger::ValidationContext ctx;
    ctx.public_key = [&keys](ledger::NodeId id) -> std::optional<crypto::PublicKey> {
      if (id >= keys.size()) return std::nullopt;
      return keys[id];
    };
    ctx.expected_difficulty = [&w](ledger::NodeId, const ledger::BlockHash&)
        -> std::optional<double> { return w.difficulty; };
    ctx.parent_height =
        [&heights](const ledger::BlockHash& p) -> std::optional<std::uint64_t> {
      const auto it = heights.find(p);
      if (it == heights.end()) return std::nullopt;
      return it->second;
    };
    std::size_t invalid = 0;
    for (const ledger::BlockPtr& b : chain) {
      const ScopedSpan s(tracer, "replay.ledger.validate_block", parent);
      if (ledger::validate_block(*b, ctx) != ledger::BlockCheck::ok) ++invalid;
    }
    outcome.check(invalid == 0, "a main-chain block fails validate_block");

    // ledger: block codec, store append, store open + replay.
    for (const ledger::BlockPtr& b : chain) {
      const ScopedSpan s(tracer, "replay.ledger.block_codec", parent);
      const Bytes raw = b->encode();
      if (!(ledger::Block::decode(raw).id() == b->id())) ++invalid;
    }
    {
      ledger::BlockStore store(dir / "blocks.dat");
      for (const ledger::BlockPtr& b : chain) {
        const ScopedSpan s(tracer, "replay.ledger.store_append", parent);
        store.append(*b);
      }
    }
    {
      const ScopedSpan s(tracer, "replay.ledger.store_replay", parent);
      const ledger::BlockStore store(dir / "blocks.dat");
      ledger::BlockTree tree = live.base_block != nullptr
                                   ? ledger::BlockTree(live.base_block)
                                   : ledger::BlockTree();
      outcome.check(store.replay_into(tree) == chain.size(),
                    "stored chain does not replay into a tree");
    }

    // p2p: one block frame encoded and decoded per block.
    for (const ledger::BlockPtr& b : chain) {
      const Bytes payload = b->encode();
      const ScopedSpan s(tracer, "replay.p2p.frame_codec", parent);
      p2p::FrameDecoder decoder;
      decoder.feed(p2p::encode_frame(consensus::kP2pBlock, payload));
      const auto frame = decoder.poll();
      if (!frame.has_value() || frame->payload.size() != payload.size()) ++invalid;
    }
    outcome.check(invalid == 0, "block codec or frame codec round trip failed");

    // crypto: verify_batch at the run's admission batch size.
    const std::size_t batch = static_cast<std::size_t>(
        std::clamp(admit_batch_txs, 1.0, 64.0) + 0.5);
    for (std::size_t at = 0; at + batch <= in.signed_sample.size(); at += batch) {
      std::vector<crypto::BatchVerifyItem> items;
      for (std::size_t i = at; i < at + batch; ++i) {
        const ledger::SignedTransaction& stx = in.signed_sample[i];
        items.push_back({keys[stx.tx.sender()], stx.tx.id(), stx.signature});
      }
      const ScopedSpan s(tracer, "replay.crypto.verify_batch", parent);
      outcome.check(crypto::verify_batch(items), "pre-signed batch fails to verify");
      sigs += batch;
    }

    // crypto: the proof-of-work header hash.
    if (!chain.empty()) {
      ledger::BlockHeader header = chain.back()->header();
      const ScopedSpan s(tracer, "replay.crypto.pow_hash", parent);
      for (; hashes < 20000; ++hashes) {
        header.nonce = hashes;
        const Hash32 h = header.hash();
        if (h[0] == 0 && h[1] == 0 && h[2] == 0 && h[3] == 0) header.epoch ^= 1;
      }
    }

    // finality: signed votes of every member on each checkpoint of the chain.
    finality::TrackerConfig fc;
    fc.interval = kCheckpointInterval;
    finality::CheckpointTracker tracker(
        fc, finality::ValidatorSet::deterministic(kNodes),
        finality::make_backend("concat"));
    std::vector<finality::CheckpointVote> pending;
    for (const ledger::BlockPtr& b : chain) {
      if (b->height() % kCheckpointInterval != 0) continue;
      for (std::size_t v = 0; v < kNodes; ++v) {
        finality::CheckpointVote vote;
        vote.height = b->height();
        vote.block = b->id();
        vote.epoch = b->height() / kCheckpointInterval;
        vote.voter = static_cast<ledger::NodeId>(v);
        vote.signature = keypairs[v].sign(vote.digest());
        pending.push_back(vote);
      }
    }
    for (const finality::CheckpointVote& vote : pending) {
      const ScopedSpan s(tracer, "replay.finality.add_vote", parent);
      const auto outcome_v = tracker.add_vote(vote);
      if (outcome_v != finality::VoteOutcome::accepted &&
          outcome_v != finality::VoteOutcome::quorum) {
        ++invalid;
      }
      ++votes;
    }
    outcome.check(invalid == 0, "a replayed checkpoint vote was refused");

    // rpc: the server's codec work on the run's own bodies.
    for (std::size_t i = 0; i < live.sample_requests.size(); ++i) {
      const ScopedSpan s(tracer, "replay.rpc.json", parent);
      const rpc::Json request = rpc::Json::parse(live.sample_requests[i]);
      const rpc::Json reply = rpc::Json::parse(live.sample_replies[i]);
      if (request.dump().empty() || reply.dump().empty()) ++invalid;
    }
  }

  const auto totals = tracer.totals();
  Metrics m;
  const auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  put("state.apply_us_per_tx", self_us(totals, "replay.state.apply_block") / per_tx,
      "us");
  put("state.root_update_us_per_block",
      self_us(totals, "replay.state.root_update") / blocks, "us");
  put("state.prove_us",
      self_us(totals, "replay.state.prove") /
          static_cast<double>(std::max<std::size_t>(1, proofs)),
      "us");
  put("state.snapshot_load_s", self_us(totals, "replay.state.snapshot_load") / 1e6,
      "s");
  put("ledger.validate_block_us",
      self_us(totals, "replay.ledger.validate_block") / blocks, "us");
  put("ledger.block_codec_us", self_us(totals, "replay.ledger.block_codec") / blocks,
      "us");
  put("ledger.store_append_us",
      self_us(totals, "replay.ledger.store_append") / blocks, "us");
  put("ledger.store_replay_s", self_us(totals, "replay.ledger.store_replay") / 1e6,
      "s");
  put("p2p.frame_codec_us_per_block",
      self_us(totals, "replay.p2p.frame_codec") / blocks, "us");
  put("crypto.verify_batch_us_per_tx",
      self_us(totals, "replay.crypto.verify_batch") /
          static_cast<double>(std::max<std::size_t>(1, sigs)),
      "us");
  put("crypto.pow_hash_ns",
      self_us(totals, "replay.crypto.pow_hash") * 1e3 /
          static_cast<double>(std::max<std::size_t>(1, hashes)),
      "ns");
  put("finality.add_vote_us",
      self_us(totals, "replay.finality.add_vote") /
          static_cast<double>(std::max<std::size_t>(1, votes)),
      "us");
  put("rpc.json_us_per_tx",
      self_us(totals, "replay.rpc.json") /
          static_cast<double>(std::max<std::uint64_t>(1, live.sample_txs)),
      "us");
  fs::remove_all(dir);
  return m;
}

}  // namespace perfbench
