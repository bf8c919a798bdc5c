// Seeded input generator: pre-signed transfers per sender and, for the
// workloads that start from a large state, a pre-built datadir (block store
// holding the full history) synthesized through the ledger/state functions
// the way bench/state_scale does.  Everything here runs during set-up.
#include <algorithm>
#include <iostream>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/bytes.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "harness.h"
#include "ledger/block.h"
#include "ledger/block_store.h"
#include "state/transfer.h"

namespace perfbench {

using namespace themis;

namespace {

// Fixed timestamps keep the inputs a pure function of the seed.
constexpr std::int64_t kBaseTimeNanos = 1'600'000'000'000'000'000;
constexpr std::size_t kCreateTxsPerBlock = 4096;

std::uint64_t workload_salt(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

ledger::Block make_block(std::uint64_t height, const ledger::BlockHash& prev,
                         std::vector<ledger::Transaction> txs) {
  std::vector<Hash32> leaves;
  leaves.reserve(txs.size());
  for (const ledger::Transaction& tx : txs) leaves.push_back(tx.id());
  ledger::BlockHeader header;
  header.height = height;
  header.prev = prev;
  header.merkle_root = crypto::merkle_root(leaves);
  header.producer = static_cast<ledger::NodeId>(height % kNodes);
  header.timestamp_nanos =
      kBaseTimeNanos + static_cast<std::int64_t>(height) * 1'000'000'000;
  header.nonce = height;
  header.tx_count = static_cast<std::uint32_t>(txs.size());
  return ledger::Block(header, crypto::Signature{}, std::move(txs));
}

/// Synthesize the pre-built chain into `dir`: blocks of transfers that fan
/// one unit out to each new account, from the three senders in turn.
/// `state` starts at the genesis allocation and ends at the head.  The
/// datadir holds the full history and no snapshot, so every node replays it
/// at boot and the serving nodes' block trees are rooted at genesis:
/// P2pNode::start re-roots the tree at a restored snapshot, and
/// p2p::serve_range indexes the main chain by absolute height, so a node
/// restored from a snapshot above genesis serves sync ranges from the wrong
/// place.  The cycled node restores from the snapshots it writes itself.
std::uint64_t build_datadir(std::size_t accounts, const fs::path& dir,
                            state::LedgerState& state) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  ledger::BlockStore store(dir / "blocks.dat");
  ledger::BlockHash prev = ledger::Block::genesis().id();
  std::uint64_t height = 0;
  std::vector<std::uint64_t> nonce(kNodes, 1);
  ledger::NodeId next_account = kNodes;
  const auto space = static_cast<ledger::NodeId>(kNodes + accounts);
  while (next_account < space) {
    const auto sender = static_cast<ledger::NodeId>(height % kNodes);
    std::vector<ledger::Transaction> txs;
    for (std::size_t i = 0; i < kCreateTxsPerBlock && next_account < space;
         ++i) {
      state::Transfer t;
      t.to = next_account++;
      t.amount = 1;
      txs.push_back(state::make_transfer_tx(sender, nonce[sender]++,
                                            kBaseTimeNanos, t));
    }
    const std::size_t n = txs.size();
    const ledger::Block block = make_block(++height, prev, std::move(txs));
    if (state.apply_block(block) != n) {
      throw std::runtime_error("pre-built block did not apply cleanly");
    }
    store.append(block);
    prev = block.id();
  }
  return height;
}

}  // namespace

Inputs make_inputs(const Workload& w, const Options& opt,
                   std::size_t txs_per_sender, std::size_t reads) {
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ULL ^
                      workload_salt(w.name));
  Inputs in;
  for (std::size_t i = 0; i < kNodes; ++i) {
    in.base_state.fund(static_cast<ledger::NodeId>(i), UInt128(kGenesisFund));
  }
  const std::size_t accounts =
      opt.tiny && w.prebuilt_accounts > 0 ? std::size_t{1} << 11
                                          : w.prebuilt_accounts;
  if (accounts > 0) {
    in.datadir_template = opt.work / "prebuilt";
    in.base_height =
        build_datadir(accounts, in.datadir_template, in.base_state);
  }
  in.account_space = kNodes + (accounts > 0 ? accounts : w.hot_set);

  const auto draw_recipient = [&](ledger::NodeId sender) {
    ledger::NodeId to =
        w.hot_set > 0 ? static_cast<ledger::NodeId>(kNodes + rng() % w.hot_set)
                      : static_cast<ledger::NodeId>(rng() % in.account_space);
    if (to == sender) to = static_cast<ledger::NodeId>((to + 1) % in.account_space);
    return to;
  };

  // Draw every transfer first (sequential, seeded), then sign in parallel.
  std::vector<std::vector<ledger::Transaction>> unsigned_txs(kNodes);
  for (std::size_t s = 0; s < kNodes; ++s) {
    const auto sender = static_cast<ledger::NodeId>(s);
    const std::uint64_t first = in.base_state.account(sender).next_nonce;
    unsigned_txs[s].reserve(txs_per_sender);
    for (std::size_t k = 0; k < txs_per_sender; ++k) {
      state::Transfer t;
      t.to = draw_recipient(sender);
      t.amount = 1;
      unsigned_txs[s].push_back(state::make_transfer_tx(
          sender, first + k, kBaseTimeNanos + static_cast<std::int64_t>(k), t));
    }
  }
  in.streams.assign(kNodes, std::vector<TxInput>(txs_per_sender));
  in.signed_sample.resize(std::min<std::size_t>(512, txs_per_sender));
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      std::vector<crypto::Keypair> keys;
      for (std::size_t s = 0; s < kNodes; ++s) {
        keys.push_back(crypto::Keypair::from_node_id(s));
      }
      for (std::size_t s = 0; s < kNodes; ++s) {
        for (std::size_t k = t; k < txs_per_sender; k += workers) {
          ledger::SignedTransaction stx;
          stx.tx = unsigned_txs[s][k];
          stx.signature = keys[s].sign(stx.tx.id());
          TxInput& input = in.streams[s][k];
          input.spec = "{\"raw\":\"" + to_hex(stx.encode()) + "\"}";
          input.id_hex = to_hex(stx.tx.id());
          input.sender = stx.tx.sender();
          input.nonce = stx.tx.nonce();
          if (s == 0 && k < in.signed_sample.size()) {
            in.signed_sample[k] = std::move(stx);
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  in.read_accounts.reserve(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    in.read_accounts.push_back(
        w.hot_set > 0
            ? static_cast<ledger::NodeId>(kNodes + rng() % w.hot_set)
            : static_cast<ledger::NodeId>(rng() % in.account_space));
  }
  return in;
}

}  // namespace perfbench
