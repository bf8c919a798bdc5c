#include "p2p/node.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "consensus/miner.h"
#include "consensus/wire.h"
#include "crypto/merkle.h"
#include "crypto/schnorr.h"
#include "obs/live/log.h"
#include "p2p/sync.h"
#include "state/authstate/snapshot.h"

namespace themis::p2p {

using consensus::RealMiner;
using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;
using obs::live::TxStage;

namespace {

/// Byte budget for one kP2pBlocks batch: half the frame ceiling, so the
/// one-block overshoot serve_range allows can never breach kMaxFramePayload.
constexpr std::size_t kSyncBatchBytes = kMaxFramePayload / 2;

/// How long a getdata stays "in flight" before we re-request the hash from
/// the next announcer (peer died or ignored us).
constexpr std::int64_t kRequestRetryMs = 5000;

/// Consecutive fully-duplicate sync batches tolerated per peer before we stop
/// re-requesting (Peer::sync_stalls).
constexpr std::uint32_t kMaxSyncStalls = 3;

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Consortium keys for header signatures (null when signatures are off).
std::shared_ptr<const consensus::KeyRegistry> consortium_registry(
    const P2pNodeConfig& config) {
  if (!config.use_signatures) return nullptr;
  auto registry = std::make_shared<consensus::KeyRegistry>();
  for (std::size_t i = 0; i < config.n_nodes; ++i) {
    registry->add(static_cast<ledger::NodeId>(i),
                  crypto::Keypair::from_node_id(i).public_key());
  }
  return registry;
}

/// Genesis funding: every consortium account starts with the same balance.
std::map<ledger::NodeId, UInt128> genesis_allocation(
    const P2pNodeConfig& config) {
  std::map<ledger::NodeId, UInt128> alloc;
  if (config.genesis_fund > 0) {
    for (std::size_t i = 0; i < config.n_nodes; ++i) {
      alloc[static_cast<ledger::NodeId>(i)] = config.genesis_fund;
    }
  }
  return alloc;
}

/// Admission replay filter: a transaction belongs in a candidate block only
/// if it applies cleanly on top of everything selected before it.
bool applies_cleanly(state::ScratchState& scratch,
                     const ledger::Transaction& tx) {
  const state::TxOutcome outcome = scratch.apply(tx);
  return outcome == state::TxOutcome::applied ||
         outcome == state::TxOutcome::data_only;
}

}  // namespace

std::string_view to_string(TxAdmit admit) {
  switch (admit) {
    case TxAdmit::accepted: return "accepted";
    case TxAdmit::duplicate: return "duplicate";
    case TxAdmit::known_confirmed: return "known_confirmed";
    case TxAdmit::invalid: return "invalid";
    case TxAdmit::bad_signature: return "bad_signature";
    case TxAdmit::unknown_sender: return "unknown_sender";
    case TxAdmit::stale_nonce: return "stale_nonce";
    case TxAdmit::nonce_gap: return "nonce_gap";
  }
  return "unknown";
}

P2pNode::P2pNode(P2pNodeConfig config,
                 std::shared_ptr<consensus::ForkChoiceRule> rule,
                 std::shared_ptr<consensus::DifficultyPolicy> policy)
    : config_(std::move(config)),
      registry_(consortium_registry(config_)),
      core_(rule != nullptr ? std::move(rule)
                            : std::make_shared<consensus::GhostRule>(),
            policy != nullptr ? std::move(policy)
                              : std::make_shared<consensus::FixedDifficulty>(
                                    config_.difficulty),
            registry_, config_.finality_depth,
            consensus::ChainCore::Checks{.signature = config_.use_signatures,
                                         .pow = true,
                                         .body = true},
            [this](const Block& block) { return replay_body_locked(block); }),
      state_(genesis_allocation(config_)),
      pool_(config_.pool_capacity) {
  expects(config_.n_nodes >= 1, "p2p node set must be non-empty");
  expects(config_.id < config_.n_nodes, "node id out of range");
  if (config_.use_signatures) {
    keypair_ = crypto::Keypair::from_node_id(config_.id);
  }

  // Checkpoint finality overlay: needs the Schnorr keys (votes are
  // signatures), so it engages only alongside use_signatures.
  if (config_.use_signatures && config_.checkpoint_interval > 0) {
    finality::TrackerConfig fc;
    fc.interval = config_.checkpoint_interval;
    fc.verify_signatures = true;
    ckpt_.emplace(fc, finality::ValidatorSet::deterministic(config_.n_nodes),
                  finality::make_backend(config_.finality_backend));
  }

  PeerManagerConfig pm;
  pm.listen_port = config_.listen_port;
  pm.listen = config_.listen;
  pm.dial = config_.peers;
  pm.handshake.genesis = tree().genesis_hash();
  pm.handshake.node_id = config_.id;
  pm.handshake.checkpoint_interval =
      ckpt_.has_value() ? config_.checkpoint_interval : 0;
  pm.handshake.agent = config_.agent;
  pm.dial_timeout_ms = config_.dial_timeout_ms;
  pm.ping_interval_ms = config_.ping_interval_ms;
  pm.pong_timeout_ms = config_.pong_timeout_ms;
  pm.backoff_initial_ms = config_.backoff_initial_ms;
  pm.backoff_max_ms = config_.backoff_max_ms;
  pm.jitter_seed = config_.rng_seed ^ (0x9e3779b97f4a7c15ULL + config_.id);
  peers_ = std::make_unique<PeerManager>(std::move(pm));
  peers_->set_height_provider([this] { return head_height(); });
  peers_->set_ready_handler([this](Peer& peer) { on_peer_ready(peer); });
  peers_->set_frame_handler(
      [this](Peer& peer, std::uint32_t type, ByteSpan payload) {
        on_peer_frame(peer, type, payload);
      });

  register_live_metrics();
  // Confirmation stamps ride the reconciler: it fires per newly-confirmed tx
  // under mu_, after the inclusion stamps of the same head change.
  reconciler_.set_confirm_hook([this](const ledger::TxId& id) {
    stage_tracker_.stamp(id, TxStage::confirmed);
  });
}

void P2pNode::register_live_metrics() {
  obs::live::Registry& r = live_registry_;
  live_.txs_submitted = &r.counter(
      "themis_tx_submitted_total", "Transaction admission attempts (RPC + wire relay).");
  live_.txs_accepted = &r.counter(
      "themis_tx_accepted_total", "Transactions admitted into the pool.");
  live_.txs_rejected = &r.counter(
      "themis_tx_rejected_total", "Transactions that failed an admission check.");
  live_.txs_duplicate = &r.counter(
      "themis_tx_duplicate_total", "Transactions already pending or confirmed.");
  live_.blocks_produced = &r.counter(
      "themis_blocks_mined_total", "Blocks mined by this node.");
  live_.blocks_received = &r.counter(
      "themis_blocks_received_total", "Full blocks received over the wire.");
  live_.blocks_rejected = &r.counter(
      "themis_blocks_rejected_total", "Blocks that failed validation.");
  live_.head_changes = &r.counter(
      "themis_head_changes_total", "Fork-choice head moves.");
  live_.reorgs = &r.counter(
      "themis_reorgs_total", "Head moves that abandoned a previous branch.");
  live_.ckpt_votes_sent = &r.counter(
      "themis_finality_votes_sent_total",
      "Checkpoint votes signed and broadcast by this node.");
  live_.ckpt_votes_received = &r.counter(
      "themis_finality_votes_received_total",
      "Checkpoint vote frames received from peers.");
  live_.ckpt_votes_accepted = &r.counter(
      "themis_finality_votes_accepted_total",
      "Checkpoint votes counted toward a checkpoint quorum.");
  live_.ckpt_votes_rejected = &r.counter(
      "themis_finality_votes_rejected_total",
      "Checkpoint votes rejected (equivocation, unknown voter, bad signature).");
  live_.ckpt_certs_formed = &r.counter(
      "themis_finality_certificates_total",
      "Checkpoint quorums completed locally (certificates formed).");
  live_.reorgs_refused_finality = &r.counter(
      "themis_finality_reorgs_refused_total",
      "Heavier branches refused because they diverge below the finalized height.");
  live_.blocks_duplicate = &r.counter(
      "themis_blocks_duplicate_total",
      "Full blocks received that were already in the tree or orphan buffer.");
  live_.orphans_dropped = &r.counter(
      "themis_orphans_dropped_total",
      "Orphan blocks dropped unvalidated (below the anchor, evicted past the "
      "buffer cap, or descending from a rejected block).");
  live_.invs_received = &r.counter(
      "themis_block_invs_received_total",
      "Block inventory entries received from peers.");
  live_.invs_redundant = &r.counter(
      "themis_block_invs_redundant_total",
      "Block inventory entries for blocks already in the tree.");
  live_.sync_requests_served = &r.counter(
      "themis_sync_requests_served_total", "Locator sync requests answered.");
  live_.sync_blocks_served = &r.counter(
      "themis_sync_blocks_served_total",
      "Blocks sent in answer to locator sync requests.");
  live_.sync_rounds = &r.counter(
      "themis_sync_rounds_total", "Locator sync requests sent to peers.");
  live_.snapshots_written = &r.counter(
      "themis_snapshots_written_total", "State snapshots persisted.");
  live_.blocks_pruned = &r.counter(
      "themis_blocks_pruned_total", "Block-store records dropped by pruning.");
  live_.txs_relayed = &r.counter(
      "themis_tx_relayed_total", "Full transactions served to peers.");
  live_.txs_received = &r.counter(
      "themis_tx_received_total", "Full transactions received over the wire.");
  live_.tx_invs_received = &r.counter(
      "themis_tx_invs_received_total",
      "Transaction inventory entries received from peers.");
  live_.tx_invs_redundant = &r.counter(
      "themis_tx_invs_redundant_total",
      "Transaction inventory entries for transactions already known.");
  live_.txs_confirmed = &r.counter(
      "themis_tx_confirmed_total", "Transactions confirmed on the main chain.");
  live_.txs_returned = &r.counter(
      "themis_tx_returned_total",
      "Reorg-abandoned transactions returned to the pool.");
  live_.txs_purged = &r.counter(
      "themis_tx_purged_total",
      "Transactions dropped from the pool as permanently stale.");
  live_.admit_batch = &r.histogram(
      "themis_admit_batch_seconds",
      "Latency of one combining-leader admission batch (all four stages).");
  live_.block_submit = &r.histogram(
      "themis_block_submit_seconds",
      "Latency of block validate + insert + head update + pool reconcile.");
  pool_.set_live_counters(
      &r.counter("themis_pool_added_total", "TxPool inserts (all shards)."),
      &r.counter("themis_pool_evicted_total",
                 "TxPool capacity evictions (oldest first)."));
  // Consensus state values: set under mu_ where they change, so a scrape
  // reads them without the consensus lock.
  live_.head_height =
      &r.gauge("themis_head_height", "Height of the fork-choice head.");
  live_.orphan_blocks = &r.gauge(
      "themis_orphan_blocks", "Blocks buffered until their parent arrives.");
  live_.finalized_height = &r.gauge(
      "themis_finality_height", "Highest hard-finalized checkpoint height.");
  live_.finality_lag = &r.gauge(
      "themis_finality_lag_blocks",
      "Blocks between the fork-choice head and the finalized height.");
  live_.cert_votes = &r.gauge(
      "themis_finality_cert_votes",
      "Voters on the latest formed checkpoint certificate.");
  live_.snapshot_height = &r.gauge(
      "themis_snapshot_height",
      "Anchor height of the latest state snapshot written or restored.");
  live_.store_replayed = &r.gauge(
      "themis_store_replayed_blocks", "Block-store records replayed at start.");
  live_.restored_from_snapshot = &r.gauge(
      "themis_restored_from_snapshot",
      "1 when start() restored the state from a snapshot, else 0.");
  // Instantaneous values other components already maintain atomically are
  // read at scrape time instead of being mirrored on the hot path.
  r.gauge_fn("themis_pool_depth", "Pending transactions in the TxPool.",
             [this] { return static_cast<double>(pool_.size()); });
  r.gauge_fn("themis_ready_peers", "Handshake-complete peer connections.",
             [this] { return static_cast<double>(peers_->ready_peer_count()); });
  r.gauge_fn("themis_uptime_seconds", "Seconds since the node started.",
             [this] { return uptime_seconds(); });
  r.gauge_fn("themis_p2p_bytes_in", "Transport bytes received.",
             [this] { return static_cast<double>(peers_->stats().bytes_in); });
  r.gauge_fn("themis_p2p_bytes_out", "Transport bytes sent.",
             [this] { return static_cast<double>(peers_->stats().bytes_out); });
}

void P2pNode::publish_chain_gauges_locked() {
  const std::uint64_t head = tracker().head_height();
  const std::uint64_t finalized = tracker().finalized_height();
  live_.head_height->set(static_cast<std::int64_t>(head));
  live_.finalized_height->set(static_cast<std::int64_t>(finalized));
  live_.finality_lag->set(
      static_cast<std::int64_t>(head > finalized ? head - finalized : 0));
}

P2pNode::~P2pNode() { stop(); }

bool P2pNode::start() {
  expects(!started_, "p2p node already started");
  start_time_ = std::chrono::steady_clock::now();
  std::uint64_t replayed = 0;  ///< block-store records recovered

  if (!config_.datadir.empty()) {
    std::filesystem::create_directories(config_.datadir);
    std::lock_guard<std::mutex> lock(mu_);
    // Restart in O(snapshot + suffix), not O(history): when a verified state
    // snapshot exists and its block is in the store, re-root the tree at the
    // snapshot block, seed the StateManager base with the restored state,
    // and replay only the records above the snapshot height.  Any snapshot
    // defect (checksum, version, root mismatch, missing block) falls back to
    // the full replay path.
    const auto snap =
        state::authstate::read_snapshot(config_.datadir / "state.snap");
    store_ =
        std::make_unique<ledger::BlockStore>(config_.datadir / "blocks.dat");
    ledger::BlockTree rebuilt;
    bool rerooted = false;
    if (snap.has_value()) {
      if (auto root_block = store_->read_by_id(snap->block);
          root_block.has_value()) {
        rebuilt = ledger::BlockTree(
            std::make_shared<const Block>(*std::move(root_block)));
        state_.reset_base(snap->state);
        last_snapshot_height_ = snap->height;
        live_.snapshot_height->set(static_cast<std::int64_t>(snap->height));
        live_.restored_from_snapshot->set(1);
        rerooted = true;
        replayed = store_->replay_into(rebuilt, snap->height + 1);
        obs::live::log_info(
            "chain", "restored from snapshot",
            {{"height", snap->height},
             {"accounts",
              static_cast<std::uint64_t>(snap->state.accounts().size())},
             {"replayed", replayed}});
      } else {
        obs::live::log_warn("chain",
                            "snapshot block missing from store; full replay",
                            {{"height", snap->height}});
      }
    }
    if (!rerooted) replayed = store_->replay_into(rebuilt);
    live_.store_replayed->set(static_cast<std::int64_t>(replayed));
    if (replayed > 0 || rerooted) {
      core_.reset(std::move(rebuilt));
      // The confirmed-tx index covers the replayed main chain, so tx_status
      // and duplicate suppression survive a restart.
      reconciler_.rebuild(tree(), tracker().head());
      publish_chain_gauges_locked();
    }
  }
  trace("node_start", {obs::Field::u64("node", config_.id),
                       obs::Field::u64("replayed", replayed),
                       obs::Field::u64("height", head_height())});

  if (!peers_->start()) {
    obs::live::log_error("node", "listen failed",
                         {{"port", static_cast<std::uint64_t>(config_.listen_port)}});
    return false;
  }
  started_ = true;
  obs::live::log_info(
      "node", "started",
      {{"id", static_cast<std::uint64_t>(config_.id)},
       {"port", static_cast<std::uint64_t>(peers_->listen_port())},
       {"height", head_height()},
       {"replayed", replayed},
       {"mining", config_.mine}});

  mining_enabled_.store(config_.mine);
  miner_thread_ = std::thread([this] { mine_loop(); });
  return true;
}

void P2pNode::stop() {
  if (!started_) return;
  stopping_.store(true);
  miner_cv_.notify_all();
  if (miner_thread_.joinable()) miner_thread_.join();
  peers_->stop();
  started_ = false;
  obs::live::log_info("node", "stopped",
                      {{"id", static_cast<std::uint64_t>(config_.id)},
                       {"height", head_height()}});
}

namespace {
/// The node whose mine_loop runs on this thread (null elsewhere), so
/// set_mining(false) from a head listener never waits for itself.
thread_local const P2pNode* t_mining_node = nullptr;
}  // namespace

void P2pNode::set_mining(bool enabled) {
  mining_enabled_.store(enabled);
  miner_cv_.notify_all();
  if (enabled || t_mining_node == this) return;
  // The miner parks only between rounds, after submitting whatever it
  // solved; before start() and after stop() it is parked already.
  std::unique_lock<std::mutex> lock(miner_mu_);
  miner_cv_.wait(lock, [this] { return miner_parked_; });
}

std::int64_t P2pNode::wall_nanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void P2pNode::trace(std::string_view event,
                    std::initializer_list<obs::Field> fields) {
  if (obs_ == nullptr || !obs_->tracer.enabled()) return;
  std::lock_guard<std::mutex> lock(trace_mu_);
  obs_->tracer.emit(SimTime(wall_nanos()), event, fields);
}

// ---------------------------------------------------------------------------
// Transport callbacks
// ---------------------------------------------------------------------------

void P2pNode::on_peer_ready(Peer& peer) {
  trace("peer_ready", {obs::Field::u64("node", config_.id),
                       obs::Field::u64("remote", peer.remote().node_id),
                       obs::Field::boolean("outbound", peer.outbound())});
  obs::live::log_info(
      "p2p", "peer ready",
      {{"remote", static_cast<std::uint64_t>(peer.remote().node_id)},
       {"outbound", peer.outbound()},
       {"peers", static_cast<std::uint64_t>(peers_->ready_peer_count())}});
  // Always probe for a better chain: the response is empty if we are caught
  // up, and the locator round also covers a remote that lied about height.
  request_sync(peer);

  // Offer our pending transactions (bounded to one inv frame); the peer
  // fetches whatever it lacks, so a fresh node inherits the mempool the same
  // way it inherits the chain.
  InvMsg pool_inv;
  for (const ledger::TxId& id : pool_.ids(kMaxInvHashes)) {
    if (peer.mark_known(id)) pool_inv.hashes.push_back(id);
  }
  if (!pool_inv.hashes.empty()) {
    peer.send_frame(consensus::kP2pTxInv, pool_inv.encode());
  }

  // Offer our retained checkpoint votes the same way: a freshly connected
  // (or partition-healed) peer can be brought to quorum — and force-switched
  // onto the certified chain — from the retained window alone.
  std::vector<finality::CheckpointVote> retained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ckpt_.has_value()) retained = ckpt_->retained_votes();
  }
  for (const finality::CheckpointVote& vote : retained) {
    if (!peer.mark_known(vote.vote_id())) continue;
    if (!peer.send_frame(consensus::kP2pCkptVote,
                         CkptVoteMsg{vote}.encode())) {
      break;
    }
  }
}

void P2pNode::request_sync(Peer& peer) {
  GetBlocksMsg request;
  {
    std::lock_guard<std::mutex> lock(mu_);
    request.locator = build_locator(tree(), tracker().head());
  }
  live_.sync_rounds->inc();
  request.max_blocks = static_cast<std::uint32_t>(kMaxSyncBlocks);
  peer.send_frame(consensus::kP2pGetBlocks, request.encode());
}

void P2pNode::on_peer_frame(Peer& peer, std::uint32_t type, ByteSpan payload) {
  switch (type) {
    case consensus::kP2pInv:
      handle_inv(peer, payload);
      return;
    case consensus::kP2pGetData:
      handle_getdata(peer, payload);
      return;
    case consensus::kP2pBlock:
      handle_block(peer, payload);
      return;
    case consensus::kP2pGetBlocks:
      handle_getblocks(peer, payload);
      return;
    case consensus::kP2pBlocks:
      handle_blocks(peer, payload);
      return;
    case consensus::kP2pTxInv:
      handle_tx_inv(peer, payload);
      return;
    case consensus::kP2pGetTxData:
      handle_get_txdata(peer, payload);
      return;
    case consensus::kP2pTx:
      handle_tx(peer, payload);
      return;
    case consensus::kP2pTxBatch:
      handle_tx_batch(peer, payload);
      return;
    case consensus::kP2pCkptVote:
      handle_ckpt_vote(peer, payload);
      return;
    default:
      // Unknown post-handshake frame: tolerated (forward compatibility), the
      // frame layer already verified its integrity.
      return;
  }
}

void P2pNode::handle_inv(Peer& peer, ByteSpan payload) {
  const InvMsg inv = InvMsg::decode(payload);
  InvMsg want;
  const std::int64_t now = steady_ms();
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.invs_received->inc(inv.hashes.size());
    for (const BlockHash& h : inv.hashes) {
      if (tree().contains(h)) {
        live_.invs_redundant->inc();
        continue;
      }
      const auto it = requested_.find(h);
      if (it != requested_.end() && now - it->second < kRequestRetryMs) {
        continue;  // already being fetched from another announcer
      }
      requested_[h] = now;
      want.hashes.push_back(h);
    }
  }
  for (const BlockHash& h : inv.hashes) peer.mark_known(h);
  if (!want.hashes.empty()) {
    peer.send_frame(consensus::kP2pGetData, want.encode());
  }
}

void P2pNode::handle_getdata(Peer& peer, ByteSpan payload) {
  const InvMsg request = InvMsg::decode(payload);
  std::vector<std::pair<BlockHash, Bytes>> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const BlockHash& h : request.hashes) {
      if (!tree().contains(h)) continue;  // pruned/unknown: silently skip
      found.emplace_back(h, tree().block(h)->encode());
    }
  }
  for (const auto& [hash, encoding] : found) {
    peer.mark_known(hash);
    if (!peer.send_frame(consensus::kP2pBlock, encoding)) return;
  }
}

void P2pNode::handle_block(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed block propagates to the reader loop, which
  // treats it as a protocol error and closes the connection.
  auto block = std::make_shared<const Block>(Block::decode(payload));
  peer.mark_known(block->id());
  submit_block(std::move(block), peer.session_id());
}

void P2pNode::handle_getblocks(Peer& peer, ByteSpan payload) {
  const GetBlocksMsg request = GetBlocksMsg::decode(payload);
  BlocksMsg response;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t max_blocks =
        std::min<std::size_t>(request.max_blocks, kMaxSyncBlocks);
    const auto range = serve_range(tree(), tracker().head(), request.locator,
                                   max_blocks, kSyncBatchBytes);
    response.blocks.reserve(range.size());
    for (const BlockPtr& block : range) {
      response.blocks.push_back(block->encode());
    }
  }
  live_.sync_requests_served->inc();
  live_.sync_blocks_served->inc(response.blocks.size());
  trace("sync_served", {obs::Field::u64("node", config_.id),
                        obs::Field::u64("remote", peer.remote().node_id),
                        obs::Field::u64("blocks", response.blocks.size())});
  peer.send_frame(consensus::kP2pBlocks, response.encode());
}

void P2pNode::handle_blocks(Peer& peer, ByteSpan payload) {
  const BlocksMsg batch = BlocksMsg::decode(payload);
  if (batch.blocks.empty()) {
    peer.sync_stalls.store(0, std::memory_order_relaxed);
    return;  // caught up with this peer
  }
  bool grew = false;
  for (const Bytes& raw : batch.blocks) {
    auto block = std::make_shared<const Block>(Block::decode(raw));
    peer.mark_known(block->id());
    grew = submit_block(std::move(block), peer.session_id()) || grew;
  }
  // A non-empty batch means the peer may hold more; page until drained.  A
  // fully-duplicate batch usually means our locator raced with blocks that
  // arrived from another peer mid-round, so retry with a fresh locator — but
  // only a bounded number of times, so a peer that keeps serving blocks we
  // already have cannot trap us in a request loop.
  if (grew) {
    peer.sync_stalls.store(0, std::memory_order_relaxed);
    request_sync(peer);
  } else if (peer.sync_stalls.fetch_add(1, std::memory_order_relaxed) <
             kMaxSyncStalls) {
    request_sync(peer);
  }
}

// ---------------------------------------------------------------------------
// Transaction relay
// ---------------------------------------------------------------------------

void P2pNode::handle_tx_inv(Peer& peer, ByteSpan payload) {
  const InvMsg inv = InvMsg::decode(payload);  // tx ids are Hash32 like blocks
  InvMsg want;
  const std::int64_t now = steady_ms();
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.tx_invs_received->inc(inv.hashes.size());
    for (const ledger::TxId& id : inv.hashes) {
      if (pool_.contains(id) || reconciler_.block_of(id).has_value()) {
        live_.tx_invs_redundant->inc();
        continue;
      }
      const auto it = requested_tx_.find(id);
      if (it != requested_tx_.end() && now - it->second < kRequestRetryMs) {
        continue;  // already being fetched from another announcer
      }
      requested_tx_[id] = now;
      want.hashes.push_back(id);
    }
  }
  for (const ledger::TxId& id : inv.hashes) peer.mark_known(id);
  if (!want.hashes.empty()) {
    peer.send_frame(consensus::kP2pGetTxData, want.encode());
  }
}

void P2pNode::handle_get_txdata(Peer& peer, ByteSpan payload) {
  const InvMsg request = InvMsg::decode(payload);
  // The whole requested set travels in one kP2pTxBatch frame (split only at
  // the frame ceiling), so the peer can admit it as a single batch with one
  // batched signature verification.
  TxBatchMsg batch;
  std::size_t batch_bytes = 0;
  constexpr std::size_t kBatchByteBudget = kMaxFramePayload / 2;
  std::uint64_t served = 0;
  const auto flush_batch = [&]() -> bool {
    if (batch.txs.empty()) return true;
    const bool sent = peer.send_frame(consensus::kP2pTxBatch, batch.encode());
    if (sent) served += batch.txs.size();
    batch.txs.clear();
    batch_bytes = 0;
    return sent;
  };
  for (const ledger::TxId& id : request.hashes) {
    const auto stx = pool_.get(id);
    if (!stx.has_value()) continue;  // confirmed or evicted: silently skip
    peer.mark_known(id);
    Bytes encoded = stx->encode();
    if (batch.txs.size() >= kMaxBatchTxs ||
        batch_bytes + encoded.size() > kBatchByteBudget) {
      if (!flush_batch()) break;
    }
    batch_bytes += encoded.size();
    batch.txs.push_back(std::move(encoded));
  }
  flush_batch();
  live_.txs_relayed->inc(served);
}

void P2pNode::handle_tx(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed transaction propagates to the reader loop,
  // which treats it as a protocol error and closes the connection (same
  // discipline as malformed blocks).
  const auto stx = ledger::SignedTransaction::decode(payload);
  const ledger::TxId id = stx.tx.id();
  peer.mark_known(id);
  live_.txs_received->inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    requested_tx_.erase(id);
  }
  accept_transaction(stx, peer.session_id());
}

void P2pNode::handle_tx_batch(Peer& peer, ByteSpan payload) {
  const TxBatchMsg batch = TxBatchMsg::decode(payload);
  if (batch.txs.empty()) return;
  std::vector<ledger::SignedTransaction> stxs;
  stxs.reserve(batch.txs.size());
  for (const Bytes& raw : batch.txs) {
    stxs.push_back(ledger::SignedTransaction::decode(raw));
  }
  live_.txs_received->inc(stxs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ledger::SignedTransaction& stx : stxs) {
      requested_tx_.erase(stx.tx.id());
    }
  }
  std::vector<AdmitRequest> requests(stxs.size());
  std::vector<AdmitRequest*> pointers;
  pointers.reserve(stxs.size());
  for (std::size_t i = 0; i < stxs.size(); ++i) {
    peer.mark_known(stxs[i].tx.id());
    requests[i].stx = &stxs[i];
    requests[i].source_session = peer.session_id();
    pointers.push_back(&requests[i]);
  }
  enqueue_and_settle(pointers);
}

void P2pNode::handle_ckpt_vote(Peer& peer, ByteSpan payload) {
  // DecodeError from a malformed vote propagates to the reader loop, which
  // treats it as a protocol error and closes the connection (same discipline
  // as malformed blocks and transactions).
  const CkptVoteMsg msg = CkptVoteMsg::decode(payload);
  const finality::CheckpointVote& vote = msg.vote;
  peer.mark_known(vote.vote_id());

  bool relay = false;
  bool forced = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ckpt_.has_value()) return;  // overlay disabled: tolerated frame
    live_.ckpt_votes_received->inc();
    const finality::VoteOutcome outcome = ckpt_->add_vote(vote);
    switch (outcome) {
      case finality::VoteOutcome::accepted:
      case finality::VoteOutcome::quorum:
        live_.ckpt_votes_accepted->inc();
        relay = true;
        break;
      case finality::VoteOutcome::duplicate:
      case finality::VoteOutcome::stale:
        break;  // benign gossip races, not protocol violations
      default:
        live_.ckpt_votes_rejected->inc();
        break;
    }
    if (outcome == finality::VoteOutcome::quorum) {
      live_.ckpt_certs_formed->inc();
      if (const finality::CheckpointCertificate* cert =
              ckpt_->certificate(vote.height)) {
        live_.cert_votes->set(static_cast<std::int64_t>(cert->voters.size()));
        if (tree().contains(cert->block)) {
          forced = apply_certificate_locked(*cert);
        } else {
          // Quorum outran the block (gossip reorders freely): park the
          // certificate and finalize when the block arrives.
          pending_certs_.push_back(*cert);
        }
      }
    }
  }
  // Accepted votes flood onward (suppressed per peer by vote_id), so a vote
  // reaches the whole consortium even across a sparse topology.
  if (relay) broadcast_votes({vote}, peer.session_id());
  if (forced) {
    chain_version_.fetch_add(1, std::memory_order_release);
    miner_cv_.notify_all();
    if (head_listener_) head_listener_(*this);
  }
}

TxAdmit P2pNode::submit_transaction(const ledger::SignedTransaction& stx) {
  return accept_transaction(stx, /*source_session=*/0);
}

std::vector<TxAdmit> P2pNode::submit_transactions(
    const std::vector<ledger::SignedTransaction>& stxs) {
  std::vector<AdmitRequest> requests(stxs.size());
  std::vector<AdmitRequest*> pointers;
  pointers.reserve(stxs.size());
  for (std::size_t i = 0; i < stxs.size(); ++i) {
    requests[i].stx = &stxs[i];
    pointers.push_back(&requests[i]);
  }
  if (!pointers.empty()) enqueue_and_settle(pointers);
  std::vector<TxAdmit> verdicts;
  verdicts.reserve(requests.size());
  for (const AdmitRequest& r : requests) verdicts.push_back(r.result);
  return verdicts;
}

TxAdmit P2pNode::accept_transaction(const ledger::SignedTransaction& stx,
                                    std::uint64_t source_session) {
  AdmitRequest req;
  req.stx = &stx;
  req.source_session = source_session;
  enqueue_and_settle({&req});
  return req.result;
}

void P2pNode::enqueue_and_settle(const std::vector<AdmitRequest*>& requests) {
  // Stamp before parking so the verify-stage latency includes combining-queue
  // wait (tx.id() is cached on the transaction; no hashing here).
  for (const AdmitRequest* r : requests) {
    stage_tracker_.stamp(r->stx->tx.id(), TxStage::submitted);
  }
  std::unique_lock<std::mutex> qlock(admit_mu_);
  for (AdmitRequest* r : requests) admit_queue_.push_back(r);
  if (admit_leader_active_) {
    // A leader is draining the queue; it will settle these requests too.
    admit_cv_.wait(qlock, [&] {
      return std::all_of(requests.begin(), requests.end(),
                         [](const AdmitRequest* r) { return r->done; });
    });
    return;
  }

  // Become the combining leader: drain the queue in batches until it is
  // empty.  The leader's own requests ride in the first batches; leadership
  // is released only under admit_mu_ so no enqueuer can slip between the
  // final empty-check and the release and wait forever.
  admit_leader_active_ = true;
  std::vector<AdmitRequest*> batch;
  while (!admit_queue_.empty()) {
    const std::size_t n =
        std::min(admit_queue_.size(), std::max<std::size_t>(config_.admit_batch_max, 1));
    batch.assign(admit_queue_.begin(),
                 admit_queue_.begin() + static_cast<std::ptrdiff_t>(n));
    admit_queue_.erase(admit_queue_.begin(),
                       admit_queue_.begin() + static_cast<std::ptrdiff_t>(n));
    qlock.unlock();
    process_admit_batch(batch);
    qlock.lock();
    for (AdmitRequest* r : batch) r->done = true;
    admit_cv_.notify_all();
  }
  admit_leader_active_ = false;
}

void P2pNode::process_admit_batch(const std::vector<AdmitRequest*>& batch) {
  obs::live::ScopedTimer admit_timer(live_.admit_batch);
  // Stage 1 — stateless checks, no locks: the key registry is immutable
  // after construction.
  for (AdmitRequest* r : batch) {
    const ledger::Transaction& tx = r->stx->tx;
    if (tx.sender() >= config_.n_nodes) {
      r->result = TxAdmit::unknown_sender;
    } else if (config_.use_signatures) {
      r->pub = registry_->lookup(tx.sender());
      if (!r->pub.has_value()) r->result = TxAdmit::unknown_sender;
    }
  }

  // Stage 2 — signature verification, still outside the consensus lock.
  // One random-linear-combination check covers the whole batch; if it fails,
  // fall back to per-item verification so only the forged items are charged.
  std::vector<AdmitRequest*> checking;
  std::vector<crypto::BatchVerifyItem> items;
  for (AdmitRequest* r : batch) {
    if (r->result != TxAdmit::accepted || !r->pub.has_value()) continue;
    checking.push_back(r);
    items.push_back({*r->pub, r->stx->tx.id(), r->stx->signature});
  }
  if (!checking.empty() && !crypto::verify_batch(items)) {
    for (std::size_t i = 0; i < checking.size(); ++i) {
      if (!crypto::verify(items[i].pub, items[i].msg, items[i].sig)) {
        checking[i]->result = TxAdmit::bad_signature;
      }
    }
  }
  for (const AdmitRequest* r : batch) {
    if (r->result == TxAdmit::accepted) {
      stage_tracker_.stamp(r->stx->tx.id(), TxStage::verified);
    }
  }

  // Stage 3 — stateful admission: one consensus-lock acquisition settles the
  // whole batch (confirmed-duplicate check, nonce window, pool insert,
  // stats).
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (AdmitRequest* r : batch) {
      TxAdmit& admit = r->result;
      const ledger::Transaction& tx = r->stx->tx;
      if (admit == TxAdmit::accepted) {
        if (reconciler_.block_of(tx.id()).has_value()) {
          admit = TxAdmit::known_confirmed;
        } else {
          const std::uint64_t next = state_.state_at(tree(), tracker().head())
                                         .account(tx.sender())
                                         .next_nonce;
          if (tx.nonce() < next) {
            admit = TxAdmit::stale_nonce;
          } else if (tx.nonce() >= next + config_.max_nonce_gap) {
            admit = TxAdmit::nonce_gap;
          } else if (!pool_.add(*r->stx)) {
            admit = TxAdmit::duplicate;
          } else {
            // Under mu_ on purpose: the miner also includes under mu_, so
            // the pooled stamp always precedes any inclusion stamp.
            stage_tracker_.stamp(tx.id(), TxStage::pooled);
          }
        }
      }
      live_.txs_submitted->inc();
      switch (admit) {
        case TxAdmit::accepted:
          live_.txs_accepted->inc();
          break;
        case TxAdmit::duplicate:
        case TxAdmit::known_confirmed:
          live_.txs_duplicate->inc();
          break;
        default:
          live_.txs_rejected->inc();
          break;
      }
    }
  }

  // Stage 4 — traces and one batched inventory announcement.
  std::vector<std::pair<ledger::TxId, std::uint64_t>> accepted;
  for (AdmitRequest* r : batch) {
    const ledger::Transaction& tx = r->stx->tx;
    if (r->result == TxAdmit::accepted) {
      trace("tx_accepted",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::u64("sender", tx.sender()),
             obs::Field::u64("nonce", tx.nonce()),
             obs::Field::boolean("rpc", r->source_session == 0)});
      accepted.emplace_back(tx.id(), r->source_session);
    } else {
      trace("tx_rejected",
            {obs::Field::u64("node", config_.id),
             obs::Field::str("id", short_hex(tx.id())),
             obs::Field::str("reason", std::string(to_string(r->result)))});
    }
  }
  if (!accepted.empty()) announce_txs(accepted);
}

void P2pNode::announce_txs(
    const std::vector<std::pair<ledger::TxId, std::uint64_t>>& accepted) {
  for (const auto& peer : peers_->ready_peers()) {
    InvMsg inv;
    for (const auto& [id, source_session] : accepted) {
      if (peer->session_id() == source_session) continue;
      if (!peer->mark_known(id)) continue;  // peer already has / was offered it
      inv.hashes.push_back(id);
    }
    if (!inv.hashes.empty()) {
      peer->send_frame(consensus::kP2pTxInv, inv.encode());
    }
  }
}

// ---------------------------------------------------------------------------
// Consensus core
// ---------------------------------------------------------------------------

bool P2pNode::replay_body_locked(const Block& block) {
  // Every transaction must apply cleanly in order.  A spent nonce or drained
  // balance here is a double-spend attempt smuggled into a block — reject
  // the whole block.  The replay runs on a copy-on-write overlay of the
  // parent snapshot, and the touched-account delta is cached so
  // materializing this block's state later costs a few account writes
  // instead of a second full replay.
  state::ScratchState scratch(
      state_.state_at(tree(), block.header().prev));
  for (const ledger::Transaction& tx : block.transactions()) {
    if (!applies_cleanly(scratch, tx)) return false;
  }
  state_.record_delta(block.id(), scratch.take_delta());
  return true;
}

bool P2pNode::submit_block(BlockPtr block, std::uint64_t source_session) {
  obs::live::ScopedTimer submit_timer(live_.block_submit);
  const BlockHash id = block->id();
  const std::uint64_t height = block->header().height;
  const ledger::NodeId producer = block->header().producer;
  std::vector<BlockHash> announce;
  std::vector<finality::CheckpointVote> votes;
  bool head_changed = false;
  bool reorged = false;
  std::uint64_t new_height = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const BlockHash old_head = tracker().head();
    if (source_session != 0) live_.blocks_received->inc();
    requested_.erase(id);
    const consensus::ChainCore::Result& result =
        core_.add_block(std::move(block));
    if (result.rejected != 0) live_.blocks_rejected->inc(result.rejected);
    if (result.orphans_dropped != 0) {
      live_.orphans_dropped->inc(result.orphans_dropped);
    }
    live_.orphan_blocks->set(static_cast<std::int64_t>(core_.orphan_count()));
    if (result.arrival == consensus::ChainCore::Arrival::duplicate) {
      if (source_session != 0) live_.blocks_duplicate->inc();
      return false;
    }
    if (result.arrival == consensus::ChainCore::Arrival::rejected) {
      obs::live::log_warn("chain", "block rejected",
                          {{"hash", short_hex(id)},
                           {"height", height},
                           {"producer", static_cast<std::uint64_t>(producer)}});
      return false;
    }
    // An orphan inserts nothing and leaves the update empty; the locator
    // round below fills its gap.
    for (const BlockPtr& b : result.inserted) {
      // Inclusion stamps before the reconcile below, so a confirm stamp
      // from the reconciler (same mu_ hold) is always later.
      for (const ledger::Transaction& tx : b->transactions()) {
        stage_tracker_.stamp(tx.id(), TxStage::included);
      }
      if (store_ != nullptr) store_->append(*b);
      announce.push_back(b->id());
    }
    head_changed = result.update.head_changed;
    reorged = result.update.reorg;
    if (result.update.below_finalized) live_.reorgs_refused_finality->inc();
    if (reorged) live_.reorgs->inc();
    if (head_changed) {
      live_.head_changes->inc();
      new_height = tracker().head_height();
      publish_chain_gauges_locked();
      reconcile_pool_locked(old_head);
      maybe_snapshot_locked();
    }
    // Finality overlay: an inserted block may be the one a parked quorum
    // certificate was waiting for, and a head advance may cross checkpoint
    // heights we have not voted on yet.
    if (ckpt_.has_value() && !announce.empty()) {
      if (drain_pending_certs_locked()) {
        // A parked certificate force-switched the head (the certified
        // branch had lost the local weight race until now).
        head_changed = true;
        reorged = true;
        new_height = tracker().head_height();
      }
      if (head_changed) maybe_vote_locked(votes);
    }
  }

  if (announce.empty()) {
    // Orphaned: chase the missing ancestry from whoever gave us the block.
    if (source_session != 0) {
      std::shared_ptr<Peer> source;
      for (const auto& peer : peers_->ready_peers()) {
        if (peer->session_id() == source_session) {
          source = peer;
          break;
        }
      }
      if (source != nullptr) request_sync(*source);
    }
    return false;
  }

  trace("block_accepted",
        {obs::Field::u64("node", config_.id),
         obs::Field::str("hash", short_hex(id)),
         obs::Field::u64("batch", announce.size()),
         obs::Field::boolean("mined", source_session == 0),
         obs::Field::boolean("reorg", reorged)});

  if (head_changed) {
    chain_version_.fetch_add(1, std::memory_order_release);
    miner_cv_.notify_all();
    trace("head_changed", {obs::Field::u64("node", config_.id),
                           obs::Field::u64("height", new_height),
                           obs::Field::boolean("reorg", reorged)});
    if (reorged) {
      obs::live::log_info("chain", "reorg",
                          {{"height", new_height}, {"hash", short_hex(id)}});
    } else {
      obs::live::log_debug("chain", "head changed",
                           {{"height", new_height},
                            {"hash", short_hex(id)},
                            {"mined", source_session == 0}});
    }
    if (head_listener_) head_listener_(*this);
  }

  // Our own checkpoint votes go to everyone (including the block's source).
  broadcast_votes(votes, /*exclude_session=*/0);

  // Inventory-based announcement: one inv per peer, restricted to hashes the
  // peer is not already known to have (the duplicate-suppression accounting
  // net/gossip models with its per-node seen sets).
  for (const auto& peer : peers_->ready_peers()) {
    if (peer->session_id() == source_session) continue;
    InvMsg inv;
    for (const BlockHash& h : announce) {
      if (peer->mark_known(h)) inv.hashes.push_back(h);
    }
    if (!inv.hashes.empty()) {
      peer->send_frame(consensus::kP2pInv, inv.encode());
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoint finality overlay
// ---------------------------------------------------------------------------

void P2pNode::broadcast_votes(
    const std::vector<finality::CheckpointVote>& votes,
    std::uint64_t exclude_session) {
  if (votes.empty()) return;
  for (const auto& peer : peers_->ready_peers()) {
    if (peer->session_id() == exclude_session) continue;
    for (const finality::CheckpointVote& vote : votes) {
      if (!peer->mark_known(vote.vote_id())) continue;
      if (!peer->send_frame(consensus::kP2pCkptVote,
                            CkptVoteMsg{vote}.encode())) {
        break;
      }
    }
  }
}

void P2pNode::maybe_vote_locked(std::vector<finality::CheckpointVote>& out) {
  if (!ckpt_.has_value() || !keypair_.has_value()) return;
  for (const consensus::ChainCore::Checkpoint& due : core_.checkpoints_due(
           ckpt_->interval(), ckpt_->finalized_height())) {
    const finality::CheckpointVote vote =
        ckpt_->make_vote(due.height, due.block, *keypair_, config_.id);
    const finality::VoteOutcome outcome = ckpt_->add_vote(vote);
    if (outcome != finality::VoteOutcome::accepted &&
        outcome != finality::VoteOutcome::quorum) {
      continue;
    }
    live_.ckpt_votes_sent->inc();
    out.push_back(vote);
    if (outcome == finality::VoteOutcome::quorum) {
      live_.ckpt_certs_formed->inc();
      // Our vote is for a block on the preferred path, so applying the
      // certificate can never force-switch the head here.
      if (const finality::CheckpointCertificate* cert =
              ckpt_->certificate(due.height)) {
        live_.cert_votes->set(static_cast<std::int64_t>(cert->voters.size()));
        apply_certificate_locked(*cert);
      }
    }
  }
}

bool P2pNode::apply_certificate_locked(
    const finality::CheckpointCertificate& cert) {
  // Defensive: a certificate whose claimed height disagrees with the tree
  // would poison the floors below — refuse it (>2/3 honest weight means a
  // formed certificate is consistent; this guards the invariant anyway).
  if (!tree().contains(cert.block) ||
      tree().height(cert.block) != cert.height) {
    obs::live::log_warn("finality", "certificate inconsistent with tree",
                        {{"height", cert.height},
                         {"hash", short_hex(cert.block)}});
    return false;
  }
  if (cert.height <= tracker().finalized_height()) return false;  // monotone

  const BlockHash old_head = tracker().head();
  // Every downstream floor keys off the hard anchor from here on: tree
  // aggregate pruning (in the core), state pins, pool confirmation
  // immutability, snapshots.
  const bool head_changed = core_.set_finalized(cert.block);
  publish_chain_gauges_locked();
  state_.set_finalized_floor(cert.height);
  reconciler_.set_finalized(cert.height, cert.block);
  if (head_changed) {
    // Hard finality outranked the local weight race: reconcile the pool with
    // the certified chain exactly as a reorg would.
    live_.reorgs->inc();
    live_.head_changes->inc();
    reconcile_pool_locked(old_head);
  }
  maybe_snapshot_locked();
  obs::live::log_info(
      "finality", "checkpoint finalized",
      {{"height", cert.height},
       {"hash", short_hex(cert.block)},
       {"votes", static_cast<std::uint64_t>(cert.voters.size())},
       {"forced", head_changed}});
  trace("checkpoint_finalized",
        {obs::Field::u64("node", config_.id),
         obs::Field::u64("height", cert.height),
         obs::Field::u64("votes", cert.voters.size()),
         obs::Field::boolean("forced", head_changed)});
  return head_changed;
}

bool P2pNode::drain_pending_certs_locked() {
  bool forced = false;
  auto it = pending_certs_.begin();
  while (it != pending_certs_.end()) {
    if (it->height <= tracker().finalized_height()) {
      it = pending_certs_.erase(it);  // superseded by a later checkpoint
    } else if (tree().contains(it->block)) {
      forced = apply_certificate_locked(*it) || forced;
      it = pending_certs_.erase(it);
    } else {
      ++it;
    }
  }
  return forced;
}

// ---------------------------------------------------------------------------
// Miner
// ---------------------------------------------------------------------------

void P2pNode::mine_loop() {
  t_mining_node = this;
  Rng rng(config_.rng_seed * 0x2545f4914f6cdd1dULL + config_.id + 1);
  while (!stopping_.load()) {
    {
      // The enabled check and the parked flag change together under
      // miner_mu_, so set_mining(false) cannot see a stale "parked".
      std::unique_lock<std::mutex> lock(miner_mu_);
      miner_parked_ = !mining_enabled_.load();
      if (miner_parked_) {
        miner_cv_.notify_all();
        miner_cv_.wait_for(lock, std::chrono::milliseconds(200));
        continue;
      }
    }

    // Snapshot the mining target under the consensus lock.
    ledger::BlockHeader header;
    std::vector<ledger::Transaction> body;
    std::uint64_t version;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const BlockHash parent = tracker().head();
      header.height = tree().height(parent) + 1;
      header.prev = parent;
      header.producer = config_.id;
      header.epoch = core_.policy().epoch_for(tree(), parent);
      header.difficulty =
          core_.policy().difficulty_for(tree(), parent, config_.id);
      // Fill the candidate body from the pool (§III: "pick transactions from
      // the transaction pool"), replaying each candidate against a
      // copy-on-write overlay of the parent state so the block carries no
      // double-spend and a sender's queued nonce chain fits into a single
      // block.
      state::ScratchState scratch(state_.state_at(tree(), parent));
      body = pool_.select(config_.max_block_txs,
                          [&scratch](const ledger::Transaction& tx) {
                            return applies_cleanly(scratch, tx);
                          });
      std::vector<ledger::TxId> tx_ids;
      tx_ids.reserve(body.size());
      for (const ledger::Transaction& tx : body) tx_ids.push_back(tx.id());
      header.tx_count = static_cast<std::uint32_t>(body.size());
      header.merkle_root = crypto::merkle_root(tx_ids);
      version = chain_version_.load(std::memory_order_acquire);
    }
    header.timestamp_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count();
    std::uint64_t nonce = rng.next_u64();

    // Grind in chunks; between chunks re-check for head changes (memoryless:
    // restarting the search loses nothing statistically) and stop requests.
    while (!stopping_.load() && mining_enabled_.load() &&
           chain_version_.load(std::memory_order_acquire) == version) {
      const auto solved = RealMiner::mine(header, nonce, config_.mine_chunk);
      if (!solved.has_value()) {
        nonce += config_.mine_chunk;
        if (nonce > UINT64_MAX - config_.mine_chunk) nonce = rng.next_u64();
        continue;
      }
      crypto::Signature signature{};
      if (keypair_.has_value()) signature = keypair_->sign(solved->hash());
      auto block =
          std::make_shared<const Block>(*solved, signature, std::move(body));
      live_.blocks_produced->inc();
      obs::live::log_debug(
          "miner", "block mined",
          {{"hash", short_hex(block->id())},
           {"height", solved->height},
           {"txs", static_cast<std::uint64_t>(block->transactions().size())}});
      trace("block_mined", {obs::Field::u64("node", config_.id),
                            obs::Field::str("hash", short_hex(block->id())),
                            obs::Field::u64("height", solved->height),
                            obs::Field::u64("txs", block->transactions().size())});
      submit_block(std::move(block), /*source_session=*/0);
      break;  // resample against the (possibly new) head
    }
  }
  {
    std::lock_guard<std::mutex> lock(miner_mu_);
    miner_parked_ = true;
  }
  miner_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

BlockHash P2pNode::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracker().head();
}

std::uint64_t P2pNode::head_height() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracker().head_height();
}

std::uint64_t P2pNode::tree_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tree().subtree_size(tree().genesis_hash());
}

std::uint64_t P2pNode::store_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ != nullptr ? store_->size() : 0;
}

bool P2pNode::contains(const BlockHash& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tree().contains(id);
}

P2pNode::ChainStats P2pNode::chain_stats() const {
  const auto gauge = [](const obs::live::Gauge* g) {
    return static_cast<std::uint64_t>(g->get());
  };
  ChainStats s;
  s.blocks_produced = live_.blocks_produced->get();
  s.blocks_rejected = live_.blocks_rejected->get();
  s.reorgs = live_.reorgs->get();
  s.invs_received = live_.invs_received->get();
  s.invs_redundant = live_.invs_redundant->get();
  s.blocks_received = live_.blocks_received->get();
  s.blocks_duplicate = live_.blocks_duplicate->get();
  s.orphans_buffered = gauge(live_.orphan_blocks);
  s.orphans_dropped = live_.orphans_dropped->get();
  s.sync_requests_served = live_.sync_requests_served->get();
  s.sync_blocks_served = live_.sync_blocks_served->get();
  s.sync_rounds = live_.sync_rounds->get();
  s.store_replayed = gauge(live_.store_replayed);
  s.snapshots_written = live_.snapshots_written->get();
  s.snapshot_height = gauge(live_.snapshot_height);
  s.blocks_pruned = live_.blocks_pruned->get();
  s.restored_from_snapshot = live_.restored_from_snapshot->get() != 0;
  s.finalized_height = gauge(live_.finalized_height);
  s.ckpt_votes_sent = live_.ckpt_votes_sent->get();
  s.ckpt_votes_received = live_.ckpt_votes_received->get();
  s.ckpt_votes_accepted = live_.ckpt_votes_accepted->get();
  s.ckpt_votes_rejected = live_.ckpt_votes_rejected->get();
  s.ckpt_certs_formed = live_.ckpt_certs_formed->get();
  s.reorgs_refused_finality = live_.reorgs_refused_finality->get();
  s.txs_submitted = live_.txs_submitted->get();
  s.txs_accepted = live_.txs_accepted->get();
  s.txs_rejected = live_.txs_rejected->get();
  s.txs_duplicate = live_.txs_duplicate->get();
  s.txs_relayed = live_.txs_relayed->get();
  s.tx_invs_received = live_.tx_invs_received->get();
  s.tx_invs_redundant = live_.tx_invs_redundant->get();
  s.txs_received = live_.txs_received->get();
  s.txs_confirmed = live_.txs_confirmed->get();
  s.txs_returned = live_.txs_returned->get();
  s.txs_purged = live_.txs_purged->get();
  return s;
}

double P2pNode::uptime_seconds() const {
  if (!started_.load(std::memory_order_relaxed)) return 0.0;
  return static_cast<double>(wall_nanos()) / 1e9;
}

bool P2pNode::ready() const {
  return started_.load(std::memory_order_relaxed) &&
         (config_.peers.empty() || peers_->ready_peer_count() > 0);
}

double P2pNode::redundant_announce_ratio() const {
  const ChainStats s = chain_stats();
  return s.invs_received == 0
             ? 0.0
             : static_cast<double>(s.invs_redundant) /
                   static_cast<double>(s.invs_received);
}

P2pNode::TxStatusInfo P2pNode::tx_status(const ledger::TxId& id) const {
  TxStatusInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto block_hash = reconciler_.block_of(id);
    if (block_hash.has_value()) {
      info.state = TxStatusInfo::State::confirmed;
      info.block = *block_hash;
      info.block_height = tree().height(*block_hash);
      const std::uint64_t head_height = tracker().head_height();
      info.confirmations = head_height >= info.block_height
                               ? head_height - info.block_height + 1
                               : 0;
      for (const ledger::Transaction& tx :
           tree().block(*block_hash)->transactions()) {
        if (tx.id() == id) {
          info.tx = tx;
          break;
        }
      }
      return info;
    }
  }
  const auto pending = pool_.get(id);
  if (pending.has_value()) {
    info.state = TxStatusInfo::State::pending;
    info.tx = pending->tx;
  }
  return info;
}

P2pNode::AccountInfo P2pNode::account_info(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const state::Account& account =
      state_.state_at(tree(), tracker().head()).account(id);
  return AccountInfo{account.balance, account.next_nonce};
}

const Hash32& P2pNode::ensure_root_locked() const {
  const ledger::BlockHash head = tracker().head();
  if (root_valid_ && root_head_ == head) return root_cache_.root();
  const state::LedgerState& state = state_.state_at(tree(), head);
  // Incremental path: if the previous root head is an ancestor within a
  // short parent walk and every block in between recorded a validation
  // delta, only the pages those deltas touched need re-hashing.  A reorg
  // (old head not an ancestor) or a missing delta falls back to a full
  // rebuild, so the cache can never serve a stale root.
  static constexpr std::size_t kMaxIncrementalWalk = 64;
  bool incremental = false;
  std::vector<ledger::NodeId> touched;
  if (root_valid_) {
    ledger::BlockHash cursor = head;
    for (std::size_t steps = 0; steps <= kMaxIncrementalWalk; ++steps) {
      if (cursor == root_head_) {
        incremental = true;
        break;
      }
      const state::StateDelta* delta = state_.delta(cursor);
      if (delta == nullptr) break;
      for (const auto& [id, account] : delta->accounts) touched.push_back(id);
      const auto parent = tree().parent(cursor);
      if (!parent.has_value()) break;
      cursor = *parent;
    }
  }
  if (incremental) {
    root_cache_.update(state, touched);
  } else {
    root_cache_.rebuild(state);
  }
  root_head_ = head;
  root_valid_ = true;
  return root_cache_.root();
}

Hash32 P2pNode::head_state_root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ensure_root_locked();
}

UInt128 P2pNode::total_supply() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.state_at(tree(), tracker().head()).total_supply();
}

P2pNode::BalanceProof P2pNode::balance_proof(ledger::NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  BalanceProof result;
  result.head = tracker().head();
  result.height = tracker().head_height();
  result.state_root = ensure_root_locked();
  const state::LedgerState& state = state_.state_at(tree(), result.head);
  result.account = state.account(id);
  // The root cache already holds every page hash for the head, so proof
  // construction only encodes the one target page instead of re-hashing the
  // whole state (prove_account's O(accounts) path).
  const std::uint32_t page = state::authstate::page_of(id);
  const std::uint32_t page_count = root_cache_.page_count();
  result.proof.page = page;
  result.proof.page_count = page_count;
  if (page < page_count) {
    result.available = true;
    result.proof.page_bytes = state::authstate::encode_page(state, page);
    result.proof.steps = crypto::merkle_prove(root_cache_.page_hashes(), page);
  }
  return result;
}

void P2pNode::reconcile_pool_locked(const BlockHash& old_head) {
  const auto rec = reconciler_.on_head_change(
      tree(), old_head, tracker().head(), pool_,
      state_.state_at(tree(), tracker().head()));
  live_.txs_confirmed->inc(rec.confirmed);
  live_.txs_returned->inc(rec.returned);
  live_.txs_purged->inc(rec.purged);
}

void P2pNode::maybe_snapshot_locked() {
  if (config_.snapshot_interval == 0 || config_.datadir.empty()) return;
  const std::uint64_t anchor_height = tracker().anchor_height();
  if (anchor_height < last_snapshot_height_ + config_.snapshot_interval) {
    return;
  }
  const ledger::BlockHash anchor = tracker().anchor();
  state::authstate::Snapshot snap;
  snap.height = anchor_height;
  snap.block = anchor;
  snap.state = state_.state_at(tree(), anchor);
  if (!state::authstate::write_snapshot(config_.datadir / "state.snap",
                                        snap)) {
    obs::live::log_warn("chain", "snapshot write failed",
                        {{"height", anchor_height}});
    return;
  }
  // Pin the anchor state so the next snapshot replays only the interval
  // since this one, not the whole chain from the tree root.
  state_.pin_anchor(tree(), anchor);
  last_snapshot_height_ = anchor_height;
  live_.snapshot_height->set(static_cast<std::int64_t>(anchor_height));
  live_.snapshots_written->inc();
  obs::live::log_info(
      "chain", "snapshot written",
      {{"height", anchor_height},
       {"accounts", static_cast<std::uint64_t>(snap.state.accounts().size())}});
  if (config_.prune && store_ != nullptr) {
    const std::size_t removed = store_->prune_below(anchor_height);
    live_.blocks_pruned->inc(removed);
    if (removed > 0) {
      obs::live::log_info("chain", "pruned block store",
                          {{"below", anchor_height},
                           {"removed", static_cast<std::uint64_t>(removed)}});
    }
  }
}

std::optional<P2pNode::BlockInfo> P2pNode::block_info(
    const ledger::BlockHash& hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tree().contains(hash)) return std::nullopt;
  BlockInfo info;
  info.block = tree().block(hash);
  info.on_main_chain = tree().is_ancestor(hash, tracker().head());
  if (info.on_main_chain) {
    info.confirmations = tracker().head_height() - tree().height(hash) + 1;
  }
  return info;
}

std::optional<P2pNode::BlockInfo> P2pNode::block_info_at(
    std::uint64_t height) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t head_height = tracker().head_height();
  if (height > head_height) return std::nullopt;
  BlockHash cursor = tracker().head();
  for (std::uint64_t h = head_height; h > height; --h) {
    const auto parent = tree().parent(cursor);
    if (!parent.has_value()) return std::nullopt;
    cursor = *parent;
  }
  BlockInfo info;
  info.block = tree().block(cursor);
  info.on_main_chain = true;
  info.confirmations = head_height - height + 1;
  return info;
}

P2pNode::FinalityInfo P2pNode::finality_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  FinalityInfo info;
  info.enabled = ckpt_.has_value();
  info.head_height = tracker().head_height();
  if (!ckpt_.has_value()) return info;
  info.interval = ckpt_->interval();
  info.finalized_height = tracker().finalized_height();
  info.lag = info.head_height > info.finalized_height
                 ? info.head_height - info.finalized_height
                 : 0;
  if (const finality::CheckpointCertificate* cert =
          ckpt_->certificate(info.finalized_height)) {
    info.finalized_block = cert->block;
    info.latest_votes = cert->voters.size();
  }
  return info;
}

std::optional<finality::CheckpointCertificate> P2pNode::checkpoint_certificate(
    std::uint64_t height) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ckpt_.has_value()) return std::nullopt;
  const finality::CheckpointCertificate* cert = ckpt_->certificate(height);
  if (cert == nullptr) return std::nullopt;
  return *cert;
}

std::uint64_t P2pNode::next_nonce_hint(ledger::NodeId sender) const {
  std::uint64_t state_next = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_next =
        state_.state_at(tree(), tracker().head()).account(sender).next_nonce;
  }
  return pool_.next_nonce_hint(sender, state_next);
}

}  // namespace themis::p2p
