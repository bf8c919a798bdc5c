#include "consensus/node.h"

#include "common/check.h"
#include "consensus/wire.h"
#include "crypto/merkle.h"

namespace themis::consensus {

using ledger::Block;
using ledger::BlockHash;
using ledger::BlockPtr;

PowNode::PowNode(net::Simulation& sim, net::GossipNetwork& network,
                 NodeConfig config, std::shared_ptr<ForkChoiceRule> rule,
                 std::shared_ptr<DifficultyPolicy> policy,
                 std::shared_ptr<const KeyRegistry> registry)
    : sim_(sim),
      network_(network),
      config_(config),
      // Bodies are real only on the real-PoW path, so check_pow gates both.
      core_(std::move(rule), std::move(policy), std::move(registry),
            config.finality_depth,
            ChainCore::Checks{.signature = config.use_signatures,
                              .pow = config.check_pow,
                              .body = config.check_pow}),
      rng_(config.rng_seed) {
  expects(config_.n_nodes >= 2, "consensus needs at least two nodes");
  expects(config_.id < config_.n_nodes, "node id out of range");
  if (config_.use_signatures) {
    keypair_ = crypto::Keypair::from_node_id(config_.id);
  }

  obs_ = sim_.obs();
  if (obs_ != nullptr) {
    prof_mine_ = &obs_->profiler.scope("consensus.mine_block");
    prof_accept_ = &obs_->profiler.scope("consensus.accept_block");
    core_.set_head_update_profile(
        &obs_->profiler.scope("consensus.update_head"));
    reorg_depths_ = &obs_->counters.histogram("consensus.reorg_depth");
  }
}

void PowNode::start() {
  expects(!started_, "node already started");
  started_ = true;
  network_.set_handler(config_.id,
                       [this](net::PeerId, const net::Message& msg) { on_message(msg); });
  restart_mining();
}

void PowNode::stop() {
  if (mining_event_ != 0) {
    sim_.cancel(mining_event_);
    mining_event_ = 0;
  }
  ++mining_generation_;
}

void PowNode::restart_mining() {
  if (!started_) return;
  if (mining_event_ != 0) sim_.cancel(mining_event_);
  const std::uint64_t generation = ++mining_generation_;
  const double difficulty =
      core_.policy().difficulty_for(tree(), head(), config_.id);
  const SimTime wait =
      SimMiner::sample_block_time(rng_, config_.hash_rate, difficulty);
  mining_event_ = sim_.schedule_after(
      wait, [this, generation] { on_block_found(generation); });
}

void PowNode::on_block_found(std::uint64_t generation) {
  if (generation != mining_generation_) return;  // stale draw
  mining_event_ = 0;
  obs::ProfileScope profile(prof_mine_);

  ledger::BlockHeader header;
  header.height = head_height() + 1;
  header.prev = head();
  header.producer = config_.id;
  header.epoch = core_.policy().epoch_for(tree(), head());
  header.difficulty = core_.policy().difficulty_for(tree(), head(), config_.id);
  header.timestamp_nanos = sim_.now().count_nanos();
  header.nonce = rng_.next_u64();
  header.tx_count = config_.txs_per_block;

  // Simulated blocks carry no body: tx_count declares the size only (see
  // BlockHeader::tx_count).
  if (config_.check_pow) header.merkle_root = crypto::merkle_root({});

  crypto::Signature signature{};
  if (keypair_.has_value()) signature = keypair_->sign(header.hash());

  auto block = std::make_shared<const Block>(
      header, signature, std::vector<ledger::Transaction>{});
  ++blocks_produced_;

  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.emit(
        sim_.now(), "block_mined",
        {obs::Field::u64("node", config_.id),
         obs::Field::str("hash", short_hex(block->id())),
         obs::Field::u64("height", header.height),
         obs::Field::u64("epoch", header.epoch),
         obs::Field::f64("diff", header.difficulty),
         obs::Field::boolean("suppressed", suppressed_)});
  }

  if (suppressed_) {
    // §VII-A vulnerable node: elected producer, but the attack keeps its
    // block out of the network.  The node loses this round's work and keeps
    // mining on the unchanged head.
    ++blocks_suppressed_;
    restart_mining();
    return;
  }

  add_block(block);
  network_.broadcast(config_.id, kBlockAnnounce, announce_size(*block), block);
  // add_block() already restarted mining via the head change; if our own
  // block somehow lost the fork choice, make sure mining still continues.
  if (mining_event_ == 0) restart_mining();
}

std::size_t PowNode::announce_size(const ledger::Block& block) const {
  if (config_.announce_bytes_per_tx < 0) return block.size_bytes();
  const double compact =
      192.0 + config_.announce_bytes_per_tx * block.header().tx_count;
  return static_cast<std::size_t>(compact);
}

void PowNode::on_message(const net::Message& msg) {
  if (msg.type != kBlockAnnounce) return;
  const auto* payload = std::any_cast<BlockPtr>(&msg.payload);
  if (payload == nullptr || *payload == nullptr) return;
  const BlockPtr& block = *payload;
  if (obs_ != nullptr && obs_->tracer.enabled() &&
      !tree().contains(block->id())) {
    obs_->tracer.emit(sim_.now(), "block_received",
                      {obs::Field::u64("node", config_.id),
                       obs::Field::str("hash", short_hex(block->id())),
                       obs::Field::u64("height", block->header().height),
                       obs::Field::u64("producer", block->header().producer)});
  }
  add_block(block);
}

void PowNode::add_block(BlockPtr block) {
  obs::ProfileScope profile(prof_accept_);
  const ChainCore::Result& result = core_.add_block(std::move(block));
  blocks_rejected_ += result.rejected;
  const HeadTracker::Update& update = result.update;
  if (update.reorg && obs_ != nullptr) {
    reorg_depths_->record(static_cast<double>(update.reorg_depth));
    if (obs_->tracer.enabled()) {
      obs_->tracer.emit(sim_.now(), "reorg",
                        {obs::Field::u64("node", config_.id),
                         obs::Field::u64("depth", update.reorg_depth),
                         obs::Field::str("new_head", short_hex(head())),
                         obs::Field::u64("height", head_height())});
    }
  }
  if (update.head_changed) {
    if (obs_ != nullptr && obs_->tracer.enabled()) {
      obs_->tracer.emit(sim_.now(), "block_adopted",
                        {obs::Field::u64("node", config_.id),
                         obs::Field::str("hash", short_hex(head())),
                         obs::Field::u64("height", head_height()),
                         obs::Field::boolean("reorg", update.reorg)});
    }
    restart_mining();
    if (head_listener_) head_listener_(*this);
  }
}

}  // namespace themis::consensus
