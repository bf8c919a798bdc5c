#include "obs/live/stage_tracker.h"

#include <algorithm>

namespace themis::obs::live {

std::string_view to_string(TxStage stage) {
  switch (stage) {
    case TxStage::submitted: return "submitted";
    case TxStage::verified: return "verified";
    case TxStage::pooled: return "pooled";
    case TxStage::included: return "included";
    case TxStage::confirmed: return "confirmed";
  }
  return "unknown";
}

StageTracker::StageTracker(Registry& registry, std::size_t capacity)
    : per_shard_capacity_(std::max<std::size_t>(1, capacity / kShards)) {
  transition_[static_cast<std::size_t>(TxStage::verified)] =
      &registry.histogram(
          "themis_tx_stage_verify_seconds",
          "Admission latency: submit to signature-verified.");
  transition_[static_cast<std::size_t>(TxStage::pooled)] = &registry.histogram(
      "themis_tx_stage_pool_seconds",
      "Admission latency: signature-verified to pool insert.");
  transition_[static_cast<std::size_t>(TxStage::included)] =
      &registry.histogram(
          "themis_tx_stage_inclusion_seconds",
          "Pool wait: pool insert to inclusion in an accepted block.");
  transition_[static_cast<std::size_t>(TxStage::confirmed)] =
      &registry.histogram(
          "themis_tx_stage_confirm_seconds",
          "Confirmation latency from the latest earlier stage reached.");
  end_to_end_ = &registry.histogram(
      "themis_tx_e2e_seconds",
      "End-to-end transaction latency: submit to main-chain confirmation.");
}

void StageTracker::stamp(const Hash32& id, TxStage stage) {
  const std::uint64_t now = monotonic_ns();
  const auto s = static_cast<std::size_t>(stage);
  std::uint64_t latency_from_prev = 0;
  std::uint64_t latency_e2e = 0;
  bool recorded = false;
  {
    Shard& shard = shard_for(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.by_id.try_emplace(id);
    if (inserted) {
      shard.fifo.push_back(id);
      if (shard.fifo.size() > per_shard_capacity_) {
        shard.by_id.erase(shard.fifo.front());
        shard.fifo.pop_front();
        // The new entry could itself have been evicted on a pathological
        // shard; re-check so `it` stays valid.
        if (!shard.by_id.contains(id)) return;
      }
    }
    Stamps& stamps = it->second;
    if (stamps[s] != 0) return;  // first arrival wins
    stamps[s] = now;
    // Latest earlier stage actually reached, if any.
    for (std::size_t prev = s; prev-- > 0;) {
      if (stamps[prev] != 0) {
        latency_from_prev = now - stamps[prev];
        recorded = true;
        break;
      }
    }
    if (stage == TxStage::confirmed &&
        stamps[static_cast<std::size_t>(TxStage::submitted)] != 0) {
      latency_e2e =
          now - stamps[static_cast<std::size_t>(TxStage::submitted)];
    }
  }
  stamped_.fetch_add(1, std::memory_order_relaxed);
  if (recorded && transition_[s] != nullptr) {
    transition_[s]->record_ns(latency_from_prev);
  }
  if (stage == TxStage::confirmed && latency_e2e != 0) {
    end_to_end_->record_ns(latency_e2e);
  }
}

std::optional<StageTracker::Stamps> StageTracker::stamps(
    const Hash32& id) const {
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.by_id.find(id);
  if (it == shard.by_id.end()) return std::nullopt;
  return it->second;
}

}  // namespace themis::obs::live
