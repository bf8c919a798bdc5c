// Run-wide counter / histogram / series registry.
//
// One Counters instance accumulates everything a run wants to report:
// named monotone counters (gossip deliveries, rejected blocks), value
// histograms (reorg depths, block intervals), per-epoch series (difficulty
// snapshots) and a per-link traffic matrix.  Registries use ordered maps so
// reports iterate deterministically.
//
// Hot paths that bump a counter per event should cache the reference (or the
// Histogram pointer) once instead of paying the string lookup every time —
// PowNode resolves its reorg-depth histogram and profiling scopes once in
// its constructor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace themis::obs {

/// Exact-value histogram sized for simulation runs: keeps every sample and
/// sorts a separate copy on demand for percentiles.  (Runs record at most a
/// few hundred thousand samples; exactness beats bucketing error here.)
///
/// values() preserves insertion order: percentile()/min()/max() sort a
/// lazily-maintained copy, never the sample vector itself, so a caller
/// iterating or serializing values() cannot have the order shuffled out from
/// under it by an interleaved percentile query.
class Histogram {
 public:
  void record(double value) {
    values_.push_back(value);
    sorted_valid_ = false;
  }

  std::size_t count() const { return values_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  /// Nearest-rank percentile, p in [0, 100].  0 for an empty histogram.
  double percentile(double p) const;

  /// Samples in insertion order (stable across percentile queries).
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  const std::vector<double>& sorted() const {
    if (!sorted_valid_) {
      sorted_ = values_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    return sorted_;
  }
};

/// Per-directed-link traffic accumulator.
struct LinkStat {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Counters {
 public:
  /// Find-or-create; the returned reference stays valid for the registry's
  /// lifetime (std::map nodes are stable).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  /// Ordered per-epoch (or per-anything) value series.
  std::vector<double>& series(const std::string& name) { return series_[name]; }
  LinkStat& link(std::uint32_t from, std::uint32_t to) {
    return links_[{from, to}];
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }
  const std::map<std::pair<std::uint32_t, std::uint32_t>, LinkStat>& links()
      const {
    return links_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkStat> links_;
};

}  // namespace themis::obs
