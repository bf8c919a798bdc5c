// The simulator's fixed input, run after the live nodes have stopped: the
// fig6 shape (uniform power, beta=8, 4 s interval, Themis/GEOST) at n=400
// to height 17 (one certified checkpoint) with the FinalityOverlay at k=16,
// one draw thread, one trial.
// The input is fixed (its own seed, not the run's), so sim_s_per_wall_s
// compares like with like across runs; it is repeated a few times and the
// event, block and stale counts must repeat exactly.
#include <optional>
#include <vector>

#include "harness.h"
#include "sim/experiment.h"
#include "sim/finality_overlay.h"
#include "sim/power_dist.h"

namespace perfbench {

using namespace themis;

namespace {

constexpr std::size_t kSimNodes = 400;
constexpr std::uint64_t kSimHeight = 17;
constexpr std::uint64_t kSimInterval = 16;
constexpr std::uint64_t kSimSeed = 1;

}  // namespace

// Three short repetitions: the median rides out a second or two of host
// slowdown.  More would not help against slow phases that last minutes, and
// each adds ~2.5 s to every run.
int sim_reps(const Options& opt) { return opt.tiny ? 2 : 3; }

SimReport run_sim_phase(const Options& opt, Tracer& tracer, Outcome& outcome) {
  const std::size_t n = opt.tiny ? 40 : kSimNodes;
  const std::uint64_t height = opt.tiny ? 17 : kSimHeight;
  const ScopedSpan phase(tracer, "sim");
  std::vector<double> rates, builds, ns_per_event;
  SimReport r;
  for (int rep = 0; rep < sim_reps(opt); ++rep) {
    sim::PoxConfig config;
    config.algorithm = core::Algorithm::kThemis;
    config.n_nodes = n;
    config.hash_rates = sim::uniform_power(n, config.h0);
    config.beta = 8;
    config.expected_interval_s = 4.0;
    config.txs_per_block = 4096;
    config.seed = kSimSeed;
    config.draw_threads = 1;

    const auto t0 = Clock::now();
    std::optional<ScopedSpan> build_span;
    build_span.emplace(tracer, "sim.build", phase.id());
    sim::PoxExperiment exp(config);
    std::vector<consensus::PowNode*> nodes;
    nodes.reserve(exp.size());
    for (std::size_t i = 0; i < exp.size(); ++i) nodes.push_back(&exp.node(i));
    sim::FinalityOverlayConfig oc;
    oc.interval = kSimInterval;
    sim::FinalityOverlay overlay(exp.simulation(), exp.network(),
                                 std::move(nodes), oc);
    overlay.attach();
    build_span.reset();
    const auto t1 = Clock::now();
    {
      const ScopedSpan run_span(tracer, "sim.run", phase.id());
      exp.run_to_height(height, SimTime::seconds(1e7));
    }
    const double wall = seconds_since(t1);
    builds.push_back(std::chrono::duration<double>(t1 - t0).count());

    const std::uint64_t events = exp.simulation().events_processed();
    const metrics::ForkStats forks = exp.fork_stats();
    if (rep == 0) {
      r.events = events;
      r.blocks = forks.total_blocks;
      r.stale = forks.stale_blocks;
      r.gossip_delivered = exp.network().messages_delivered();
      r.redundant_push_ratio = exp.network().redundant_push_ratio();
      r.pending_peak = exp.simulation().queue_stats().peak_live;
      r.stale_ratio = forks.total_blocks == 0
                          ? 0.0
                          : static_cast<double>(forks.stale_blocks) /
                                static_cast<double>(forks.total_blocks);
    } else {
      outcome.check(events == r.events && forks.total_blocks == r.blocks &&
                        forks.stale_blocks == r.stale,
                    "simulator counts differ between repetitions of one seed");
    }
    outcome.check(overlay.metrics().certificates > 0,
                  "simulated finality overlay formed no certificate");
    rates.push_back(exp.elapsed().to_seconds() / wall);
    ns_per_event.push_back(wall * 1e9 / static_cast<double>(events));
  }
  r.sim_s_per_wall_s = median(rates);
  r.build_s = median(builds);
  r.ns_per_event = median(ns_per_event);
  return r;
}

}  // namespace perfbench
