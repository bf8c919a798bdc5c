// perfbench driver:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work <dir>] [--tiny] [--inject tamper_proof|drop_tx|read_error]
//             [--setup-reps <n>]
//
// Set-up (inputs, pre-built state, booting the nodes) runs several times and
// its median is setup_s; then the live window and the restart cycles, and
// in the traced run the replays and the simulator phase.  stdout ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}; metrics are the
// end-to-end ones untraced and the per-layer ones traced.  A human-readable
// table, the provenance and any failed output check go to stderr.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "harness.h"
#include "live.h"

using namespace perfbench;

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
    "                 [--work <dir>] [--tiny]\n"
    "                 [--inject tamper_proof|drop_tx|read_error]\n"
    "                 [--setup-reps <n>]\n";

/// Closed-loop writers are sized for this many transactions per second.  The
/// writer on the mining node runs ahead of the other two, so each sender is
/// sized for half of it.  A program fast enough to exhaust a sender's inputs
/// is measured over a window that ends when they run out (see Window).
constexpr double kClosedLoopTpsCeiling = 6000.0;

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--tiny" && i + 1 < argc) {
      value = argv[++i];
    }
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = std::stoi(value) != 0;
      else if (arg == "--work") opt.work = value;
      else if (arg == "--inject") opt.inject = value;
      else if (arg == "--setup-reps") opt.setup_reps = std::stoi(value);
      else if (arg == "--tiny") opt.tiny = true;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0 && opt.setup_reps >= 0 &&
         (opt.inject.empty() || opt.inject == "tamper_proof" ||
          opt.inject == "drop_tx" || opt.inject == "read_error");
}

double hist_ms(const Tally& t, const std::string& name, double q) {
  const auto it = t.hists.find(name);
  return it == t.hists.end() ? 0.0 : it->second.quantile_ns(q) / 1e6;
}

double counter(const Tally& t, const std::string& name) {
  const auto it = t.counters.find(name);
  return it == t.counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Failed operations are +infinity; JSON has no infinity, so they print as
/// this sentinel (any failure also makes the run incorrect).
constexpr double kFailedSentinel = 1e12;

std::string number(double v) {
  if (!std::isfinite(v)) v = kFailedSentinel;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << kUsage;
    return 2;
  }
  const Workload* wp = find_workload(opt.workload);
  if (wp == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'; one of:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  const Workload& w = *wp;
  if (opt.work.empty()) opt.work = fs::path(".bench_build") / "work";
  opt.work /= w.name + "-" + std::to_string(opt.seed);
  fs::remove_all(opt.work);
  fs::create_directories(opt.work);

  Tracer tracer(opt.trace);
  Outcome outcome;

  // --- set-up, repeated; the last repetition's network is kept -------------------
  const double span_s = opt.seconds + 2.0;  // warm-up plus slack
  const std::size_t txs_per_sender =
      w.closed_loop
          ? static_cast<std::size_t>(kClosedLoopTpsCeiling / 2 * span_s) +
                w.window
          : static_cast<std::size_t>(w.write_rate / kNodes * span_s * 1.2) +
                w.batch;
  const std::size_t reads = static_cast<std::size_t>(w.read_rate * span_s) + 16;
  const int setup_reps = opt.setup_reps > 0 ? opt.setup_reps : opt.tiny ? 2 : 3;
  // Wall time of each phase, printed on stderr.
  std::vector<std::pair<const char*, double>> phases;
  auto phase_start = Clock::now();
  const auto end_phase = [&phases, &phase_start](const char* name) {
    phases.emplace_back(name, seconds_since(phase_start));
    phase_start = Clock::now();
  };
  std::vector<double> setup_times;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Net> net;
  for (int rep = 0; rep < setup_reps; ++rep) {
    net.reset();
    inputs.reset();
    // Hand freed pages back so peak_rss_mb does not depend on how the
    // allocator kept the previous repetition's memory.
    malloc_trim(0);
    const auto t0 = Clock::now();
    inputs = std::make_unique<Inputs>(make_inputs(w, opt, txs_per_sender, reads));
    net = std::make_unique<Net>(w, opt, *inputs);
    if (!net->boot()) {
      std::cerr << "error: the network failed to boot\n";
      return 1;
    }
    setup_times.push_back(seconds_since(t0));
  }
  end_phase("setup");

  // --- live window, restart cycles --------------------------------------------------
  LiveReport live = run_live(*net, *inputs, opt, tracer, outcome);
  net->stop_all();
  net.reset();
  malloc_trim(0);
  end_phase("live");

  const auto admit = live.tally.hists.find("themis_admit_batch_seconds");
  const double txs_per_admit_batch =
      ratio(counter(live.tally, "txs_submitted"),
            admit == live.tally.hists.end() ? 0.0
                                            : static_cast<double>(admit->second.total));
  Metrics layer;
  if (opt.trace) {
    layer = run_replays(w, live, *inputs, opt, tracer, outcome, txs_per_admit_batch);
    end_phase("replays");
  }

  // --- simulator (traced run only: it feeds per-layer metrics alone) ---------------
  SimReport sim;
  if (opt.trace) {
    sim = run_sim_phase(opt, tracer, outcome);
    end_phase("sim");
  }

  // --- end-to-end metrics ----------------------------------------------------------
  // All of them go to stderr and the e2e line.  The proof-read latencies and
  // the p99 tails stay out of the result: no bound holds them on a shared
  // host (README.md).  The traced run reports the read latencies per layer.
  const double tps = static_cast<double>(live.confirmed_in_window) / live.window_s;
  Metrics e2e;
  const auto put = [](Metrics& m, const std::string& name, double v,
                      const char* unit) { m[name] = Metric{v, unit}; };
  put(e2e, "setup_s", median(setup_times), "s");
  put(e2e, "confirmed_tps", tps, "tx/s");
  put(e2e, "commit_p50_ms", quantile(live.commit_ms, 0.50), "ms");
  put(e2e, "commit_p95_ms", quantile(live.commit_ms, 0.95), "ms");
  put(e2e, "commit_p99_ms", quantile(live.commit_ms, 0.99), "ms");
  put(e2e, "final_p50_ms", quantile(live.final_ms, 0.50), "ms");
  put(e2e, "final_p95_ms", quantile(live.final_ms, 0.95), "ms");
  put(e2e, "final_p99_ms", quantile(live.final_ms, 0.99), "ms");
  put(e2e, "read_p50_ms", quantile(live.read_ms, 0.50), "ms");
  put(e2e, "read_p99_ms", quantile(live.read_ms, 0.99), "ms");
  put(e2e, "restart_s", median(live.restart_s), "s");
  put(e2e, "catchup_s", median(live.catchup_s), "s");
  put(e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  Metrics bounded = e2e;
  for (const char* name :
       {"read_p50_ms", "read_p99_ms", "commit_p99_ms", "final_p99_ms"}) {
    bounded.erase(name);
  }
  const double fail_ratio = ratio(static_cast<double>(outcome.failed_count()),
                                  static_cast<double>(outcome.attempted_count()));

  // --- per-layer metrics (traced run) -----------------------------------------------
  if (opt.trace) {
    const Tally& t = live.tally;
    const double confirmed = std::max<double>(1.0, static_cast<double>(live.confirmed_in_window));
    const double blocks = std::max<double>(1.0, static_cast<double>(live.blocks_in_window));
    const double txs_per_block = static_cast<double>(live.confirmed_in_window) / blocks;
    const auto layer_of = [&layer](const std::string& name) {
      const auto it = layer.find(name);
      return it == layer.end() ? 0.0 : it->second.value;
    };
    put(layer, "rpc.submit_rtt_p50_ms", quantile(live.submit_rtt_ms, 0.50), "ms");
    put(layer, "rpc.submit_rtt_p99_ms", quantile(live.submit_rtt_ms, 0.99), "ms");
    put(layer, "rpc.read_p50_ms", quantile(live.read_ms, 0.50), "ms");
    put(layer, "rpc.read_p99_ms", quantile(live.read_ms, 0.99), "ms");
    put(layer, "rpc.proof_rtt_p50_ms", quantile(live.proof_rtt_ms, 0.50), "ms");
    put(layer, "rpc.proof_rtt_p99_ms", quantile(live.proof_rtt_ms, 0.99), "ms");
    const std::string balance = "themis_rpc_seconds{method=\"get_balance\"}";
    put(layer, "rpc.server_p50_us", hist_ms(t, balance, 0.50) * 1e3, "us");
    put(layer, "rpc.server_p99_us", hist_ms(t, balance, 0.99) * 1e3, "us");
    put(layer, "rpc.poll_gap_ms",
        quantile(live.commit_ms, 0.50) - hist_ms(t, "themis_tx_e2e_seconds", 0.50),
        "ms");
    put(layer, "rpc.requests_per_tx",
        static_cast<double>(live.client_requests) / confirmed, "count");
    put(layer, "rpc.bytes_per_tx", live.client_bytes / confirmed, "B");
    put(layer, "p2p.admit_batch_p50_us",
        hist_ms(t, "themis_admit_batch_seconds", 0.50) * 1e3, "us");
    put(layer, "p2p.admit_batch_p99_us",
        hist_ms(t, "themis_admit_batch_seconds", 0.99) * 1e3, "us");
    put(layer, "p2p.txs_per_admit_batch", txs_per_admit_batch, "count");
    put(layer, "p2p.bytes_out_per_tx", counter(t, "bytes_out") / confirmed, "B");
    put(layer, "p2p.redundant_announce_ratio",
        ratio(counter(t, "invs_redundant"), counter(t, "invs_received")), "ratio");
    put(layer, "p2p.sync_rounds", median(live.sync_rounds), "count");
    put(layer, "p2p.sync_blocks_served", median(live.sync_blocks_served), "count");
    put(layer, "ledger.verify_stage_p50_ms",
        hist_ms(t, "themis_tx_stage_verify_seconds", 0.50), "ms");
    put(layer, "ledger.inclusion_stage_p50_ms",
        hist_ms(t, "themis_tx_stage_inclusion_seconds", 0.50), "ms");
    put(layer, "ledger.pool_stage_p99_ms",
        hist_ms(t, "themis_tx_stage_pool_seconds", 0.99), "ms");
    put(layer, "ledger.pool_depth_max", live.pool_depth_max, "count");
    put(layer, "ledger.txs_per_block", txs_per_block, "count");
    put(layer, "state.confirm_stage_p50_ms",
        hist_ms(t, "themis_tx_stage_confirm_seconds", 0.50), "ms");
    put(layer, "state.txs_returned", counter(t, "txs_returned"), "count");
    put(layer, "state.txs_purged", counter(t, "txs_purged"), "count");
    put(layer, "consensus.block_interval_ms", live.window_s * 1e3 / blocks, "ms");
    put(layer, "consensus.block_submit_p50_us",
        hist_ms(t, "themis_block_submit_seconds", 0.50) * 1e3, "us");
    put(layer, "consensus.reorgs", counter(t, "reorgs"), "count");
    put(layer, "consensus.blocks_rejected", counter(t, "blocks_rejected"), "count");
    put(layer, "consensus.stale_ratio", sim.stale_ratio, "ratio");
    put(layer, "finality.lag_blocks_mean", live.finality_lag_mean, "blocks");
    put(layer, "finality.votes_accepted", counter(t, "votes_accepted"), "count");
    put(layer, "finality.votes_rejected", counter(t, "votes_rejected"), "count");
    put(layer, "finality.certs", counter(t, "certs"), "count");
    put(layer, "sim.sim_s_per_wall_s", sim.sim_s_per_wall_s, "s/s");
    put(layer, "net.events", static_cast<double>(sim.events), "count");
    put(layer, "net.gossip_delivered", static_cast<double>(sim.gossip_delivered),
        "count");
    put(layer, "net.redundant_push_ratio", sim.redundant_push_ratio, "ratio");
    put(layer, "net.ns_per_event", sim.ns_per_event, "ns");
    put(layer, "net.pending_peak", static_cast<double>(sim.pending_peak), "count");
    put(layer, "sim.build_s", sim.build_s, "s");
    put(layer, "gen.late_p99_ms", quantile(live.late_ms, 0.99), "ms");
    put(layer, "gen.cpu_us_per_tx", live.gen_cpu_s * 1e6 / confirmed, "us");
    put(layer, "gen.commit_samples", static_cast<double>(live.commit_ms.size()),
        "count");
    put(layer, "gen.final_samples", static_cast<double>(live.final_ms.size()), "count");
    put(layer, "gen.read_samples", static_cast<double>(live.read_ms.size()), "count");
    put(layer, "proc.invol_ctx_switches_per_s", live.invol_ctx_switches / live.window_s,
        "1/s");
    // CPU reconciliation: process CPU per confirmed transaction against the
    // generator's own CPU, the estimated mining CPU (difficulty x blocks x
    // replayed header hash) and the replayed layer costs, weighted by how
    // often each runs per transaction across the three nodes.
    const double cpu_per_tx = live.cpu_s * 1e6 / confirmed;
    const double mining_per_tx =
        w.difficulty * static_cast<double>(live.blocks_in_window) *
        layer_of("crypto.pow_hash_ns") / 1e3 / confirmed;
    const double per_block = std::max(1.0, txs_per_block);
    const double attributed =
        layer_of("rpc.json_us_per_tx") +
        kNodes * (layer_of("crypto.verify_batch_us_per_tx") +
                  layer_of("state.apply_us_per_tx")) +
        (kNodes * (layer_of("state.root_update_us_per_block") +
                   layer_of("ledger.store_append_us")) +
         (kNodes - 1) * (layer_of("ledger.validate_block_us") +
                         layer_of("ledger.block_codec_us") +
                         layer_of("p2p.frame_codec_us_per_block"))) /
            per_block;
    put(layer, "proc.cpu_us_per_tx", cpu_per_tx, "us");
    put(layer, "proc.mining_us_per_tx", mining_per_tx, "us");
    put(layer, "proc.attributed_us_per_tx", attributed, "us");
    put(layer, "proc.unattributed_us_per_tx",
        cpu_per_tx - live.gen_cpu_s * 1e6 / confirmed - mining_per_tx - attributed,
        "us");
    put(layer, "trace.spans", static_cast<double>(tracer.size()), "count");
    tracer.write(opt.work / "spans.jsonl");
  }

  // --- report ----------------------------------------------------------------------
  std::cerr << "perfbench " << w.name << " (seed " << opt.seed << ", "
            << live.window_s << " s, " << (opt.trace ? "traced" : "untraced")
            << ", senders " << kNodes << ")\n";
  for (const auto& [name, m] : e2e) {
    std::string extra;
    if (name.rfind("commit_", 0) == 0) extra = " (n=" + std::to_string(live.commit_ms.size()) + ")";
    if (name.rfind("final_", 0) == 0) extra = " (n=" + std::to_string(live.final_ms.size()) + ")";
    if (name.rfind("read_", 0) == 0) extra = " (n=" + std::to_string(live.read_ms.size()) + ")";
    if (name == "restart_s" || name == "catchup_s") {
      extra = " (n=" + std::to_string(live.restart_s.size()) + ")";
    }
    std::fprintf(stderr, "  %-22s %14.4f %-5s%s\n", name.c_str(), m.value,
                 m.unit.c_str(), extra.c_str());
  }
  std::fprintf(stderr, "  %-22s %14.6f ratio (%llu of %llu operations)\n",
               "fail_ratio", fail_ratio,
               static_cast<unsigned long long>(outcome.failed_count()),
               static_cast<unsigned long long>(outcome.attempted_count()));
  if (w.closed_loop) {
    std::fprintf(stderr, "  inputs: at most %.0f%% of a sender's pre-signed stream sent%s\n",
                 100.0 * live.stream_used_max,
                 live.window_cut ? "; it ran out, so the window ended early" : "");
  }
  std::cerr << "  phases:";
  for (const auto& [name, s] : phases) std::fprintf(stderr, " %s %.1f s", name, s);
  std::cerr << "\n";
  for (const std::string& f : outcome.failures()) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }
  Metrics e2e_with_fail = e2e;
  put(e2e_with_fail, "fail_ratio", fail_ratio, "ratio");
  std::cout << "provenance "
            << provenance_json(opt, setup_reps, opt.trace ? sim_reps(opt) : 0)
            << "\n";
  std::cout << "e2e " << metrics_json(e2e_with_fail) << "\n";
  std::cout << "{\"correct\": " << (outcome.correct() ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted_count()
            << ", \"failed\": " << outcome.failed_count()
            << ", \"metrics\": " << metrics_json(opt.trace ? layer : bounded) << "}"
            << std::endl;
  fs::remove_all(opt.work / "prebuilt");
  for (std::size_t i = 0; i < kNodes; ++i) {
    fs::remove_all(opt.work / ("node" + std::to_string(i)));
  }
  return outcome.correct() ? 0 : 1;
}
