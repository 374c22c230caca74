// Figure 8 reproduction: run-time versus batchsize at fixed n and p, plus
// the master-utilization claim of §4.2.
//
// Shapes to check: (1) small batches inflate run-time (communication
// overhead); large batches flatten out or rise slightly (slaves act on
// staler cluster state, so more redundant alignments slip through) — the
// sweet spot in the paper is 40-60; (2) the master stays busy well under
// 2% of the time even at high processor counts.
//
// Master-busy numbers come from the trace-derived critical-path profile
// (rank 0's master_* span time over the makespan) — the same measure
// `estclust --profile` reports and tools/profile/critpath.py tabulates.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  using namespace estclust::bench;
  CliArgs args(argc, argv);
  const double scale = parse_scale(args);
  const std::size_t n = scaled(
      static_cast<std::size_t>(args.get_int("ests", 1000)), scale);
  const int p = static_cast<int>(args.get_int("p", 32));

  // Each batchsize is run twice: with the multiplier frozen (the paper's
  // fixed-batch protocol) and with adaptive batching enabled, so the
  // before/after effect of the hot-path flow control is visible at every
  // point of the sweep.
  Reporter table("fig8",
                 {"batchsize", "run-time fixed", "run-time adaptive",
                  "msgs fixed", "msgs adaptive", "pairs aligned"},
                 args);
  if (!table.json_mode()) {
    print_header("Figure 8: run-time vs batchsize",
                 "Fig 8 (20,000 ESTs on 32 processors, batchsize 4..80)");
    std::cout << "ESTs: " << n << ", p = " << p << "\n\n";
  }

  auto wl = sim::generate(bench_workload_config(n));

  for (std::size_t batch : {1, 2, 4, 10, 20, 40, 60, 80}) {
    auto cfg_fixed = bench_pace_config();
    cfg_fixed.batchsize = batch;
    cfg_fixed.adaptive_batch = false;
    auto fixed = run_parallel_obs(wl.ests, cfg_fixed, p);
    auto cfg_adaptive = cfg_fixed;
    cfg_adaptive.adaptive_batch = true;
    auto adaptive = run_parallel_obs(wl.ests, cfg_adaptive, p);
    table.add_row(
        {TablePrinter::fmt(static_cast<std::uint64_t>(batch)),
         TablePrinter::fmt(fixed.result.stats.t_total, 3),
         TablePrinter::fmt(adaptive.result.stats.t_total, 3),
         TablePrinter::fmt(
             fixed.metrics.counter_value("mpr.messages_sent")),
         TablePrinter::fmt(
             adaptive.metrics.counter_value("mpr.messages_sent")),
         TablePrinter::fmt(adaptive.result.stats.pairs_processed)});
  }
  table.print(std::cout);

  if (!table.json_mode()) {
    std::cout << "\nMaster utilization vs processor count (the <2% claim of "
              << "Section 4.2):\n\n";
  }
  // The busy fraction amortizes with per-slave work, so it falls as the
  // input grows; the paper's <2% was measured at 20,000 ESTs. Two sizes
  // make the trend visible at bench scale.
  const std::size_t n2 = scaled(
      static_cast<std::size_t>(args.get_int("ests2", 3000)), scale);
  auto wl2 = sim::generate(bench_workload_config(n2));
  Reporter busy("fig8_master_busy",
                {"p", "master busy % (n=" + std::to_string(n) + ")",
                 "master busy % (n=" + std::to_string(n2) + ")"},
                args);
  const auto cfg = bench_pace_config();
  for (int pp : {8, 16, 32, 64, 128}) {
    // The utilization table is measured from the trace.
    auto run1 = run_parallel_obs(wl.ests, cfg, pp, /*traced=*/true);
    auto run2 = run_parallel_obs(wl2.ests, cfg, pp, /*traced=*/true);
    busy.add_row(
        {TablePrinter::fmt(static_cast<std::uint64_t>(pp)),
         TablePrinter::fmt(100.0 * run1.profile.master_utilization, 3),
         TablePrinter::fmt(100.0 * run2.profile.master_utilization, 3)});
  }
  busy.print(std::cout);
  if (!busy.json_mode()) {
    std::cout << "\nExpected shape: the fraction falls as the input grows "
              << "(more alignment work per\ninteraction); at the paper's "
              << "20,000-EST scale it stays well under 2%.\n";
  }
  return 0;
}
