// Table 3 reproduction: virtual time spent in each component of parallel
// clustering as the processor count grows (paper: 20,000 ESTs, p = 8..128).
//
// Shape to check: every component shrinks roughly linearly with p; GST
// construction dominates partitioning and sorting; alignment and GST
// construction are the two largest contributors.
//
// Per-component rows come from the runtime's merged MetricsRegistry (the
// pace.t_* gauges published by the pipeline), not ad-hoc timers, so this
// bench doubles as an end-to-end check of the observability plumbing. The
// msgs column counts every message sent by every rank; bench_smoke pins
// it against tests/data/bench_baseline.json.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  using namespace estclust::bench;
  CliArgs args(argc, argv);
  const double scale = parse_scale(args);
  const std::size_t n = scaled(
      static_cast<std::size_t>(args.get_int("ests", 1000)), scale);

  Reporter table("table3",
                 {"p", "partitioning", "GST build", "node sorting",
                  "alignment loop", "total", "msgs"},
                 args);
  if (!table.json_mode()) {
    print_header("Table 3: per-component times vs processor count",
                 "Table 3 (partitioning / GST construction / node sorting / "
                 "pairwise alignment / total, 20,000 ESTs, p = 8..128)");
    std::cout << "ESTs: " << n << "  (virtual seconds, LogP cost model)\n\n";
  }

  auto wl = sim::generate(bench_workload_config(n));
  auto cfg = bench_pace_config();

  for (int p : {8, 16, 32, 64, 128}) {
    auto run = run_parallel_obs(wl.ests, cfg, p);
    const auto& m = run.metrics;
    table.add_row({TablePrinter::fmt(static_cast<std::uint64_t>(p)),
                   TablePrinter::fmt(m.gauge_value("pace.t_partition"), 3),
                   TablePrinter::fmt(m.gauge_value("pace.t_gst"), 3),
                   TablePrinter::fmt(m.gauge_value("pace.t_sort"), 3),
                   TablePrinter::fmt(m.gauge_value("pace.t_align"), 3),
                   TablePrinter::fmt(m.gauge_value("pace.t_total"), 3),
                   TablePrinter::fmt(m.counter_value("mpr.messages_sent"))});
  }
  table.print(std::cout);
  if (!table.json_mode()) {
    std::cout << "\nExpected shape: each time column shrinks as p grows; "
              << "GST construction and\nthe alignment loop dominate, as in "
              << "the paper's Table 3. msgs grows with p:\nevery slave adds "
              << "its own master interactions.\n";
  }
  return 0;
}
