// Incremental clustering — the paper's §5 open problem in action: new
// sequencing batches arrive over time and the clusters are adjusted
// without re-clustering everything, then checked against a from-scratch
// run of the full set.
//
//   ./incremental_updates [--ests 400] [--batches 5]

#include <iostream>

#include "pace/incremental.hpp"
#include "pace/sequential.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  CliArgs args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.get_int("ests", 400));
  const std::size_t batches =
      static_cast<std::size_t>(args.get_int("batches", 5));

  auto wl = sim::generate(sim::scaled_config(n));
  pace::PaceConfig cfg;

  std::cout << "Streaming " << n << " ESTs into the clusterer in "
            << batches << " batches:\n\n";
  pace::IncrementalClusterer inc(cfg);
  TablePrinter table({"batch", "new ESTs", "dirty buckets", "total buckets",
                      "aligned", "clusters", "time (s)"});
  const std::size_t per = (n + batches - 1) / batches;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<bio::Sequence> batch;
    for (std::size_t i = b * per; i < std::min(n, (b + 1) * per); ++i) {
      batch.push_back(wl.ests.est(static_cast<bio::EstId>(i)));
    }
    auto st = inc.add_batch(std::move(batch));
    table.add_row(
        {TablePrinter::fmt(static_cast<std::uint64_t>(b + 1)),
         TablePrinter::fmt(static_cast<std::uint64_t>(st.new_ests)),
         TablePrinter::fmt(static_cast<std::uint64_t>(st.dirty_buckets)),
         TablePrinter::fmt(static_cast<std::uint64_t>(st.total_buckets)),
         TablePrinter::fmt(st.pairs_processed),
         TablePrinter::fmt(static_cast<std::uint64_t>(inc.num_clusters())),
         TablePrinter::fmt(st.seconds, 3)});
  }
  table.print(std::cout);

  WallTimer timer;
  auto scratch = pace::cluster_sequential(wl.ests, cfg);
  const double seconds = timer.seconds();
  bool identical = inc.labels() == scratch.clusters.labels();
  std::cout << "\nFrom-scratch clustering of the full set: "
            << scratch.stats.num_clusters << " clusters in " << seconds
            << " s\n"
            << "Incremental result identical to from-scratch: "
            << (identical ? "yes" : "NO") << "\n";
  return identical ? 0 : 1;
}
