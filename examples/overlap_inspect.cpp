// Inspect the strongest EST overlaps directly through the pair-generation
// and alignment APIs — the building blocks a downstream assembler would
// consume (the "promising pairs" of Section 3.2 with their Fig 5b shapes).
//
//   ./overlap_inspect [--ests 150] [--top 15] [--psi 25]

#include <iostream>

#include "align/anchored.hpp"
#include "gst/builder.hpp"
#include "pace/aligner.hpp"
#include "pairgen/generator.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  CliArgs args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.get_int("ests", 150));
  const std::size_t top = static_cast<std::size_t>(args.get_int("top", 15));
  const std::uint32_t psi =
      static_cast<std::uint32_t>(args.get_int("psi", 25));

  auto wl = sim::generate(sim::scaled_config(n));
  const bio::EstSet& ests = wl.ests;

  // Build the GST forest and stream pairs in decreasing match length.
  const std::uint32_t w = 8;
  auto forest = gst::build_forest_sequential(ests, w);
  pairgen::PairGenerator gen(ests, forest, psi);

  pace::PaceConfig cfg;  // exact alignments: rejected rows show full spans
  cfg.bounded_align = false;
  pace::PairAligner aligner(ests, cfg);
  std::cout << "Strongest promising pairs (decreasing maximal common "
            << "substring length):\n\n";
  TablePrinter table({"est A", "est B", "orient", "match", "overlap kind",
                      "span A", "span B", "quality", "verdict"});

  std::vector<pairgen::PromisingPair> batch;
  std::size_t shown = 0;
  while (shown < top && gen.next_batch(32, batch) > 0) {
    for (const auto& p : batch) {
      if (shown >= top) break;
      pace::PairEvaluation ev = aligner.evaluate(p);
      table.add_row(
          {ests.est(p.a).id, ests.est(p.b).id, p.b_rc ? "rc" : "fwd",
           TablePrinter::fmt(static_cast<std::uint64_t>(p.match_len)),
           align::to_string(ev.overlap.kind),
           TablePrinter::fmt(
               static_cast<std::uint64_t>(ev.overlap.a_span())),
           TablePrinter::fmt(
               static_cast<std::uint64_t>(ev.overlap.b_span())),
           TablePrinter::fmt(ev.overlap.quality, 3),
           ev.accepted ? "merge" : "reject"});
      ++shown;
    }
    batch.clear();
  }
  table.print(std::cout);

  std::cout << "\n'merge' rows show one of the four accepted overlap "
            << "shapes of Fig 5b\nwith score >= " << cfg.overlap.min_quality
            << " x ideal; 'reject' rows share a long exact match\nbut do "
            << "not extend to a clean overlap (e.g. chance repeats).\n";
  return 0;
}
