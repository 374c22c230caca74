// Cluster ESTs from a FASTA file and write one FASTA per-cluster listing,
// the workflow a wet-lab user would run on a real EST library.
//
//   ./cluster_fasta input.fa [--out clusters.txt] [--psi 20] [--window 8]
//                   [--min-quality 0.8] [--min-overlap 40]
//
// With no input file, a demonstration FASTA is generated first so the
// example is runnable out of the box.

#include <fstream>
#include <iostream>

#include "bio/fasta.hpp"
#include "pace/sequential.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace estclust;
  CliArgs args(argc, argv);

  std::string input;
  if (!args.positionals().empty()) {
    input = args.positionals()[0];
  } else {
    // Self-contained demo: synthesize a library and write it to disk.
    input = "demo_ests.fa";
    sim::SimConfig wcfg;
    wcfg.num_ests = 200;
    wcfg.num_genes = 15;
    wcfg.seed = 7;
    auto wl = sim::generate(wcfg);
    std::vector<bio::Sequence> seqs;
    for (std::size_t i = 0; i < wl.ests.num_ests(); ++i) {
      seqs.push_back(wl.ests.est(i));
    }
    bio::write_fasta_file(input, seqs);
    std::cout << "No input given; wrote demo library to " << input << "\n";
  }

  auto seqs = bio::read_fasta_file(input);
  std::cout << "Read " << seqs.size() << " ESTs from " << input << "\n";
  bio::EstSet ests(std::move(seqs));

  pace::PaceConfig cfg;
  cfg.psi = static_cast<std::uint32_t>(args.get_int("psi", 20));
  cfg.gst.window = static_cast<std::uint32_t>(args.get_int("window", 8));
  cfg.overlap.min_quality = args.get_double("min-quality", 0.8);
  cfg.overlap.min_overlap =
      static_cast<std::size_t>(args.get_int("min-overlap", 40));

  WallTimer timer;
  auto res = pace::cluster_sequential(ests, cfg);
  const double seconds = timer.seconds();
  std::cout << "Found " << res.stats.num_clusters << " clusters; aligned "
            << res.stats.pairs_processed << " of "
            << res.stats.pairs_generated << " promising pairs in "
            << seconds << " s\n";

  const std::string out_path = args.get_string("out", "clusters.txt");
  std::ofstream out(out_path);
  auto clusters = res.clusters.extract_clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    out << ">cluster_" << c << " size=" << clusters[c].size() << '\n';
    for (auto id : clusters[c]) {
      out << ests.est(id).id << '\n';
    }
  }
  std::cout << "Cluster membership written to " << out_path << "\n";
  return 0;
}
