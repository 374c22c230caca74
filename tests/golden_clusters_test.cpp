// End-to-end golden tests: checked-in FASTA fixtures must produce
// byte-identical canonical clusterings AND byte-identical modeled
// run-times at every rank count.
//
// These lock the whole pipeline (GST -> pair generation -> master/slave
// protocol -> alignment verdicts -> virtual-time accounting): any change
// that perturbs a verdict, the processing order, or a charged cost shows
// up as a golden diff, not a silent drift. The sequential and incremental
// drivers are held to the same clusters golden (check_local_drivers).
//
// The suite is instantiated once per PairSource backend (gst/kmer) by
// tests/CMakeLists.txt. Both backends must reproduce the *same* canonical
// partition (pinned in <fixture>.clusters.txt, owned by the gst build);
// modeled run-times legitimately differ per backend and are pinned in
// <fixture>.runtimes[.<backend>].txt.
//
// Regenerate after an intentional change with
//   ESTCLUST_UPDATE_GOLDEN=1 ./golden_clusters_test_<backend>
// (the gst binary rewrites the FASTA + clusters goldens; every binary
// rewrites its own runtimes file) and review the diff like any other
// code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bio/dataset.hpp"
#include "bio/fasta.hpp"
#include "cluster/partition.hpp"
#include "mpr/fault.hpp"
#include "mpr/runtime.hpp"
#include "pace/incremental.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pairgen/source.hpp"
#include "sim/workload.hpp"

#ifndef ESTCLUST_TEST_DATA_DIR
#error "ESTCLUST_TEST_DATA_DIR must be defined by the build"
#endif

#ifndef ESTCLUST_PAIRSOURCE_BACKEND
#define ESTCLUST_PAIRSOURCE_BACKEND "gst"
#endif

namespace estclust {
namespace {

pairgen::Backend test_backend() {
  auto b = pairgen::parse_backend(ESTCLUST_PAIRSOURCE_BACKEND);
  EXPECT_TRUE(b.has_value());
  return b.value_or(pairgen::Backend::kGst);
}

bool gst_backend() { return test_backend() == pairgen::Backend::kGst; }

std::string data_path(const std::string& name) {
  return std::string(ESTCLUST_TEST_DATA_DIR) + "/" + name;
}

/// gst owns the historical .runtimes.txt golden; kmer has its own file
/// since index construction / pair work is charged differently per
/// backend.
std::string runtimes_name(const std::string& fixture) {
  if (gst_backend()) return fixture + ".runtimes.txt";
  return fixture + ".runtimes." + std::string(ESTCLUST_PAIRSOURCE_BACKEND) +
         ".txt";
}

bool update_mode() {
  const char* v = std::getenv("ESTCLUST_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

pace::PaceConfig golden_config() {
  pace::PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 24;
  cfg.batchsize = 20;
  cfg.overlap.band = 8;
  cfg.overlap.min_quality = 0.75;
  cfg.overlap.min_overlap = 40;
  cfg.pair_source = test_backend();
  return cfg;
}

/// Exact decimal form of the virtual clock: 17 significant digits round-
/// trip an IEEE double, so equal strings <=> bit-identical run-times.
std::string format_time(double t) {
  std::ostringstream out;
  out << std::setprecision(17) << t;
  return out.str();
}

struct GoldenRun {
  std::string clusters;
  std::string runtime_line;
  pace::PaceStats stats;
  std::vector<pace::AcceptedOverlap> overlaps;
};

GoldenRun run_fixture(const bio::EstSet& ests, int ranks,
                      const mpr::FaultSpec* faults = nullptr) {
  const pace::PaceConfig cfg = golden_config();
  GoldenRun out;
  std::mutex mu;
  mpr::Runtime rt(ranks, mpr::CostModel{});
  if (faults != nullptr) {
    rt.set_fault_plan(std::make_shared<mpr::FaultPlan>(*faults, ranks));
  }
  rt.run([&](mpr::Communicator& comm) {
    auto res = pace::cluster_parallel(comm, ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      out.clusters = cluster::canonical_partition(res.labels);
      std::ostringstream line;
      line << "ranks=" << ranks
           << " t_total=" << format_time(res.stats.t_total)
           << " clusters=" << res.stats.num_clusters;
      out.runtime_line = line.str();
      out.stats = res.stats;
      out.overlaps = std::move(res.overlaps);
    }
  });
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << content;
}

struct Fixture {
  const char* name;
  sim::SimConfig sim;
};

Fixture small_fixture() {
  Fixture f;
  f.name = "golden_small";
  f.sim.num_genes = 6;
  f.sim.num_ests = 80;
  f.sim.est_len_mean = 220;
  f.sim.est_len_stddev = 40;
  f.sim.est_len_min = 80;
  f.sim.sub_rate = 0.01;
  f.sim.ins_rate = 0.002;
  f.sim.del_rate = 0.002;
  f.sim.seed = 20020811;
  return f;
}

Fixture noisy_fixture() {
  Fixture f;
  f.name = "golden_noisy";
  f.sim.num_genes = 10;
  f.sim.num_ests = 120;
  f.sim.est_len_mean = 260;
  f.sim.est_len_stddev = 60;
  f.sim.est_len_min = 90;
  f.sim.sub_rate = 0.02;
  f.sim.ins_rate = 0.005;
  f.sim.del_rate = 0.005;
  f.sim.seed = 4177;
  return f;
}

/// The wall-clock drivers run the same loop as `ranks=1` and must match
/// it: the sequential driver pair for pair (counters and overlaps), and
/// the incremental clusterer, fed the fixture whole or in four batches,
/// partition for partition. Neither writes a runtimes line.
void check_local_drivers(const bio::EstSet& ests, const std::string& clusters,
                         const GoldenRun& one) {
  auto seq = pace::cluster_sequential(ests, golden_config());
  EXPECT_EQ(cluster::canonical_partition(seq.clusters.labels()), clusters);
  EXPECT_EQ(seq.stats.pairs_processed, one.stats.pairs_processed);
  EXPECT_EQ(seq.stats.pairs_skipped, one.stats.pairs_skipped);
  EXPECT_EQ(seq.stats.pairs_accepted, one.stats.pairs_accepted);
  EXPECT_EQ(seq.stats.merges, one.stats.merges);
  EXPECT_EQ(seq.stats.dp_cells, one.stats.dp_cells);
  EXPECT_TRUE(seq.overlaps == one.overlaps);

  const std::size_t n = ests.num_ests();
  for (std::size_t batches : {1, 4}) {
    pace::IncrementalClusterer inc(golden_config());
    for (std::size_t k = 0; k < batches; ++k) {
      std::vector<bio::Sequence> batch;
      for (std::size_t i = k * n / batches; i < (k + 1) * n / batches; ++i) {
        batch.push_back(ests.est(static_cast<bio::EstId>(i)));
      }
      inc.add_batch(std::move(batch));
    }
    EXPECT_EQ(cluster::canonical_partition(inc.labels()), clusters)
        << "incremental in " << batches << " batch(es)";
  }
}

void check_fixture(const Fixture& fix) {
  const std::string fasta_path = data_path(std::string(fix.name) + ".fasta");
  const std::string clusters_path =
      data_path(std::string(fix.name) + ".clusters.txt");
  const std::string runtimes_path = data_path(runtimes_name(fix.name));

  if (update_mode() && gst_backend()) {
    // Regenerate the FASTA fixture from its pinned simulator seed, so the
    // fixture file itself is reproducible. Only the gst build owns the
    // FASTA and clusters goldens; kmer must match them, not mint them.
    auto wl = sim::generate(fix.sim);
    std::vector<bio::Sequence> seqs;
    for (std::size_t i = 0; i < wl.ests.num_ests(); ++i) {
      seqs.push_back(wl.ests.est(static_cast<bio::EstId>(i)));
    }
    bio::write_fasta_file(fasta_path, seqs);
  }

  bio::EstSet ests(bio::read_fasta_file(fasta_path));

  std::string clusters;  // must be identical across every configuration
  std::ostringstream runtimes;
  GoldenRun single_rank;
  for (int ranks : {1, 2, 4, 8}) {
    GoldenRun run = run_fixture(ests, ranks);
    if (clusters.empty()) {
      clusters = run.clusters;
    } else {
      ASSERT_EQ(run.clusters, clusters)
          << "partition differs at ranks=" << ranks;
    }
    runtimes << run.runtime_line << '\n';
    if (ranks == 1) single_rank = std::move(run);
  }
  check_local_drivers(ests, clusters, single_rank);

  if (update_mode()) {
    if (gst_backend()) write_file(clusters_path, clusters);
    write_file(runtimes_path, runtimes.str());
    GTEST_SKIP() << "golden files regenerated for " << fix.name;
  }

  EXPECT_EQ(clusters, read_file(clusters_path))
      << "cluster golden drifted for " << fix.name
      << " (ESTCLUST_UPDATE_GOLDEN=1 regenerates after an intended change)";
  EXPECT_EQ(runtimes.str(), read_file(runtimes_path))
      << "modeled run-time golden drifted for " << fix.name
      << " (ESTCLUST_UPDATE_GOLDEN=1 regenerates after an intended change)";
}

TEST(GoldenClusters, Small) { check_fixture(small_fixture()); }

TEST(GoldenClusters, Noisy) { check_fixture(noisy_fixture()); }

/// Seeded fault plans must reproduce the fault-free golden partition
/// byte-for-byte: drops, duplicates and delays only reorder/retry the
/// protocol, and a killed slave's work is recovered deterministically.
void check_faulted_fixture(const Fixture& fix) {
  if (update_mode()) GTEST_SKIP() << "goldens regenerated by check_fixture";
  const std::string golden =
      read_file(data_path(std::string(fix.name) + ".clusters.txt"));
  ASSERT_FALSE(golden.empty()) << "missing golden for " << fix.name;
  bio::EstSet ests(
      bio::read_fasta_file(data_path(std::string(fix.name) + ".fasta")));

  struct Plan {
    const char* label;
    const char* spec;
  };
  const Plan plans[] = {
      {"drop-heavy", "seed=101,drop=0.4,delay=0.2"},
      {"dup-heavy", "seed=202,dup=0.6,delay=0.2"},
      {"slave-killed", "seed=303,kill=2@0.02"},
      {"combined", "seed=404,drop=0.25,dup=0.25,delay=0.25,kill=3@0.03"},
  };
  for (const Plan& plan : plans) {
    const mpr::FaultSpec spec = mpr::parse_fault_spec(plan.spec);
    const GoldenRun run = run_fixture(ests, 4, &spec);
    EXPECT_EQ(run.clusters, golden)
        << "fault plan '" << plan.label << "' (" << plan.spec
        << ") perturbed the partition of " << fix.name;
  }
}

TEST(GoldenClustersFaulted, Small) { check_faulted_fixture(small_fixture()); }

TEST(GoldenClustersFaulted, Noisy) { check_faulted_fixture(noisy_fixture()); }

}  // namespace
}  // namespace estclust
