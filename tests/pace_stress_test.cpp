// Protocol stress tests: the master/slave clustering must reproduce the
// sequential partition under every combination of rank count, batch size
// and buffer capacity, and must terminate on degenerate inputs.
#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "mpr/runtime.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "sim/workload.hpp"
#include "util/prng.hpp"

namespace estclust::pace {
namespace {

sim::Workload stress_workload(std::size_t ests, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.num_genes = std::max<std::size_t>(2, ests / 12);
  cfg.num_ests = ests;
  cfg.est_len_mean = 200;
  cfg.est_len_stddev = 30;
  cfg.est_len_min = 80;
  cfg.paralog_fraction = 0.2;
  cfg.paralog_divergence = 0.15;
  cfg.seed = seed;
  return sim::generate(cfg);
}

std::vector<std::uint32_t> parallel_labels(const bio::EstSet& ests,
                                           const PaceConfig& cfg, int p) {
  mpr::Runtime rt(p, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      labels = std::move(res.labels);
    }
  });
  return labels;
}

using ProtocolParams = std::tuple<int, std::size_t, std::size_t>;

class ProtocolSweep : public testing::TestWithParam<ProtocolParams> {};

TEST_P(ProtocolSweep, PartitionInvariantUnderProtocolKnobs) {
  auto [p, batchsize, pairbuf] = GetParam();
  auto wl = stress_workload(100, 4242);
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  cfg.batchsize = batchsize;
  cfg.pairbuf_capacity = pairbuf;
  cfg.workbuf_capacity = 64;
  cfg.overlap.min_quality = 0.75;

  auto sequential = cluster_sequential(wl.ests, cfg).clusters.labels();
  EXPECT_EQ(parallel_labels(wl.ests, cfg, p), sequential)
      << "p=" << p << " batch=" << batchsize << " pairbuf=" << pairbuf;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ProtocolSweep,
    testing::Combine(testing::Values(2, 3, 6, 12),
                     testing::Values<std::size_t>(1, 5, 60),
                     testing::Values<std::size_t>(8, 512)));

TEST(ProtocolDegenerate, AllIdenticalEstsCollapseToOneCluster) {
  Prng rng(5);
  std::string seq(200, 'A');
  for (auto& c : seq) {
    c = "ACGT"[rng.uniform(4)];
  }
  std::vector<bio::Sequence> seqs;
  for (int i = 0; i < 24; ++i) {
    seqs.push_back({"dup" + std::to_string(i), seq});
  }
  bio::EstSet ests(std::move(seqs));
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  auto labels = parallel_labels(ests, cfg, 5);
  for (auto l : labels) EXPECT_EQ(l, labels[0]);
}

TEST(ProtocolDegenerate, FullyDisjointEstsStaySingletons) {
  // Each EST uses its own periodic pattern; no promising pairs exist.
  std::vector<bio::Sequence> seqs;
  const char* bases = "ACGT";
  for (int i = 0; i < 12; ++i) {
    std::string s;
    for (int k = 0; k < 80; ++k) {
      s.push_back(bases[(k * (i + 1) + i) % 4]);
    }
    seqs.push_back({"solo" + std::to_string(i), s});
  }
  bio::EstSet ests(std::move(seqs));
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 40;  // high threshold: accidental matches stay below it
  auto seq_res = cluster_sequential(ests, cfg);
  auto labels = parallel_labels(ests, cfg, 4);
  EXPECT_EQ(labels, seq_res.clusters.labels());
}

TEST(ProtocolDegenerate, MoreSlavesThanPairsTerminates) {
  auto wl = stress_workload(10, 77);
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  auto sequential = cluster_sequential(wl.ests, cfg).clusters.labels();
  EXPECT_EQ(parallel_labels(wl.ests, cfg, 16), sequential);
}

TEST(ProtocolDegenerate, BatchsizeOneAtScale) {
  auto wl = stress_workload(60, 99);
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  cfg.batchsize = 1;
  cfg.pairbuf_capacity = 1;
  cfg.workbuf_capacity = 1;
  auto sequential = cluster_sequential(wl.ests, cfg).clusters.labels();
  EXPECT_EQ(parallel_labels(wl.ests, cfg, 4), sequential);
}

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, ParallelEqualsSequentialAcrossWorkloads) {
  auto wl = stress_workload(80, GetParam());
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  auto sequential = cluster_sequential(wl.ests, cfg).clusters.labels();
  EXPECT_EQ(parallel_labels(wl.ests, cfg, 7), sequential);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Range<std::uint64_t>(2000, 2010));

TEST(ProtocolLarge, MidSizeWorkloadManyRanks) {
  auto wl = stress_workload(300, 31337);
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 22;
  auto sequential = cluster_sequential(wl.ests, cfg).clusters.labels();
  EXPECT_EQ(parallel_labels(wl.ests, cfg, 10), sequential);
}

}  // namespace
}  // namespace estclust::pace
