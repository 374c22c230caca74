#include <gtest/gtest.h>

#include <mutex>

#include "mpr/runtime.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pace/slave.hpp"
#include "quality/metrics.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace estclust::pace {
namespace {

sim::Workload test_workload(std::size_t ests = 120, std::uint64_t seed = 7) {
  sim::SimConfig cfg;
  cfg.num_genes = 8;
  cfg.num_ests = ests;
  cfg.est_len_mean = 220;
  cfg.est_len_stddev = 40;
  cfg.est_len_min = 80;
  cfg.sub_rate = 0.01;
  cfg.ins_rate = 0.002;
  cfg.del_rate = 0.002;
  cfg.seed = seed;
  return sim::generate(cfg);
}

PaceConfig test_config() {
  PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 24;
  cfg.batchsize = 20;
  cfg.overlap.band = 8;
  cfg.overlap.min_quality = 0.75;
  cfg.overlap.min_overlap = 40;
  return cfg;
}

TEST(Messages, ReportRoundTrip) {
  ReportMsg m;
  WireResult r;
  r.a = 3;
  r.b = 9;
  r.b_rc = 1;
  r.accepted = 1;
  r.kind = 2;
  r.quality = 0.93f;
  r.a_begin = 5;
  r.a_end = 105;
  r.b_begin = 0;
  r.b_end = 98;
  m.results.push_back(r);
  m.pairs.push_back({1, 2, true, 33, 7, 8});
  m.pairs.push_back({4, 6, false, 21, 0, 3});
  m.out_of_pairs = true;

  ReportMsg back = decode_report(encode_report(m));
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].a, 3u);
  EXPECT_EQ(back.results[0].b_rc, 1);
  EXPECT_EQ(back.results[0].a_end, 105u);
  EXPECT_FLOAT_EQ(back.results[0].quality, 0.93f);
  ASSERT_EQ(back.pairs.size(), 2u);
  EXPECT_EQ(back.pairs[0].match_len, 33u);
  EXPECT_EQ(back.pairs[1].b, 6u);
  EXPECT_TRUE(back.out_of_pairs);
}

TEST(Messages, AssignRoundTrip) {
  AssignMsg m;
  m.work.push_back({10, 20, true, 44, 1, 2});
  m.request = 123;
  AssignMsg back = decode_assign(encode_assign(m));
  ASSERT_EQ(back.work.size(), 1u);
  EXPECT_EQ(back.work[0].a, 10u);
  EXPECT_TRUE(back.work[0].b_rc);
  EXPECT_EQ(back.request, 123u);
  EXPECT_EQ(back.stop, 0);
}

TEST(Messages, AssignStopRoundTrip) {
  // The coalesced protocol folds STOP into the final assignment.
  AssignMsg m;
  m.stop = 1;
  AssignMsg back = decode_assign(encode_assign(m));
  EXPECT_TRUE(back.work.empty());
  EXPECT_EQ(back.request, 0u);
  EXPECT_EQ(back.stop, 1);
}

TEST(Messages, EmptyReportRoundTrip) {
  ReportMsg back = decode_report(encode_report(ReportMsg{}));
  EXPECT_TRUE(back.results.empty());
  EXPECT_TRUE(back.pairs.empty());
  EXPECT_FALSE(back.out_of_pairs);
}

TEST(StartupSplit, ThreeWaySplitPinned) {
  // The §3.3 startup batch is split into align-now / NEXTWORK / ship-to-
  // master portions. Pin the exact semantics: portions sum to
  // max(batchsize, 3), every portion is >= 1 (a batchsize < 3 would
  // otherwise starve NEXTWORK and stall the overlap pipeline), and the
  // remainder is spread front-first.
  EXPECT_EQ(startup_split(60), (std::array<std::size_t, 3>{20, 20, 20}));
  EXPECT_EQ(startup_split(7), (std::array<std::size_t, 3>{3, 2, 2}));
  EXPECT_EQ(startup_split(8), (std::array<std::size_t, 3>{3, 3, 2}));
  EXPECT_EQ(startup_split(9), (std::array<std::size_t, 3>{3, 3, 3}));
  // Degenerate batchsizes are rounded up so each portion stays nonempty.
  EXPECT_EQ(startup_split(1), (std::array<std::size_t, 3>{1, 1, 1}));
  EXPECT_EQ(startup_split(2), (std::array<std::size_t, 3>{1, 1, 1}));
  EXPECT_EQ(startup_split(3), (std::array<std::size_t, 3>{1, 1, 1}));
  for (std::size_t b = 1; b <= 64; ++b) {
    const auto s = startup_split(b);
    EXPECT_EQ(s[0] + s[1] + s[2], std::max<std::size_t>(b, 3)) << b;
    EXPECT_GE(s[2], 1u) << b;
    EXPECT_GE(s[0], s[1]) << b;
    EXPECT_GE(s[1], s[2]) << b;
    EXPECT_LE(s[0] - s[2], 1u) << b;
  }
}

TEST(ConfigValidate, PsiBelowWindowRejected) {
  PaceConfig cfg = test_config();
  cfg.psi = 3;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ConfigValidate, ZeroBatchRejected) {
  PaceConfig cfg = test_config();
  cfg.batchsize = 0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(Sequential, RecoversGeneClustersOnCleanData) {
  auto wl = test_workload();
  auto res = cluster_sequential(wl.ests, test_config());
  auto labels = res.clusters.labels();
  auto pc = quality::count_pairs(labels, wl.truth);
  // Thresholds sit where the paper's own Table 2 lands (OQ 84.7-94.8,
  // CC 91.7-97.4, with under-prediction dominating over-prediction).
  EXPECT_GT(pc.overlap_quality(), 78.0);
  EXPECT_GT(pc.correlation(), 85.0);
  EXPECT_LT(pc.over_prediction(), 5.0);
  EXPECT_GE(pc.under_prediction(), pc.over_prediction());
}

TEST(Sequential, StatsAreCoherent) {
  auto wl = test_workload();
  auto res = cluster_sequential(wl.ests, test_config());
  const PaceStats& st = res.stats;
  // Every generated pair is either aligned or skipped.
  EXPECT_EQ(st.pairs_processed + st.pairs_skipped, st.pairs_generated);
  EXPECT_LE(st.pairs_accepted, st.pairs_processed);
  EXPECT_LE(st.merges, st.pairs_accepted);
  EXPECT_EQ(st.num_clusters, res.clusters.num_clusters());
  EXPECT_GT(st.dp_cells, 0u);
  EXPECT_GE(st.t_total, 0.0);
}

TEST(Sequential, DeterministicAcrossRuns) {
  auto wl = test_workload();
  auto a = cluster_sequential(wl.ests, test_config());
  auto b = cluster_sequential(wl.ests, test_config());
  EXPECT_EQ(a.clusters.labels(), b.clusters.labels());
  EXPECT_EQ(a.stats.pairs_processed, b.stats.pairs_processed);
}

TEST(Sequential, BoundedKernelDoesNotChangePartition) {
  // The bounded kernel is verdict-exact: its early exit may skip DP work
  // but never flips an accept/reject decision, so the partition and every
  // pair count match the exact kernel's.
  auto wl = test_workload();
  auto exact_cfg = test_config();
  exact_cfg.bounded_align = false;
  auto exact = cluster_sequential(wl.ests, exact_cfg);
  auto bounded = cluster_sequential(wl.ests, test_config());
  EXPECT_EQ(bounded.clusters.labels(), exact.clusters.labels());
  EXPECT_EQ(bounded.stats.pairs_processed, exact.stats.pairs_processed);
  EXPECT_EQ(bounded.stats.pairs_accepted, exact.stats.pairs_accepted);
  // Skipping work can only reduce the cell count, never raise it.
  EXPECT_LE(bounded.stats.dp_cells, exact.stats.dp_cells);
}

TEST(Sequential, OrderedProcessingAlignsFewerPairsThanArbitrary) {
  // The §3.2 claim behind Fig 7: decreasing-match-length order lets the
  // cluster structure suppress redundant alignments.
  auto wl = test_workload(160);
  auto ordered = cluster_sequential(wl.ests, test_config(), {.arbitrary_order = false});
  auto arbitrary = cluster_sequential(wl.ests, test_config(), {.arbitrary_order = true});
  EXPECT_LT(ordered.stats.pairs_processed, arbitrary.stats.pairs_processed);
  // Same final partition either way: components of the acceptance graph.
  EXPECT_EQ(ordered.clusters.labels(), arbitrary.clusters.labels());
}

TEST(Sequential, SingleEstIsItsOwnCluster) {
  bio::EstSet one(std::vector<bio::Sequence>{
      {"only", "ACGTACGTGGCCAATTACGTACGTGGCCAATTACGT"}});
  auto res = cluster_sequential(one, test_config());
  EXPECT_EQ(res.stats.num_clusters, 1u);
  EXPECT_EQ(res.stats.pairs_generated, 0u);
}

TEST(Sequential, DisjointGenesStaySeparate) {
  // Two genes with no shared sequence; every EST error-free.
  sim::SimConfig cfg;
  cfg.num_genes = 2;
  cfg.num_ests = 30;
  cfg.sub_rate = cfg.ins_rate = cfg.del_rate = 0.0;
  cfg.est_len_mean = 200;
  cfg.est_len_min = 100;
  cfg.seed = 11;
  auto wl = sim::generate(cfg);
  auto res = cluster_sequential(wl.ests, test_config());
  auto pc = quality::count_pairs(res.clusters.labels(), wl.truth);
  EXPECT_EQ(pc.fp, 0u);  // no cross-gene merges on clean disjoint data
}

class ParallelPaceTest : public testing::TestWithParam<int> {};

TEST_P(ParallelPaceTest, MatchesSequentialPartitionExactly) {
  // The accepted-pair graph is a pure function of the generated pairs, so
  // the final partition must be identical for every rank count.
  const int p = GetParam();
  auto wl = test_workload();
  auto cfg = test_config();
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();

  std::mutex mu;
  std::vector<std::vector<std::uint32_t>> per_rank(p);
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[comm.rank()] = std::move(res.labels);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(per_rank[r], seq_labels) << "rank " << r << " at p=" << p;
  }
}

TEST_P(ParallelPaceTest, StatsAggregateCoherently) {
  const int p = GetParam();
  auto wl = test_workload();
  auto cfg = test_config();

  PaceStats stats;
  std::mutex mu;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      stats = res.stats;
    }
  });
  EXPECT_EQ(stats.pairs_processed + stats.pairs_skipped,
            stats.pairs_generated);
  EXPECT_LE(stats.merges, stats.pairs_accepted);
  EXPECT_GT(stats.num_clusters, 0u);
  EXPECT_GT(stats.t_total, 0.0);
  EXPECT_GE(stats.t_gst, 0.0);
  EXPECT_GE(stats.t_align, 0.0);
  if (p > 1) {
    EXPECT_GE(stats.master_busy_fraction, 0.0);
    EXPECT_LE(stats.master_busy_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelPaceTest,
                         testing::Values(1, 2, 3, 5, 9));

TEST(Parallel, DeterministicAcrossRuns) {
  const int p = 4;
  auto wl = test_workload();
  auto cfg = test_config();
  std::vector<std::uint32_t> first, second;
  double t_first = 0, t_second = 0;
  for (int run = 0; run < 2; ++run) {
    mpr::Runtime rt(p, mpr::CostModel{});
    std::vector<std::uint32_t> labels;
    double t = 0;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        labels = res.labels;
        t = res.stats.t_total;
      }
    });
    if (run == 0) {
      first = labels;
      t_first = t;
    } else {
      second = labels;
      t_second = t;
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(t_first, t_second);  // virtual time is deterministic too
}

TEST(Parallel, TinyDatasetTerminates) {
  // Fewer ESTs than slaves; most slaves are passive from the start. The
  // shared sequence must exceed min_overlap (40) for the merge to pass.
  const std::string shared =
      "ACGTACGTGGCCAATTACGTACGTGGCCAATTACGTTGCAGGTTAACCGGATCCAA";
  bio::EstSet two({{"a", shared}, {"b", shared}});
  auto cfg = test_config();
  cfg.psi = 24;
  mpr::Runtime rt(6, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, two, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      labels = res.labels;
    }
  });
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], labels[1]);  // identical ESTs merge
}

TEST(Parallel, SingleSlaveWorks) {
  auto wl = test_workload(60);
  auto cfg = test_config();
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();
  mpr::Runtime rt(2, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) labels = res.labels;
  });
  EXPECT_EQ(labels, seq_labels);
}

TEST(Parallel, SmallBatchsizeStillCorrect) {
  auto wl = test_workload(80);
  auto cfg = test_config();
  cfg.batchsize = 3;
  cfg.pairbuf_capacity = 8;
  cfg.workbuf_capacity = 64;
  auto seq_labels = cluster_sequential(wl.ests, cfg).clusters.labels();
  mpr::Runtime rt(5, mpr::CostModel{});
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  rt.run([&](mpr::Communicator& comm) {
    auto res = cluster_parallel(comm, wl.ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) labels = res.labels;
  });
  EXPECT_EQ(labels, seq_labels);
}

TEST(Parallel, BoundedKernelDoesNotChangePartition) {
  // Same verdict-exactness claim under the master/slave protocol: with the
  // bounded kernel on or off, the partition is the sequential exact one.
  const int p = 4;
  auto wl = test_workload();
  auto exact = test_config();
  exact.bounded_align = false;
  auto want = cluster_sequential(wl.ests, exact).clusters.labels();

  for (bool bounded : {false, true}) {
    auto cfg = test_config();
    cfg.bounded_align = bounded;
    mpr::Runtime rt(p, mpr::CostModel{});
    std::vector<std::uint32_t> labels;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      std::lock_guard<std::mutex> lock(mu);
      if (comm.rank() == 0) labels = res.labels;
    });
    EXPECT_EQ(labels, want) << "bounded=" << bounded;
  }
}

TEST(Parallel, VirtualTimeDecreasesWithMoreRanks) {
  // The headline claim: run-times scale with the number of processors.
  auto wl = test_workload(200, 31);
  auto cfg = test_config();
  auto run_at = [&](int p) {
    mpr::Runtime rt(p, mpr::CostModel{});
    double t = 0;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = cluster_parallel(comm, wl.ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        t = res.stats.t_total;
      }
    });
    return t;
  };
  double t2 = run_at(2);   // one slave
  double t5 = run_at(5);   // four slaves
  EXPECT_LT(t5, t2);
  EXPECT_GT(t5, t2 / 8.0);  // sublinear, not magic
}

}  // namespace
}  // namespace estclust::pace
