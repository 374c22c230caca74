#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "bio/fasta.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "gst/tree.hpp"
#include "mpr/runtime.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#ifndef ESTCLUST_TEST_DATA_DIR
#error "ESTCLUST_TEST_DATA_DIR must be defined by the build"
#endif

namespace estclust::gst {
namespace {

using bio::EstSet;
using bio::Sequence;

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

EstSet random_ests(Prng& rng, std::size_t n, std::size_t min_len,
                   std::size_t max_len) {
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back({"e" + std::to_string(i),
                    random_dna(rng, min_len + rng.uniform(max_len - min_len + 1))});
  }
  return EstSet(std::move(seqs));
}

bool nodes_equal(const Node& a, const Node& b) {
  return a.rightmost == b.rightmost && a.depth == b.depth &&
         a.occ_begin == b.occ_begin && a.occ_end == b.occ_end;
}

bool trees_equal(const Tree& a, const Tree& b) {
  if (a.bucket_id != b.bucket_id || a.prefix_depth != b.prefix_depth)
    return false;
  if (a.nodes.size() != b.nodes.size() || a.occs.size() != b.occs.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (!nodes_equal(a.nodes[i], b.nodes[i])) return false;
  }
  for (std::size_t i = 0; i < a.occs.size(); ++i) {
    if (!(a.occs[i] == b.occs[i])) return false;
  }
  return true;
}

TEST(BucketOf, LexicographicBase4) {
  EXPECT_EQ(bucket_of("AAAA", 0, 2), 0u);
  EXPECT_EQ(bucket_of("ACAA", 0, 2), 1u);
  EXPECT_EQ(bucket_of("TTAA", 0, 2), 15u);
  EXPECT_EQ(bucket_of("GATT", 1, 2), 0u * 4 + 3u);  // "AT"
}

TEST(NumBuckets, PowersOfFour) {
  EXPECT_EQ(num_buckets(1), 4u);
  EXPECT_EQ(num_buckets(8), 65536u);
  EXPECT_THROW(num_buckets(0), CheckError);
  EXPECT_THROW(num_buckets(12), CheckError);
}

TEST(CollectSuffixes, EnumeratesAllLongEnoughSuffixes) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, 2, 2, out);
  // "ACGT": suffixes >= 2 at pos 0,1,2; "ACGT" rc = "ACGT": same count.
  EXPECT_EQ(out.size(), 6u);
  for (const auto& bs : out) {
    auto s = ests.str(bs.occ.sid);
    EXPECT_EQ(bs.bucket, bucket_of(s, bs.occ.pos, 2));
    EXPECT_GE(s.size() - bs.occ.pos, 2u);
  }
}

TEST(CollectSuffixes, DropsShortStringsEntirely) {
  EstSet ests(std::vector<Sequence>{{"a", "AC"}});
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, 2, 3, out);
  EXPECT_TRUE(out.empty());
}

TEST(CollectSuffixes, RollingBucketMatchesDirect) {
  Prng rng(1);
  EstSet ests = random_ests(rng, 5, 20, 60);
  std::vector<BucketedSuffix> out;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), 4,
                   out);
  for (const auto& bs : out) {
    EXPECT_EQ(bs.bucket, bucket_of(ests.str(bs.occ.sid), bs.occ.pos, 4));
  }
}

TEST(BuildBucketTree, HandComputedExample) {
  // Suffixes of "ACAC" in bucket 'A' (w=1): "ACAC" and "AC". They share
  // prefix "AC"; one ends there ($-leaf), the other continues.
  EstSet ests(std::vector<Sequence>{{"a", "ACAC"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket = {{0, 0}, {0, 2}};
  Tree t = build_bucket_tree(ests, bucket, 1, 0, c);
  ASSERT_EQ(t.nodes.size(), 3u);
  EXPECT_FALSE(t.is_leaf(0));
  EXPECT_EQ(t.depth(0), 2u);            // branch node "AC"
  EXPECT_TRUE(t.is_leaf(1));
  EXPECT_EQ(t.depth(1), 2u);            // $-leaf for suffix "AC"
  EXPECT_TRUE(t.is_leaf(2));
  EXPECT_EQ(t.depth(2), 4u);            // leaf for suffix "ACAC"
  EXPECT_EQ(t.nodes[0].rightmost, 2u);
  t.validate(ests);
}

TEST(BuildBucketTree, SingletonBucketIsOneLeaf) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGTACGT"}});
  BuildCounters c;
  Tree t = build_bucket_tree(ests, {{0, 2}}, 2, bucket_of("GT", 0, 2), c);
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.depth(0), 6u);  // whole remaining suffix "GTACGT"
  t.validate(ests);
}

TEST(BuildBucketTree, IdenticalSuffixesCoalesceIntoOneLeaf) {
  // Two distinct ESTs with the same content: every suffix pair coalesces.
  EstSet ests({{"a", "ACGT"}, {"b", "ACGT"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket = {{0, 0}, {2, 0}};  // both "ACGT"
  Tree t = build_bucket_tree(ests, bucket, 2, bucket_of("AC", 0, 2), c);
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.occurrences(0).size(), 2u);
  EXPECT_EQ(t.depth(0), 4u);
  t.validate(ests);
}

TEST(BuildBucketTree, PolyARepeatBuildsDeepChain) {
  EstSet ests(std::vector<Sequence>{{"a", std::string(12, 'A') + "C"}});
  BuildCounters c;
  std::vector<SuffixOcc> bucket;
  // All suffixes starting with 'A'.
  for (std::uint32_t pos = 0; pos < 12; ++pos) bucket.push_back({0, pos});
  Tree t = build_bucket_tree(ests, bucket, 1, 0, c);
  t.validate(ests);
  // Every suffix is distinct (different distances to the final C): 12
  // leaves, each its own occurrence.
  std::uint32_t leaves = t.num_leaves(0);
  EXPECT_EQ(leaves, 12u);
  EXPECT_EQ(t.num_occurrences(0), 12u);
}

TEST(BuildBucketTree, ValidateRejectsRangesThatDoNotTile) {
  // Every internal node's occurrence range is its children's ranges laid
  // end to end; the pair walk reads each node's lsets out of it.
  Prng rng(5);
  EstSet ests = random_ests(rng, 4, 30, 50);
  std::size_t checked = 0;
  for (const Tree& t : build_forest_sequential(ests, 2)) {
    t.validate(ests);
    for (std::uint32_t v = 1; v < t.size(); ++v) {
      if (t.is_leaf(v)) continue;
      EXPECT_EQ(t.num_occurrences(v), t.occurrences(v).size());
      Tree broken = t;
      --broken.nodes[v].occ_end;
      EXPECT_THROW(broken.validate(ests), CheckError);
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(BuildBucketTree, CanonicalRegardlessOfInputOrder) {
  Prng rng(2);
  EstSet ests = random_ests(rng, 4, 30, 50);
  std::vector<BucketedSuffix> all;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), 2,
                   all);
  // Pick the largest bucket.
  std::map<std::uint64_t, std::vector<SuffixOcc>> groups;
  for (const auto& bs : all) groups[bs.bucket].push_back(bs.occ);
  auto it = groups.begin();
  for (auto g = groups.begin(); g != groups.end(); ++g) {
    if (g->second.size() > it->second.size()) it = g;
  }
  auto forward = it->second;
  auto reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  BuildCounters c1, c2;
  Tree t1 = build_bucket_tree(ests, forward, 2, it->first, c1);
  Tree t2 = build_bucket_tree(ests, reversed, 2, it->first, c2);
  EXPECT_TRUE(trees_equal(t1, t2));
}

TEST(RefineBuckets, AnyInputOrderGivesTheSequentialForest) {
  // refine_buckets groups its input with a stable counting sort, and
  // build_bucket_tree sorts a bucket only when it does not arrive in
  // (sid, pos) order. Shuffled input takes that sort in every bucket of
  // more than one suffix and must still give the sequential forest.
  EstSet ests(bio::read_fasta_file(std::string(ESTCLUST_TEST_DATA_DIR) +
                                   "/golden_small.fasta"));
  constexpr std::uint32_t kW = 6;
  BuildCounters seq_counters;
  const std::vector<Tree> expected =
      build_forest_sequential(ests, kW, &seq_counters);
  std::vector<BucketedSuffix> suffixes;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()),
                   kW, suffixes);
  std::mt19937_64 rng(7);
  std::shuffle(suffixes.begin(), suffixes.end(), rng);
  BuildCounters counters;
  const std::vector<Tree> forest =
      refine_buckets(ests, std::move(suffixes), kW, counters);
  ASSERT_EQ(forest.size(), expected.size());
  for (std::size_t i = 0; i < forest.size(); ++i) {
    EXPECT_TRUE(trees_equal(forest[i], expected[i])) << "tree " << i;
  }
  EXPECT_EQ(counters.suffixes, seq_counters.suffixes);
  EXPECT_EQ(counters.chars_scanned, seq_counters.chars_scanned);
  EXPECT_EQ(counters.nodes, seq_counters.nodes);
}

TEST(SequentialForest, EverySuffixAppearsExactlyOnce) {
  Prng rng(3);
  EstSet ests = random_ests(rng, 8, 25, 60);
  const std::uint32_t w = 3;
  auto forest = build_forest_sequential(ests, w);
  std::set<std::pair<bio::StringId, std::uint32_t>> seen;
  std::size_t total = 0;
  for (const auto& t : forest) {
    t.validate(ests);
    for (const auto& occ : t.occs) {
      EXPECT_TRUE(seen.insert({occ.sid, occ.pos}).second)
          << "duplicate suffix sid=" << occ.sid << " pos=" << occ.pos;
      ++total;
    }
  }
  // Expected count: all suffixes of length >= w over all 2n strings.
  std::size_t expected = 0;
  for (bio::StringId sid = 0; sid < ests.num_strings(); ++sid) {
    auto len = ests.str(sid).size();
    if (len >= w) expected += len - w + 1;
  }
  EXPECT_EQ(total, expected);
}

TEST(SequentialForest, TreesSortedByBucketAndPrefixConsistent) {
  Prng rng(4);
  EstSet ests = random_ests(rng, 5, 20, 40);
  const std::uint32_t w = 2;
  auto forest = build_forest_sequential(ests, w);
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& t : forest) {
    if (!first) {
      EXPECT_GT(t.bucket_id, prev);
    }
    prev = t.bucket_id;
    first = false;
    // All occurrences in the tree start with the bucket's w-prefix.
    for (const auto& occ : t.occs) {
      EXPECT_EQ(bucket_of(ests.str(occ.sid), occ.pos, w), t.bucket_id);
    }
  }
}

TEST(SequentialForest, NodeCountLinearInSuffixCount) {
  Prng rng(5);
  EstSet ests = random_ests(rng, 20, 40, 80);
  BuildCounters c;
  auto forest = build_forest_sequential(ests, 3, &c);
  std::size_t nodes = 0;
  for (const auto& t : forest) nodes += t.nodes.size();
  EXPECT_LE(nodes, 2 * c.suffixes);  // at most 2k-1 nodes for k suffixes
  EXPECT_EQ(nodes, c.nodes);
}

TEST(SequentialForest, StorageBytesLinearInInput) {
  Prng rng(6);
  EstSet ests = random_ests(rng, 30, 60, 100);
  auto forest = build_forest_sequential(ests, 4);
  std::size_t bytes = 0;
  for (const auto& t : forest) bytes += t.storage_bytes();
  // <= (16 bytes/node) * 2 * suffixes + 8 bytes/occ ~ 40 bytes per input
  // char. The point is linearity with a modest constant, not the constant
  // itself.
  EXPECT_LE(bytes, 48 * ests.total_string_chars());
}

TEST(Navigation, ChildIterationCoversSubtreeExactly) {
  Prng rng(7);
  EstSet ests = random_ests(rng, 6, 30, 60);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      if (t.is_leaf(v)) continue;
      // Children tile [v+1, rightmost]: each child's range abuts the next.
      std::uint32_t expected = v + 1;
      t.for_each_child(v, [&](std::uint32_t u) {
        EXPECT_EQ(u, expected);
        expected = t.nodes[u].rightmost + 1;
      });
      EXPECT_EQ(expected, t.nodes[v].rightmost + 1);
    }
  }
}

TEST(Navigation, PathLabelHasNodeDepth) {
  Prng rng(8);
  EstSet ests = random_ests(rng, 4, 25, 40);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      EXPECT_EQ(t.path_label(ests, v).size(), t.depth(v));
    }
  }
}

TEST(Navigation, NumChildrenAndLeafCounts) {
  Prng rng(21);
  EstSet ests = random_ests(rng, 5, 25, 50);
  auto forest = build_forest_sequential(ests, 2);
  for (const auto& t : forest) {
    for (std::uint32_t v = 0; v < t.size(); ++v) {
      if (t.is_leaf(v)) {
        EXPECT_EQ(t.num_children(v), 0u);
        EXPECT_EQ(t.num_leaves(v), 1u);
      } else {
        EXPECT_GE(t.num_children(v), 2u);
        // Leaves of children partition the node's leaves.
        std::uint32_t child_leaves = 0;
        t.for_each_child(v, [&](std::uint32_t u) {
          child_leaves += t.num_leaves(u);
        });
        EXPECT_EQ(child_leaves, t.num_leaves(v));
      }
    }
  }
}

TEST(Navigation, PathLabelOfLeafIsTheSuffix) {
  EstSet ests(std::vector<Sequence>{{"a", "GATTACA"}});
  BuildCounters c;
  Tree t = build_bucket_tree(ests, {{0, 3}}, 2, bucket_of("TA", 0, 2), c);
  ASSERT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.path_label(ests, 0), "TACA");
}

TEST(LeftExtension, LambdaAtStringStart) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  EXPECT_EQ(left_extension_code(ests, {0, 0}), bio::kLambdaCode);
  EXPECT_EQ(left_extension_code(ests, {0, 1}), bio::encode_base('A'));
  EXPECT_EQ(left_extension_code(ests, {0, 3}), bio::encode_base('G'));
}

TEST(PartitionEsts, CoversAllWithoutOverlap) {
  Prng rng(9);
  EstSet ests = random_ests(rng, 23, 10, 100);
  for (int p : {1, 2, 3, 5, 8, 23, 40}) {
    auto ranges = partition_ests(ests, p);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(p));
    bio::EstId next = 0;
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, next);
      EXPECT_LE(lo, hi);
      next = hi;
    }
    EXPECT_EQ(next, ests.num_ests());
  }
}

TEST(PartitionEsts, RoughCharacterBalance) {
  Prng rng(10);
  EstSet ests = random_ests(rng, 100, 50, 51);
  auto ranges = partition_ests(ests, 4);
  for (const auto& [lo, hi] : ranges) {
    std::size_t chars = 0;
    for (bio::EstId i = lo; i < hi; ++i) chars += ests.est(i).bases.size();
    EXPECT_NEAR(static_cast<double>(chars),
                static_cast<double>(ests.total_est_chars()) / 4.0,
                60.0);  // within ~one EST of the target
  }
}

TEST(AssignBuckets, BalancedLoads) {
  // Dense histogram with empty buckets interleaved.
  const std::vector<std::uint64_t> hist = {100, 0, 90, 80, 70, 0,
                                           30,  20, 10, 5,  0};
  auto owner = assign_buckets(hist, 3);
  ASSERT_EQ(owner.size(), hist.size());
  std::vector<std::uint64_t> load(3, 0);
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) {
      EXPECT_EQ(owner[b], -1) << "empty bucket " << b << " has an owner";
      continue;
    }
    ASSERT_GE(owner[b], 0);
    ASSERT_LT(owner[b], 3);
    load[owner[b]] += hist[b];
  }
  auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx - *mn, 100u);  // no worse than the largest bucket
}

TEST(AssignBuckets, MorePRanksThanBuckets) {
  std::vector<std::uint64_t> hist(8, 0);
  hist[7] = 42;
  auto owner = assign_buckets(hist, 8);
  ASSERT_EQ(owner.size(), 8u);
  for (int b = 0; b < 7; ++b) EXPECT_EQ(owner[b], -1);
  EXPECT_EQ(owner[7], 0);
}

TEST(AssignBuckets, EqualSizesGoToRanksInAscendingBucketOrder) {
  // Four equal buckets, two ranks: the lower bucket id is placed first, so
  // it takes the lower rank when loads tie.
  const std::vector<std::uint64_t> hist = {0, 5, 0, 5, 5, 5};
  EXPECT_EQ(assign_buckets(hist, 2), (std::vector<int>{-1, 0, -1, 1, 0, 1}));
  // A larger bucket still goes first, whatever its id.
  const std::vector<std::uint64_t> skewed = {5, 5, 9};
  EXPECT_EQ(assign_buckets(skewed, 3), (std::vector<int>{1, 2, 0}));
}

class ParallelGstTest : public testing::TestWithParam<int> {};

TEST_P(ParallelGstTest, MatchesSequentialForest) {
  const int p = GetParam();
  Prng rng(42);
  EstSet ests = random_ests(rng, 12, 30, 70);
  GstConfig cfg;
  cfg.window = 3;

  auto sequential = build_forest_sequential(ests, cfg.window);

  std::mutex mu;
  std::map<std::uint64_t, Tree> parallel_trees;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    auto local = build_forest_parallel(comm, ests, cfg);
    std::lock_guard<std::mutex> lock(mu);
    for (auto& t : local) {
      auto [it, inserted] = parallel_trees.emplace(t.bucket_id, std::move(t));
      EXPECT_TRUE(inserted) << "bucket on two ranks";
      (void)it;
    }
  });

  ASSERT_EQ(parallel_trees.size(), sequential.size());
  for (const auto& st : sequential) {
    auto it = parallel_trees.find(st.bucket_id);
    ASSERT_NE(it, parallel_trees.end());
    EXPECT_TRUE(trees_equal(st, it->second))
        << "bucket " << st.bucket_id << " differs at p=" << p;
  }
}

TEST_P(ParallelGstTest, StatsAreConsistent) {
  const int p = GetParam();
  Prng rng(43);
  EstSet ests = random_ests(rng, 10, 30, 60);
  GstConfig cfg;
  cfg.window = 2;

  std::mutex mu;
  std::uint64_t total_local = 0;
  std::uint64_t global_seen = 0;
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    ParallelBuildStats st;
    auto local = build_forest_parallel(comm, ests, cfg, &st);
    std::size_t occs = 0;
    for (const auto& t : local) occs += t.occs.size();
    EXPECT_EQ(st.local_suffixes, occs);
    EXPECT_EQ(st.local_buckets, local.size());
    EXPECT_GE(st.partition_vtime, 0.0);
    EXPECT_GE(st.build_vtime, 0.0);
    std::lock_guard<std::mutex> lock(mu);
    total_local += st.local_suffixes;
    global_seen = st.global_suffixes;
  });
  EXPECT_EQ(total_local, global_seen);
}

// The offline recomputation of one rank's share (used to regenerate a dead
// slave's pairs) must reproduce exactly what the collective build gave it.
TEST_P(ParallelGstTest, RebuildMatchesRankShare) {
  const int p = GetParam();
  Prng rng(45);
  EstSet ests = random_ests(rng, 12, 30, 70);
  GstConfig cfg;
  cfg.window = 3;
  for (int first_owner_rank : {0, 1}) {
    if (first_owner_rank >= p) continue;
    SCOPED_TRACE("first_owner_rank=" + std::to_string(first_owner_rank));
    std::vector<std::vector<Tree>> forests(p);
    std::vector<ParallelBuildStats> stats(p);
    mpr::Runtime rt(p, mpr::CostModel{});
    rt.run([&](mpr::Communicator& comm) {
      const int r = comm.rank();
      forests[r] =
          build_forest_parallel(comm, ests, cfg, &stats[r], first_owner_rank);
    });
    for (int r = 0; r < first_owner_rank; ++r) {
      EXPECT_TRUE(forests[r].empty()) << "non-owner rank " << r;
    }
    for (int r = first_owner_rank; r < p; ++r) {
      SCOPED_TRACE("rank=" + std::to_string(r));
      BuildCounters bc;
      auto rebuilt =
          rebuild_rank_forest(ests, cfg, p, first_owner_rank, r, &bc);
      ASSERT_EQ(rebuilt.size(), forests[r].size());
      for (std::size_t i = 0; i < rebuilt.size(); ++i) {
        EXPECT_TRUE(trees_equal(rebuilt[i], forests[r][i]))
            << "bucket " << forests[r][i].bucket_id;
      }
      EXPECT_EQ(bc.chars_scanned, stats[r].chars_scanned);

      std::uint64_t scanned = 0;
      auto ids = owned_bucket_ids(ests, cfg, p, first_owner_rank, r, &scanned);
      std::vector<std::uint64_t> tree_ids;
      for (const auto& t : forests[r]) tree_ids.push_back(t.bucket_id);
      EXPECT_EQ(ids, tree_ids);
      EXPECT_EQ(scanned, stats[r].global_suffixes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelGstTest,
                         testing::Values(1, 2, 3, 4, 8));

TEST(ParallelGst, LoadRoughlyBalancedAcrossRanks) {
  Prng rng(44);
  EstSet ests = random_ests(rng, 60, 80, 120);
  GstConfig cfg;
  cfg.window = 3;
  const int p = 4;
  std::mutex mu;
  std::vector<std::uint64_t> per_rank(p, 0);
  mpr::Runtime rt(p, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    ParallelBuildStats st;
    build_forest_parallel(comm, ests, cfg, &st);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[comm.rank()] = st.local_suffixes;
  });
  auto [mn, mx] = std::minmax_element(per_rank.begin(), per_rank.end());
  EXPECT_GT(*mn, 0u);
  // Greedy assignment: max load within 2x of min for many small buckets.
  EXPECT_LT(static_cast<double>(*mx), 2.0 * static_cast<double>(*mn));
}

}  // namespace
}  // namespace estclust::gst
