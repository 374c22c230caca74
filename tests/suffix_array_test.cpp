#include <gtest/gtest.h>

#include <map>

#include "bio/alphabet.hpp"
#include "bio/fasta.hpp"
#include "gst/builder.hpp"
#include "gst/suffix_array.hpp"
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
    seqs.push_back(
        {"e" + std::to_string(i),
         random_dna(rng, min_len + rng.uniform(max_len - min_len + 1))});
  }
  return EstSet(std::move(seqs));
}

/// Workload with heavy shared substrings (the interesting tree shapes).
EstSet overlapping_ests(Prng& rng, std::size_t n) {
  std::string gene = random_dna(rng, 200);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t start = rng.uniform(140);
    seqs.push_back({"r" + std::to_string(i), gene.substr(start, 60)});
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

/// The refinement's chars_scanned, derived from the finished forest. A
/// group of two or more suffixes is scanned once per depth, from its start
/// (w at a bucket root, the parent's depth + 1 below it) to the depth where
/// it branches or ends. That is one internal node or one non-$ leaf; a
/// $-leaf is part of its parent's group and a lone suffix is never scanned.
std::uint64_t derived_chars_scanned(const std::vector<Tree>& forest) {
  std::uint64_t sum = 0;
  for (const Tree& t : forest) {
    auto visit = [&](auto&& self, std::uint32_t v,
                     std::uint32_t start) -> void {
      const std::uint64_t occs = t.num_occurrences(v);
      const bool dollar_leaf = t.depth(v) + 1 == start;
      if (!t.is_leaf(v) || (occs >= 2 && !dollar_leaf)) {
        sum += occs * (t.depth(v) - start + 1);
      }
      t.for_each_child(
          v, [&](std::uint32_t u) { self(self, u, t.depth(v) + 1); });
    };
    visit(visit, 0, t.prefix_depth);
  }
  return sum;
}

/// Builds the forest both ways, requires identical trees and the counted
/// chars_scanned to equal the derived one.
void expect_matches_oracle(const EstSet& ests, std::uint32_t w) {
  BuildCounters counters;
  auto refinement = build_forest_sequential(ests, w, &counters);
  auto from_sa =
      forest_from_suffix_array(ests, build_suffix_array(ests, w), w);
  ASSERT_EQ(refinement.size(), from_sa.size()) << "w=" << w;
  for (std::size_t i = 0; i < refinement.size(); ++i) {
    EXPECT_TRUE(trees_equal(refinement[i], from_sa[i]))
        << "w=" << w << " bucket " << refinement[i].bucket_id;
  }
  EXPECT_EQ(counters.chars_scanned, derived_chars_scanned(refinement))
      << "w=" << w;
}

TEST(SuffixArrayBuild, SortedAndComplete) {
  Prng rng(1);
  EstSet ests = random_ests(rng, 6, 20, 50);
  const std::uint32_t w = 3;
  auto sa = build_suffix_array(ests, w);

  // Completeness: one entry per suffix of length >= w.
  std::size_t expected = 0;
  for (bio::StringId sid = 0; sid < ests.num_strings(); ++sid) {
    auto len = ests.str(sid).size();
    if (len >= w) expected += len - w + 1;
  }
  EXPECT_EQ(sa.order.size(), expected);

  // Sortedness.
  auto suffix = [&](const SuffixOcc& occ) {
    return ests.str(occ.sid).substr(occ.pos);
  };
  for (std::size_t k = 1; k < sa.order.size(); ++k) {
    EXPECT_LE(suffix(sa.order[k - 1]), suffix(sa.order[k]));
  }
}

TEST(SuffixArrayBuild, LcpMatchesBruteForce) {
  Prng rng(2);
  EstSet ests = random_ests(rng, 4, 15, 30);
  auto sa = build_suffix_array(ests, 2);
  auto suffix = [&](const SuffixOcc& occ) {
    return ests.str(occ.sid).substr(occ.pos);
  };
  EXPECT_EQ(sa.lcp[0], 0u);
  for (std::size_t k = 1; k < sa.order.size(); ++k) {
    auto x = suffix(sa.order[k - 1]);
    auto y = suffix(sa.order[k]);
    std::uint32_t l = 0;
    while (l < x.size() && l < y.size() && x[l] == y[l]) ++l;
    EXPECT_EQ(sa.lcp[k], l);
  }
}

class SaCrossValidation : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SaCrossValidation, ForestsIdenticalOnRandomInputs) {
  // Two construction algorithms that share no code must produce exactly
  // the same trees.
  Prng rng(GetParam());
  EstSet ests = random_ests(rng, 5 + rng.uniform(8), 15, 60);
  const std::uint32_t w = 2 + static_cast<std::uint32_t>(rng.uniform(3));

  auto refinement = build_forest_sequential(ests, w);
  auto sa = build_suffix_array(ests, w);
  auto from_sa = forest_from_suffix_array(ests, sa, w);

  ASSERT_EQ(refinement.size(), from_sa.size());
  for (std::size_t i = 0; i < refinement.size(); ++i) {
    EXPECT_TRUE(trees_equal(refinement[i], from_sa[i]))
        << "bucket " << refinement[i].bucket_id << " differs (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaCrossValidation,
                         testing::Range<std::uint64_t>(100, 130));

TEST(SaCrossValidationHeavy, OverlapRichInput) {
  Prng rng(7);
  expect_matches_oracle(overlapping_ests(rng, 20), 4);
}

TEST(SaCrossValidationHeavy, LowComplexityInput) {
  // Poly-A runs and short periods: the nastiest tree shapes.
  EstSet ests({{"a", std::string(40, 'A')},
               {"b", std::string(20, 'A') + std::string(20, 'C')},
               {"c", "ACACACACACACACACACAC"},
               {"d", "ACACACACACACACACACAC"}});
  for (std::uint32_t w : {1u, 2u, 3u}) expect_matches_oracle(ests, w);
}

TEST(SaCrossValidationHeavy, MultiWordRuns) {
  // Reads cut from one gene share runs of hundreds of bases, so unary
  // extension spans several 32-base words and, over all groups, stops at
  // every offset mod 32. The poly-A string's suffixes share runs up to
  // their own ends, and the two identical strings end in one leaf.
  Prng rng(11);
  const std::string gene = random_dna(rng, 1000);
  std::vector<Sequence> seqs;
  for (int i = 0; i < 20; ++i) {
    const std::size_t len = 150 + rng.uniform(251);
    const std::size_t start = rng.uniform(gene.size() - len + 1);
    seqs.push_back({"r" + std::to_string(i), gene.substr(start, len)});
  }
  seqs.push_back({"polyA", std::string(100, 'A')});
  const std::string twin = random_dna(rng, 64);
  seqs.push_back({"twin1", twin});
  seqs.push_back({"twin2", twin});
  const EstSet ests(std::move(seqs));
  for (std::uint32_t w : {2u, 4u, 6u}) expect_matches_oracle(ests, w);
}

TEST(SaCrossValidationHeavy, GoldenFixturesChargeDerivedChars) {
  for (const char* fixture : {"golden_small", "golden_noisy"}) {
    SCOPED_TRACE(fixture);
    const EstSet ests(bio::read_fasta_file(
        std::string(ESTCLUST_TEST_DATA_DIR) + "/" + fixture + ".fasta"));
    expect_matches_oracle(ests, 6);
  }
}

TEST(SaForest, ValidatesStructurally) {
  Prng rng(9);
  EstSet ests = random_ests(rng, 6, 20, 50);
  auto forest = forest_from_suffix_array(
      ests, build_suffix_array(ests, 3), 3);
  for (const auto& t : forest) t.validate(ests);
}

}  // namespace
}  // namespace estclust::gst
