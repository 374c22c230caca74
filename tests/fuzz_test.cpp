// Randomized property tests spanning modules: the fast kernels and data
// structures are cross-checked against their reference oracles over many
// seeds.
//
// ESTCLUST_FUZZ_SEED=<n> offsets every seed by n, exploring a fresh slice
// of the input space without a recompile. Each test records its effective
// seed via SCOPED_TRACE, so a failure message always names the seed to
// reproduce with.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "align/banded.hpp"
#include "align/kernel.hpp"
#include "align/nw.hpp"
#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "gst/suffix_array.hpp"
#include "pairgen/generator.hpp"
#include "pairgen/source.hpp"
#include "quality/metrics.hpp"
#include "util/prng.hpp"

namespace estclust {
namespace {

/// Environment-settable seed offset (0 when unset). Applied on top of the
/// per-test parameter so one env var re-seeds the whole suite.
std::uint64_t fuzz_seed_offset() {
  static const std::uint64_t offset = [] {
    const char* v = std::getenv("ESTCLUST_FUZZ_SEED");
    return v == nullptr ? 0ull : std::strtoull(v, nullptr, 10);
  }();
  return offset;
}

/// The effective seed for a test instance: its base parameter plus the
/// environment offset.
std::uint64_t fuzz_seed(std::uint64_t base) {
  return base + fuzz_seed_offset();
}

/// Message naming the failing seed and how to re-run it.
std::string seed_trace(std::uint64_t seed) {
  return "effective fuzz seed " + std::to_string(seed) +
         " (ESTCLUST_FUZZ_SEED offset " +
         std::to_string(fuzz_seed_offset()) + ")";
}

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

std::string mutate(Prng& rng, const std::string& s, double sub, double ins,
                   double del) {
  std::string out;
  for (char c : s) {
    if (rng.bernoulli(del)) continue;
    if (rng.bernoulli(ins)) {
      out.push_back(bio::decode_base(static_cast<int>(rng.uniform(4))));
    }
    if (rng.bernoulli(sub)) {
      out.push_back(bio::decode_base(
          (bio::encode_base(c) + 1 + static_cast<int>(rng.uniform(3))) % 4));
    } else {
      out.push_back(c);
    }
  }
  if (out.empty()) out = "A";
  return out;
}

class AlignFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignFuzz, BandedExtensionAgreesWithReferenceWideBand) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::string a = random_dna(rng, rng.uniform(50));
  std::string b = rng.bernoulli(0.5) ? mutate(rng, a, 0.1, 0.05, 0.05)
                                     : random_dna(rng, rng.uniform(50));
  align::Scoring sc;
  auto fast = align::extend_overlap(a, b, sc, a.size() + b.size() + 1);
  auto ref = align::extend_overlap_reference(a, b, sc);
  EXPECT_EQ(fast.score, ref.score) << "a=" << a << " b=" << b;
  EXPECT_EQ(fast.a_len, ref.a_len);
  EXPECT_EQ(fast.b_len, ref.b_len);
}

TEST_P(AlignFuzz, NarrowerBandNeverScoresHigher) {
  const std::uint64_t seed = fuzz_seed(GetParam() + 5000);
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::string a = random_dna(rng, 10 + rng.uniform(40));
  std::string b = mutate(rng, a, 0.08, 0.02, 0.02);
  align::Scoring sc;
  long prev = std::numeric_limits<long>::min();
  for (std::size_t band : {2u, 4u, 8u, 16u, 64u}) {
    long s = align::extend_overlap(a, b, sc, band).score;
    EXPECT_GE(s, prev) << "band " << band;
    prev = s;
  }
}

TEST_P(AlignFuzz, GlobalScoreBounds) {
  const std::uint64_t seed = fuzz_seed(GetParam() + 9000);
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::string a = random_dna(rng, 1 + rng.uniform(40));
  std::string b = random_dna(rng, 1 + rng.uniform(40));
  align::Scoring sc;
  auto g = align::global_align(a, b, sc);
  // Upper bound: all of the shorter string matches, rest gaps.
  long upper = sc.ideal(std::min(a.size(), b.size())) +
               static_cast<long>(
                   (std::max(a.size(), b.size()) -
                    std::min(a.size(), b.size()))) *
                   sc.gap;
  // Lower bound: delete everything, insert everything.
  long lower = static_cast<long>(a.size() + b.size()) * sc.gap;
  EXPECT_LE(g.score, upper);
  EXPECT_GE(g.score, lower);
  // Local alignment dominates global; affine-local dominates zero.
  EXPECT_GE(align::local_align(a, b, sc).score, g.score);
  EXPECT_GE(align::local_align_affine(a, b, sc).score, 0);
}

TEST_P(AlignFuzz, KernelVariantsAgreeWithScalar) {
  // Scalar-vs-SIMD differential: every variant the host supports must
  // reproduce the scalar banded extension bit for bit on random pairs —
  // including `cells` and `capped` — under random bands and random
  // give-up bounds. Re-seedable via ESTCLUST_FUZZ_SEED like the rest of
  // the suite.
  const std::uint64_t seed = fuzz_seed(GetParam() + 13000);
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  align::Scoring sc;
  align::AlignArena arena;
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = random_dna(rng, rng.uniform(120));
    std::string b = rng.bernoulli(0.5) ? mutate(rng, a, 0.1, 0.04, 0.04)
                                       : random_dna(rng, rng.uniform(120));
    const std::size_t band = rng.uniform(20);
    const long give_up =
        rng.bernoulli(0.5)
            ? align::kNoGiveUp
            : static_cast<long>(rng.uniform(240)) - 120;
    const auto scalar = align::extend_overlap_variant(
        align::KernelVariant::kScalar, a, b, sc, band, arena, give_up);
    for (auto v : {align::KernelVariant::kSse2, align::KernelVariant::kAvx2}) {
      if (!align::cpu_supports(v)) continue;
      const auto simd =
          align::extend_overlap_variant(v, a, b, sc, band, arena, give_up);
      ASSERT_EQ(simd.score, scalar.score)
          << align::to_string(v) << " iter " << iter << " band " << band
          << " give_up " << give_up << " a=" << a << " b=" << b;
      ASSERT_EQ(simd.a_len, scalar.a_len) << align::to_string(v);
      ASSERT_EQ(simd.b_len, scalar.b_len) << align::to_string(v);
      ASSERT_EQ(simd.a_exhausted, scalar.a_exhausted) << align::to_string(v);
      ASSERT_EQ(simd.b_exhausted, scalar.b_exhausted) << align::to_string(v);
      ASSERT_EQ(simd.cells, scalar.cells)
          << align::to_string(v) << " iter " << iter << " band " << band
          << " give_up " << give_up << " a=" << a << " b=" << b;
      ASSERT_EQ(simd.capped, scalar.capped) << align::to_string(v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignFuzz,
                         testing::Range<std::uint64_t>(1, 40));

class GstFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GstFuzz, RefinementForestMatchesSuffixArrayOracle) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  // Mix of unrelated and overlapping sequences, occasional duplicates.
  std::vector<bio::Sequence> seqs;
  std::string gene = random_dna(rng, 120);
  const std::size_t n = 3 + rng.uniform(8);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s;
    switch (rng.uniform(4)) {
      case 0:
        s = random_dna(rng, 10 + rng.uniform(60));
        break;
      case 1: {
        std::size_t start = rng.uniform(80);
        s = gene.substr(start, 40 + rng.uniform(40));
        break;
      }
      case 2:
        s = seqs.empty() ? random_dna(rng, 30)
                         : seqs[rng.uniform(seqs.size())].bases;
        break;
      default:
        s = std::string(10 + rng.uniform(30), 'A');  // low complexity
        break;
    }
    if (s.size() < 5) s += random_dna(rng, 5);
    seqs.push_back({"s" + std::to_string(i), s});
  }
  bio::EstSet ests(std::move(seqs));
  const std::uint32_t w = 1 + static_cast<std::uint32_t>(rng.uniform(4));

  auto refinement = gst::build_forest_sequential(ests, w);
  auto oracle = gst::forest_from_suffix_array(
      ests, gst::build_suffix_array(ests, w), w);
  ASSERT_EQ(refinement.size(), oracle.size()) << "seed " << GetParam();
  for (std::size_t i = 0; i < refinement.size(); ++i) {
    const auto& a = refinement[i];
    const auto& b = oracle[i];
    ASSERT_EQ(a.bucket_id, b.bucket_id);
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "bucket " << a.bucket_id;
    for (std::size_t k = 0; k < a.nodes.size(); ++k) {
      EXPECT_EQ(a.nodes[k].rightmost, b.nodes[k].rightmost);
      EXPECT_EQ(a.nodes[k].depth, b.nodes[k].depth);
      EXPECT_EQ(a.nodes[k].occ_begin, b.nodes[k].occ_begin);
      EXPECT_EQ(a.nodes[k].occ_end, b.nodes[k].occ_end);
    }
    for (std::size_t k = 0; k < a.occs.size(); ++k) {
      EXPECT_TRUE(a.occs[k] == b.occs[k]);
    }
    a.validate(ests);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GstFuzz,
                         testing::Range<std::uint64_t>(300, 340));

class PairgenFuzz : public testing::TestWithParam<std::uint64_t> {};

std::size_t lcs_len(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      cur[j] = (a[i - 1] == b[j - 1]) ? prev[j - 1] + 1 : 0;
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

TEST_P(PairgenFuzz, GeneratedPairsEqualBruteForceAcrossSeeds) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::string gene = random_dna(rng, 150);
  std::vector<bio::Sequence> seqs;
  const std::size_t n = 4 + rng.uniform(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s;
    if (rng.bernoulli(0.6)) {
      std::size_t start = rng.uniform(100);
      s = gene.substr(start, 50);
      if (rng.bernoulli(0.5)) s = bio::reverse_complement(s);
    } else {
      s = random_dna(rng, 50);
    }
    seqs.push_back({"e" + std::to_string(i), s});
  }
  bio::EstSet ests(std::move(seqs));
  const std::uint32_t psi = 12 + static_cast<std::uint32_t>(rng.uniform(8));
  auto forest = gst::build_forest_sequential(ests, 4);
  pairgen::PairGenerator gen(ests, forest, psi);

  std::set<std::pair<bio::EstId, bio::EstId>> generated;
  std::vector<pairgen::PromisingPair> batch;
  while (gen.next_batch(1024, batch) > 0) {
    for (const auto& p : batch) generated.insert({p.a, p.b});
    batch.clear();
  }

  std::set<std::pair<bio::EstId, bio::EstId>> expected;
  for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
    for (bio::EstId j = i + 1; j < ests.num_ests(); ++j) {
      auto ei = ests.str(bio::EstSet::forward_sid(i));
      if (lcs_len(ei, ests.str(bio::EstSet::forward_sid(j))) >= psi ||
          lcs_len(ei, ests.str(bio::EstSet::rc_sid(j))) >= psi) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(generated, expected) << "seed " << GetParam() << " psi " << psi;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairgenFuzz,
                         testing::Range<std::uint64_t>(600, 625));

/// Differential fuzzing across PairSource backends: the k-mer filter must
/// agree with the GST generator at the granularity the drivers consume
/// (EST pairs, stream order, anchor maximality). The GST walk may merge
/// two identical maximal substrings into one emission (per-node duplicate
/// elimination), so at the record level GST ⊆ kmer rather than equality.
class PairSourceFuzz : public testing::TestWithParam<std::uint64_t> {};

using PairRecord = std::tuple<bio::EstId, bio::EstId, bool, std::uint32_t,
                              std::uint32_t, std::uint32_t>;

std::vector<PairRecord> drain_records(pairgen::PairSource& gen) {
  std::vector<pairgen::PromisingPair> batch;
  std::vector<PairRecord> out;
  while (gen.next_batch(1024, batch) > 0) {
    for (const auto& p : batch) {
      out.emplace_back(p.a, p.b, p.b_rc, p.match_len, p.a_pos, p.b_pos);
    }
    batch.clear();
  }
  return out;
}

TEST_P(PairSourceFuzz, BackendsAgreeOnRandomDatasets) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::string gene = random_dna(rng, 120 + rng.uniform(120));
  std::vector<bio::Sequence> seqs;
  const std::size_t n = 4 + rng.uniform(8);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s;
    switch (rng.uniform(4)) {
      case 0:
        s = random_dna(rng, 40 + rng.uniform(30));
        break;
      case 1:  // duplicate an earlier EST now and then
        s = seqs.empty() ? random_dna(rng, 45)
                         : seqs[rng.uniform(seqs.size())].bases;
        break;
      default: {
        std::size_t start = rng.uniform(gene.size() - 55);
        s = gene.substr(start, 40 + rng.uniform(15));
        if (rng.bernoulli(0.5)) s = bio::reverse_complement(s);
        break;
      }
    }
    seqs.push_back({"e" + std::to_string(i), s});
  }
  bio::EstSet ests(std::move(seqs));
  const std::uint32_t w = 4;
  const std::uint32_t psi = 12 + static_cast<std::uint32_t>(rng.uniform(8));
  auto forest = gst::build_forest_sequential(ests, w);

  auto gst_gen =
      pairgen::make_pair_source(pairgen::Backend::kGst, ests, forest, w, psi);
  auto kmer_gen = pairgen::make_pair_source_for_buckets(
      pairgen::Backend::kKmer, ests,
      gst::owned_bucket_ids(ests, gst::GstConfig{w}, 1, 0, 0), w, psi);
  const auto gst_records = drain_records(*gst_gen);
  const auto kmer_records = drain_records(*kmer_gen);

  // The kmer stream is duplicate-free and non-increasing in match length.
  std::set<PairRecord> kmer_set(kmer_records.begin(), kmer_records.end());
  EXPECT_EQ(kmer_set.size(), kmer_records.size()) << "duplicate records";
  for (std::size_t i = 1; i < kmer_records.size(); ++i) {
    EXPECT_LE(std::get<3>(kmer_records[i]), std::get<3>(kmer_records[i - 1]));
  }

  // Every GST record is found by kmer too (the converse can fail only
  // through GST's distinct-substring merging).
  for (const auto& r : gst_records) {
    EXPECT_TRUE(kmer_set.count(r) > 0)
        << "gst record (" << std::get<0>(r) << "," << std::get<1>(r)
        << ",rc=" << std::get<2>(r) << ",len=" << std::get<3>(r)
        << ") missing from kmer";
  }

  // At the granularity the clustering consumes — which ESTs get paired —
  // both backends agree exactly (Lemma 3 holds for each).
  std::set<std::pair<bio::EstId, bio::EstId>> gst_pairs, kmer_pairs;
  for (const auto& r : gst_records) {
    gst_pairs.insert({std::get<0>(r), std::get<1>(r)});
  }
  for (const auto& r : kmer_records) {
    kmer_pairs.insert({std::get<0>(r), std::get<1>(r)});
  }
  EXPECT_EQ(gst_pairs, kmer_pairs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairSourceFuzz,
                         testing::Range<std::uint64_t>(800, 830));

class QualityFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(QualityFuzz, FastCounterMatchesReference) {
  const std::uint64_t seed = fuzz_seed(GetParam());
  SCOPED_TRACE(seed_trace(seed));
  Prng rng(seed);
  std::size_t n = 5 + rng.uniform(80);
  std::vector<std::uint32_t> pred(n), truth(n);
  for (auto& x : pred) {
    x = static_cast<std::uint32_t>(rng.uniform(1 + rng.uniform(12)));
  }
  for (auto& x : truth) {
    x = static_cast<std::uint32_t>(rng.uniform(1 + rng.uniform(12)));
  }
  auto fast = quality::count_pairs(pred, truth);
  auto ref = quality::count_pairs_reference(pred, truth);
  EXPECT_EQ(fast.tp, ref.tp);
  EXPECT_EQ(fast.fp, ref.fp);
  EXPECT_EQ(fast.fn, ref.fn);
  EXPECT_EQ(fast.tn, ref.tn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityFuzz,
                         testing::Range<std::uint64_t>(700, 720));

}  // namespace
}  // namespace estclust
