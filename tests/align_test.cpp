#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "align/anchored.hpp"
#include "align/banded.hpp"
#include "align/kernel.hpp"
#include "align/nw.hpp"
#include "align/scoring.hpp"
#include "bio/alphabet.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace estclust::align {
namespace {

Scoring sc() { return Scoring{}; }  // match 2, mismatch -3, gap -4

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

/// Mutates `s` with the given per-base substitution/indel rates.
std::string mutate(Prng& rng, const std::string& s, double sub, double ins,
                   double del) {
  std::string out;
  for (char c : s) {
    if (rng.bernoulli(del)) continue;
    if (rng.bernoulli(ins))
      out.push_back(bio::decode_base(static_cast<int>(rng.uniform(4))));
    if (rng.bernoulli(sub)) {
      int code = (bio::encode_base(c) + 1 + static_cast<int>(rng.uniform(3))) % 4;
      out.push_back(bio::decode_base(code));
    } else {
      out.push_back(c);
    }
  }
  if (out.empty()) out = "A";
  return out;
}

// --- Needleman-Wunsch ------------------------------------------------------

TEST(GlobalAlign, IdenticalStringsScoreAllMatches) {
  auto r = global_align("ACGTACGT", "ACGTACGT", sc());
  EXPECT_EQ(r.score, sc().ideal(8));
  EXPECT_EQ(r.matches, 8u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.gaps, 0u);
  EXPECT_EQ(r.ops, "MMMMMMMM");
  EXPECT_DOUBLE_EQ(r.identity(), 1.0);
}

TEST(GlobalAlign, SingleSubstitution) {
  auto r = global_align("ACGT", "AGGT", sc());
  EXPECT_EQ(r.score, 3 * sc().match + sc().mismatch);
  EXPECT_EQ(r.mismatches, 1u);
  EXPECT_EQ(r.ops, "MXMM");
}

TEST(GlobalAlign, SingleGap) {
  auto r = global_align("ACGT", "ACT", sc());
  EXPECT_EQ(r.score, 3 * sc().match + sc().gap);
  EXPECT_EQ(r.gaps, 1u);
}

TEST(GlobalAlign, EmptyVersusNonEmpty) {
  auto r = global_align("", "ACG", sc());
  EXPECT_EQ(r.score, 3 * sc().gap);
  EXPECT_EQ(r.gaps, 3u);
  EXPECT_EQ(r.ops, "III");
}

TEST(GlobalAlign, BothEmpty) {
  auto r = global_align("", "", sc());
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.ops.empty());
}

TEST(GlobalAlign, SymmetricScore) {
  Prng rng(1);
  for (int t = 0; t < 10; ++t) {
    std::string a = random_dna(rng, 30 + rng.uniform(30));
    std::string b = random_dna(rng, 30 + rng.uniform(30));
    EXPECT_EQ(global_align(a, b, sc()).score, global_align(b, a, sc()).score);
  }
}

TEST(GlobalAlign, OpsTranscriptIsConsistent) {
  Prng rng(2);
  for (int t = 0; t < 20; ++t) {
    std::string a = random_dna(rng, rng.uniform(40));
    std::string b = random_dna(rng, rng.uniform(40));
    auto r = global_align(a, b, sc());
    // Replay the transcript and confirm lengths and score match.
    std::size_t i = 0, j = 0;
    long score = 0;
    for (char op : r.ops) {
      switch (op) {
        case 'M':
          ASSERT_EQ(a[i], b[j]);
          score += sc().match;
          ++i;
          ++j;
          break;
        case 'X':
          ASSERT_NE(a[i], b[j]);
          score += sc().mismatch;
          ++i;
          ++j;
          break;
        case 'D':
          score += sc().gap;
          ++i;
          break;
        case 'I':
          score += sc().gap;
          ++j;
          break;
        default:
          FAIL() << "bad op " << op;
      }
    }
    EXPECT_EQ(i, a.size());
    EXPECT_EQ(j, b.size());
    EXPECT_EQ(score, r.score);
  }
}

TEST(GlobalAlignAffine, MatchesLinearWhenGapsAbsent) {
  auto r = global_align_affine("ACGTACGT", "ACGTACGT", sc());
  EXPECT_EQ(r.score, sc().ideal(8));
}

TEST(GlobalAlignAffine, LongGapCheaperThanLinear) {
  // A 6-base gap costs open + 6*extend = -17 affine vs -24 linear.
  std::string a = "ACGTACGTACGT";
  std::string b = "ACGTACGT";  // 4 missing at the end wherever optimal
  auto affine = global_align_affine(a, b, sc());
  auto linear = global_align(a, b, sc());
  EXPECT_GT(affine.score, linear.score);
}

TEST(GlobalAlignAffine, PrefersOneLongGapOverTwoShort) {
  Scoring s = sc();
  // Construct strings where two isolated deletions could also be aligned as
  // one block; affine scoring must favour contiguity in the transcript.
  auto r = global_align_affine("AAAACCCCGGGG", "AAAAGGGG", s);
  // 4-gap block: open + 4*extend = -13; plus 8 matches = 16 -> score 3.
  EXPECT_EQ(r.score, 8 * s.match + s.gap_open + 4 * s.gap_extend);
}

TEST(LocalAlign, FindsEmbeddedMatch) {
  // Shared core "CCCGGGTTT" embedded in different junk.
  auto r = local_align("AAAACCCGGGTTTAAAA", "TGCCCGGGTTTGCA", sc());
  EXPECT_EQ(r.score, 9 * sc().match);
  EXPECT_EQ(r.matches, 9u);
}

TEST(LocalAlign, NoPositiveScoreMeansEmptyAlignment) {
  auto r = local_align("AAAA", "CCCC", sc());
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.ops.empty());
}

TEST(LocalAlign, ScoreNeverNegative) {
  Prng rng(3);
  for (int t = 0; t < 10; ++t) {
    auto r = local_align(random_dna(rng, 50), random_dna(rng, 50), sc());
    EXPECT_GE(r.score, 0);
  }
}

TEST(LocalAlign, LocalAtLeastGlobalScore) {
  Prng rng(4);
  for (int t = 0; t < 10; ++t) {
    std::string a = random_dna(rng, 40);
    std::string b = random_dna(rng, 40);
    EXPECT_GE(local_align(a, b, sc()).score, global_align(a, b, sc()).score);
  }
}

TEST(LocalAlignAffine, IdenticalStringsAllMatch) {
  auto r = local_align_affine("ACGTACGTAC", "ACGTACGTAC", sc());
  EXPECT_EQ(r.score, sc().ideal(10));
  EXPECT_EQ(r.ops, "MMMMMMMMMM");
}

TEST(LocalAlignAffine, NoPositiveScoreMeansEmpty) {
  auto r = local_align_affine("AAAA", "CCCC", sc());
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.ops.empty());
}

TEST(LocalAlignAffine, LongInsertionStaysOneGapRun) {
  Prng rng(61);
  std::string flank1 = random_dna(rng, 60);
  std::string inserted = random_dna(rng, 50);
  std::string flank2 = random_dna(rng, 60);
  std::string a = flank1 + inserted + flank2;
  std::string b = flank1 + flank2;
  auto r = local_align_affine(a, b, sc());
  // Count maximal gap runs: affine scoring must keep the skip contiguous.
  std::size_t runs = 0, longest = 0, cur = 0;
  for (char c : r.ops) {
    if (c == 'D' || c == 'I') {
      if (cur == 0) ++runs;
      ++cur;
      longest = std::max(longest, cur);
    } else {
      cur = 0;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(longest, 50u);
}

TEST(LocalAlignAffine, TranscriptReplayMatchesScore) {
  Prng rng(62);
  for (int t = 0; t < 15; ++t) {
    std::string a = random_dna(rng, 20 + rng.uniform(60));
    std::string b = random_dna(rng, 20 + rng.uniform(60));
    auto r = local_align_affine(a, b, sc());
    // Replay ops over the aligned region and recompute the affine score.
    std::size_t i = r.a_begin, j = r.b_begin;
    long score = 0;
    char prev = 0;
    for (char op : r.ops) {
      switch (op) {
        case 'M':
          ASSERT_EQ(a[i], b[j]);
          score += sc().match;
          ++i;
          ++j;
          break;
        case 'X':
          ASSERT_NE(a[i], b[j]);
          score += sc().mismatch;
          ++i;
          ++j;
          break;
        case 'D':
          score += sc().gap_extend + (prev == 'D' ? 0 : sc().gap_open);
          ++i;
          break;
        case 'I':
          score += sc().gap_extend + (prev == 'I' ? 0 : sc().gap_open);
          ++j;
          break;
        default:
          FAIL();
      }
      prev = op;
    }
    EXPECT_EQ(i, r.a_end);
    EXPECT_EQ(j, r.b_end);
    EXPECT_EQ(score, r.score);
  }
}

TEST(LocalAlignAffine, AtLeastLinearLocalWhenGapsCheap) {
  // With gap_open = 0 and gap_extend = gap, affine degenerates to linear.
  Prng rng(63);
  Scoring s = sc();
  s.gap_open = 0;
  s.gap_extend = s.gap;
  for (int t = 0; t < 10; ++t) {
    std::string a = random_dna(rng, 40);
    std::string b = random_dna(rng, 40);
    EXPECT_EQ(local_align_affine(a, b, s).score,
              local_align(a, b, sc()).score);
  }
}

// --- Banded kernels ---------------------------------------------------------

TEST(BandedGlobal, WideBandMatchesFullNW) {
  Prng rng(5);
  for (int t = 0; t < 25; ++t) {
    std::string a = random_dna(rng, rng.uniform(40));
    std::string b = random_dna(rng, rng.uniform(40));
    long full = global_align(a, b, sc()).score;
    long banded = banded_global_score(a, b, sc(), 64);
    EXPECT_EQ(banded, full) << "a=" << a << " b=" << b;
  }
}

TEST(BandedGlobal, NarrowBandLowerBoundsFull) {
  Prng rng(6);
  for (int t = 0; t < 25; ++t) {
    std::string a = random_dna(rng, 20 + rng.uniform(20));
    std::string b = mutate(rng, a, 0.05, 0.02, 0.02);
    long full = global_align(a, b, sc()).score;
    long banded = banded_global_score(a, b, sc(), 6);
    EXPECT_LE(banded, full);
  }
}

TEST(BandedGlobal, InfeasibleLengthDifference) {
  std::uint64_t cells = 0;
  long s = banded_global_score("AAAAAAAAAA", "AA", sc(), 3, &cells);
  EXPECT_LT(s, -1000000);  // sentinel
  EXPECT_EQ(cells, 0u);
}

TEST(BandedGlobal, CellCountRespectsBand) {
  std::uint64_t cells = 0;
  std::string a(100, 'A'), b(100, 'A');
  banded_global_score(a, b, sc(), 5, &cells);
  EXPECT_LE(cells, 100u * 11u + 11u);
}

TEST(ExtendOverlap, EmptySidesAreBoundary) {
  auto r = extend_overlap("", "ACG", sc(), 4);
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.a_exhausted);
  EXPECT_FALSE(r.b_exhausted);
  auto r2 = extend_overlap("ACG", "", sc(), 4);
  EXPECT_TRUE(r2.b_exhausted);
  auto r3 = extend_overlap("", "", sc(), 4);
  EXPECT_TRUE(r3.a_exhausted);
  EXPECT_TRUE(r3.b_exhausted);
}

TEST(ExtendOverlap, PerfectSharedPrefixConsumesShorter) {
  auto r = extend_overlap("ACGTAC", "ACGTACGGTT", sc(), 4);
  EXPECT_EQ(r.score, 6 * sc().match);
  EXPECT_TRUE(r.a_exhausted);
  EXPECT_EQ(r.a_len, 6u);
  EXPECT_EQ(r.b_len, 6u);
}

TEST(ExtendOverlap, AgreesWithReferenceUnderWideBand) {
  Prng rng(7);
  for (int t = 0; t < 40; ++t) {
    std::string a = random_dna(rng, rng.uniform(30));
    std::string b = random_dna(rng, rng.uniform(30));
    auto fast = extend_overlap(a, b, sc(), 40);
    auto ref = extend_overlap_reference(a, b, sc());
    EXPECT_EQ(fast.score, ref.score) << "a=" << a << " b=" << b;
    EXPECT_EQ(fast.a_len, ref.a_len);
    EXPECT_EQ(fast.b_len, ref.b_len);
  }
}

TEST(ExtendOverlap, NarrowBandNeverBeatsReference) {
  Prng rng(8);
  for (int t = 0; t < 30; ++t) {
    std::string a = random_dna(rng, 10 + rng.uniform(30));
    std::string b = mutate(rng, a, 0.1, 0.03, 0.03);
    auto fast = extend_overlap(a, b, sc(), 4);
    auto ref = extend_overlap_reference(a, b, sc());
    EXPECT_LE(fast.score, ref.score);
  }
}

TEST(ExtendOverlap, ToleratesScatteredErrors) {
  Prng rng(9);
  std::string a = random_dna(rng, 200);
  std::string b = mutate(rng, a, 0.02, 0.005, 0.005);
  auto r = extend_overlap(a, b, sc(), 8);
  EXPECT_TRUE(r.a_exhausted || r.b_exhausted);
  // Quality near 1: most of the extension is matches.
  double q = static_cast<double>(r.score) /
             (sc().match * static_cast<double>(std::min(r.a_len, r.b_len)));
  EXPECT_GT(q, 0.75);
}

TEST(ExtendOverlap, CellCountLinearInLength) {
  std::string a(500, 'A'), b(500, 'A');
  auto r = extend_overlap(a, b, sc(), 4);
  EXPECT_LE(r.cells, 500u * 9u + 9u);
}

// --- Anchored alignment and overlap classification --------------------------

OverlapParams params() {
  OverlapParams p;
  p.band = 8;
  p.min_quality = 0.8;
  p.min_overlap = 10;
  return p;
}

// Finds the anchor of a known shared substring for test setup.
Anchor make_anchor(const std::string& a, const std::string& b,
                   const std::string& core) {
  Anchor an;
  an.a_pos = a.find(core);
  an.b_pos = b.find(core);
  an.len = core.size();
  ESTCLUST_CHECK(an.a_pos != std::string::npos);
  ESTCLUST_CHECK(an.b_pos != std::string::npos);
  return an;
}

TEST(Anchored, DovetailABDetected) {
  Prng rng(10);
  std::string core = random_dna(rng, 40);
  std::string a = random_dna(rng, 60) + core;        // core is suffix of a
  std::string b = core + random_dna(rng, 60);        // core is prefix of b
  auto r = align_anchored(a, b, make_anchor(a, b, core), params());
  EXPECT_EQ(r.kind, OverlapKind::kABDovetail);
  EXPECT_EQ(r.score, sc().ideal(core.size()));
  EXPECT_TRUE(accept_overlap(r, params()));
}

TEST(Anchored, DovetailBADetected) {
  Prng rng(11);
  std::string core = random_dna(rng, 40);
  std::string a = core + random_dna(rng, 60);
  std::string b = random_dna(rng, 60) + core;
  auto r = align_anchored(a, b, make_anchor(a, b, core), params());
  EXPECT_EQ(r.kind, OverlapKind::kBADovetail);
  EXPECT_TRUE(accept_overlap(r, params()));
}

TEST(Anchored, ContainmentOfA) {
  Prng rng(12);
  std::string a = random_dna(rng, 50);
  std::string b = random_dna(rng, 30) + a + random_dna(rng, 30);
  Anchor an{0, b.find(a), a.size()};
  auto r = align_anchored(a, b, an, params());
  EXPECT_EQ(r.kind, OverlapKind::kAContainedInB);
  EXPECT_TRUE(accept_overlap(r, params()));
}

TEST(Anchored, ContainmentOfB) {
  Prng rng(13);
  std::string b = random_dna(rng, 50);
  std::string a = random_dna(rng, 30) + b + random_dna(rng, 30);
  Anchor an{a.find(b), 0, b.size()};
  auto r = align_anchored(a, b, an, params());
  EXPECT_EQ(r.kind, OverlapKind::kBContainedInA);
}

TEST(Anchored, InteriorSharedSubstringIsNotAnOverlap) {
  Prng rng(14);
  // Shared 20-mer strictly interior to both strings, different flanks: the
  // extension cannot reach any boundary cleanly.
  std::string core = random_dna(rng, 20);
  std::string a = random_dna(rng, 80) + core + random_dna(rng, 80);
  std::string b = random_dna(rng, 80) + core + random_dna(rng, 80);
  auto r = align_anchored(a, b, make_anchor(a, b, core), params());
  EXPECT_FALSE(accept_overlap(r, params()));
}

TEST(Anchored, NoisyOverlapStillAccepted) {
  Prng rng(15);
  std::string overlap = random_dna(rng, 120);
  std::string a = random_dna(rng, 100) + overlap;
  std::string noisy = mutate(rng, overlap, 0.02, 0.005, 0.005);
  std::string b = noisy + random_dna(rng, 100);
  // Anchor on a shared exact stretch. Find a common 20-mer.
  Anchor an;
  bool found = false;
  for (std::size_t i = 0; i + 20 <= overlap.size() && !found; ++i) {
    auto piece = overlap.substr(i, 20);
    auto pos_b = b.find(piece);
    if (pos_b != std::string::npos && pos_b < noisy.size()) {
      an = {a.find(piece), pos_b, 20};
      found = true;
    }
  }
  ASSERT_TRUE(found);
  auto r = align_anchored(a, b, an, params());
  EXPECT_EQ(r.kind, OverlapKind::kABDovetail);
  EXPECT_GT(r.quality, 0.8);
  EXPECT_TRUE(accept_overlap(r, params()));
}

TEST(Anchored, ShortOverlapRejectedByMinOverlap) {
  Prng rng(16);
  std::string core = random_dna(rng, 8);  // below min_overlap = 10
  std::string a = random_dna(rng, 50) + core;
  std::string b = core + random_dna(rng, 50);
  Anchor an{50, 0, 8};
  auto r = align_anchored(a, b, an, params());
  if (r.kind == OverlapKind::kABDovetail) {
    EXPECT_FALSE(accept_overlap(r, params()));
  }
}

TEST(Anchored, QualityCapAtOne) {
  std::string a = "ACGTACGTAC";
  auto r = align_anchored(a, a, Anchor{0, 0, a.size()}, params());
  EXPECT_DOUBLE_EQ(r.quality, 1.0);
  EXPECT_EQ(r.kind, OverlapKind::kAContainedInB);  // containment tie -> A
}

TEST(Anchored, AnchorRangeChecked) {
  EXPECT_THROW(
      align_anchored("ACG", "ACG", Anchor{2, 0, 5}, params()),
      CheckError);
}

TEST(Anchored, KindNames) {
  EXPECT_STREQ(to_string(OverlapKind::kNone), "none");
  EXPECT_STREQ(to_string(OverlapKind::kABDovetail), "ab-dovetail");
  EXPECT_STREQ(to_string(OverlapKind::kBADovetail), "ba-dovetail");
  EXPECT_STREQ(to_string(OverlapKind::kAContainedInB), "a-contained");
  EXPECT_STREQ(to_string(OverlapKind::kBContainedInA), "b-contained");
}

TEST(Anchored, CellWorkBoundedByBandTimesLength) {
  Prng rng(17);
  std::string overlap = random_dna(rng, 300);
  std::string a = random_dna(rng, 300) + overlap;
  std::string b = overlap + random_dna(rng, 300);
  Anchor an{300, 0, overlap.size()};
  auto r = align_anchored(a, b, an, params());
  // Full NW would be ~600*600 = 360k cells; anchored extension is far less.
  EXPECT_LT(r.cells, 40000u);
}

class RandomOverlapTest : public testing::TestWithParam<int> {};

TEST_P(RandomOverlapTest, TrueOverlapsAcceptedAcrossSeeds) {
  Prng rng(static_cast<std::uint64_t>(GetParam()));
  std::string overlap = random_dna(rng, 80 + rng.uniform(80));
  std::string a = random_dna(rng, 50 + rng.uniform(100)) + overlap;
  std::string b = overlap + random_dna(rng, 50 + rng.uniform(100));
  Anchor an{a.size() - overlap.size(), 0, overlap.size()};
  auto r = align_anchored(a, b, an, params());
  EXPECT_EQ(r.kind, OverlapKind::kABDovetail);
  EXPECT_TRUE(accept_overlap(r, params()));
  EXPECT_DOUBLE_EQ(r.quality, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOverlapTest, testing::Range(100, 120));

// ---------------------------------------------------------------------------
// Band-edge arithmetic: the window math is all unsigned, so the degenerate
// geometries (band 0, empty sides, bands at or beyond the string lengths)
// are exactly where a wrap bug would hide. Pin each one.
// ---------------------------------------------------------------------------

TEST(BandEdge, BandZeroIsTheDiagonal) {
  AlignArena arena;
  // Equal strings: the diagonal alone carries the full-match extension.
  auto r = extend_overlap("ACGTACGT", "ACGTACGT", sc(), 0, arena);
  EXPECT_EQ(r.score, 8 * sc().match);
  EXPECT_EQ(r.a_len, 8u);
  EXPECT_EQ(r.b_len, 8u);
  EXPECT_TRUE(r.a_exhausted);
  EXPECT_TRUE(r.b_exhausted);
  EXPECT_EQ(r.cells, 8u);  // one cell per row, rows 1..8
}

TEST(BandEdge, BandZeroUnequalLengthsStopAtTheShorter) {
  AlignArena arena;
  // Band 0 with m > n: rows past n have no live cells; the best boundary
  // is the j == n cell of row n.
  auto r = extend_overlap("ACGTAC", "ACG", sc(), 0, arena);
  EXPECT_EQ(r.score, 3 * sc().match);
  EXPECT_EQ(r.a_len, 3u);
  EXPECT_EQ(r.b_len, 3u);
  EXPECT_FALSE(r.a_exhausted);
  EXPECT_TRUE(r.b_exhausted);
  EXPECT_EQ(r.cells, 3u);
}

TEST(BandEdge, EmptySidesAreBoundaryCells) {
  AlignArena arena;
  for (std::size_t band : {std::size_t{0}, std::size_t{8}}) {
    auto r = extend_overlap("", "ACGT", sc(), band, arena);
    EXPECT_EQ(r.score, 0);
    EXPECT_TRUE(r.a_exhausted);
    EXPECT_FALSE(r.b_exhausted);
    auto r2 = extend_overlap("", "", sc(), band, arena);
    EXPECT_EQ(r2.score, 0);
    EXPECT_TRUE(r2.a_exhausted);
    EXPECT_TRUE(r2.b_exhausted);
  }
}

TEST(BandEdge, HugeBandIsClampedNotOverflowed) {
  // band = SIZE_MAX would make width = 2*band + 1 wrap to SIZE_MAX without
  // the clamp; results must equal the widest meaningful band.
  AlignArena arena;
  Prng rng(99);
  std::string a = random_dna(rng, 30);
  std::string b = mutate(rng, a, 0.1, 0.03, 0.03);
  auto wide = extend_overlap(a, b, sc(), a.size() + b.size(), arena);
  auto huge =
      extend_overlap(a, b, sc(), std::numeric_limits<std::size_t>::max(),
                     arena);
  EXPECT_EQ(huge.score, wide.score);
  EXPECT_EQ(huge.a_len, wide.a_len);
  EXPECT_EQ(huge.b_len, wide.b_len);
  EXPECT_EQ(huge.cells, wide.cells);
}

TEST(BandEdge, BandAtLeastLengthEqualsFullReference) {
  AlignArena arena;
  Prng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    std::string a = random_dna(rng, rng.uniform(25));
    std::string b = random_dna(rng, rng.uniform(25));
    auto ref = extend_overlap_reference(a, b, sc());
    // Any band >= max(m, n) covers every cell of the rectangle.
    auto r = extend_overlap(a, b, sc(), std::max(a.size(), b.size()), arena);
    EXPECT_EQ(r.score, ref.score) << "iter " << iter;
    EXPECT_EQ(r.a_len, ref.a_len) << "iter " << iter;
    EXPECT_EQ(r.b_len, ref.b_len) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// AlignArena: growth, shrink policy, and the high-water gauge.
// ---------------------------------------------------------------------------

TEST(AlignArena, ShrinksAfterLongStreakOfSmallRequests) {
  AlignArena arena;
  arena.ensure_width(4096);
  EXPECT_GE(arena.row_capacity(), 4096u);
  // A long run of requests needing at most half the capacity decays the
  // arena to the streak's peak width.
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses; ++i) {
    arena.ensure_width(16);
  }
  EXPECT_EQ(arena.row_capacity(), 16u);
}

TEST(AlignArena, LargeRequestResetsTheShrinkStreak) {
  AlignArena arena;
  arena.ensure_width(4096);
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses - 1; ++i) {
    arena.ensure_width(16);
  }
  // One request above half capacity interrupts the streak...
  arena.ensure_width(3000);
  EXPECT_GE(arena.row_capacity(), 4096u);
  // ...and the count starts over: kShrinkAfterUses - 1 more small calls
  // must not shrink, the next one does, decaying to the streak peak.
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses - 1; ++i) {
    arena.ensure_width(16);
    EXPECT_GE(arena.row_capacity(), 4096u) << "call " << i;
  }
  arena.ensure_width(24);
  EXPECT_EQ(arena.row_capacity(), 24u);
}

TEST(AlignArena, ShrinkDecaysToStreakPeakNotLastRequest) {
  AlignArena arena;
  arena.ensure_width(4096);
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses; ++i) {
    // The peak of the small streak (100) must survive the shrink even
    // though the final requests are smaller.
    arena.ensure_width(i == 0 ? 100 : 16);
  }
  EXPECT_EQ(arena.row_capacity(), 100u);
}

TEST(AlignArena, HighWaterGaugeSurvivesShrink) {
  AlignArena arena;
  arena.ensure_simd(4096, 500, 500);
  const std::size_t peak = arena.bytes();
  EXPECT_GE(arena.high_water_bytes(), peak);
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses; ++i) {
    arena.ensure_width(16);
  }
  EXPECT_LT(arena.bytes(), peak);
  EXPECT_GE(arena.high_water_bytes(), peak);
}

TEST(AlignArena, ShrinkReleasesSimdScratch) {
  AlignArena arena;
  arena.ensure_simd(4096, 500, 500);
  for (std::size_t i = 0; i < AlignArena::kShrinkAfterUses; ++i) {
    arena.ensure_width(16);
  }
  ASSERT_EQ(arena.row_capacity(), 16u);
  EXPECT_EQ(arena.codes_a.capacity(), 0u);
  EXPECT_EQ(arena.codes_b.capacity(), 0u);
  EXPECT_EQ(arena.col_n.capacity(), 0u);
  EXPECT_EQ(arena.row_m.capacity(), 0u);
}

TEST(AlignArena, ShrinkDoesNotChangeResults) {
  AlignArena big, fresh;
  Prng rng(21);
  std::string a = random_dna(rng, 60);
  std::string b = mutate(rng, a, 0.05, 0.02, 0.02);
  big.ensure_width(1 << 16);
  for (std::size_t i = 0; i <= AlignArena::kShrinkAfterUses; ++i) {
    big.ensure_width(8);
  }
  auto r1 = extend_overlap(a, b, sc(), 8, big);
  auto r2 = extend_overlap(a, b, sc(), 8, fresh);
  EXPECT_EQ(r1.score, r2.score);
  EXPECT_EQ(r1.cells, r2.cells);
}

// ---------------------------------------------------------------------------
// Kernel dispatch: the pure resolution rule and the variant entry point.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ResolutionMatrix) {
  using KV = KernelVariant;
  // auto / unset pick the best available.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto"}) {
    EXPECT_EQ(resolve_kernel(env, true, true), KV::kAvx2);
    EXPECT_EQ(resolve_kernel(env, true, false), KV::kSse2);
    EXPECT_EQ(resolve_kernel(env, false, false), KV::kScalar);
  }
  // Explicit requests are honored when available...
  EXPECT_EQ(resolve_kernel("scalar", true, true), KV::kScalar);
  EXPECT_EQ(resolve_kernel("sse2", true, true), KV::kSse2);
  EXPECT_EQ(resolve_kernel("avx2", true, true), KV::kAvx2);
  // ...and degrade to the next-best one otherwise, so a pinned config
  // stays runnable on older hardware.
  EXPECT_EQ(resolve_kernel("avx2", true, false), KV::kSse2);
  EXPECT_EQ(resolve_kernel("avx2", false, false), KV::kScalar);
  EXPECT_EQ(resolve_kernel("sse2", false, false), KV::kScalar);
}

TEST(KernelDispatch, UnknownValueFailsLoudly) {
  EXPECT_THROW(resolve_kernel("sse9", true, true), CheckError);
  EXPECT_THROW(resolve_kernel("Scalar", true, true), CheckError);
  EXPECT_THROW(resolve_kernel(" avx2", true, true), CheckError);
}

TEST(KernelDispatch, VariantNamesAreStable) {
  // Metric/trace consumers key on these strings.
  EXPECT_STREQ(to_string(KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(to_string(KernelVariant::kSse2), "sse2");
  EXPECT_STREQ(to_string(KernelVariant::kAvx2), "avx2");
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(cpu_supports(KernelVariant::kScalar));
}

TEST(KernelDispatch, IneligiblePairsFallBackToScalarResults) {
  // Lowercase bases are valid to the scalar sweep but outside the SIMD
  // kernels' strict-ACGT envelope; every variant must still return the
  // scalar result (via silent fallback), not fail.
  AlignArena arena;
  auto scalar =
      extend_overlap_variant(KernelVariant::kScalar, "acgtacgt", "acgtacgt",
                             sc(), 4, arena);
  for (KernelVariant v : {KernelVariant::kSse2, KernelVariant::kAvx2}) {
    auto r = extend_overlap_variant(v, "acgtacgt", "acgtacgt", sc(), 4, arena);
    EXPECT_EQ(r.score, scalar.score);
    EXPECT_EQ(r.cells, scalar.cells);
  }
}

}  // namespace
}  // namespace estclust::align
