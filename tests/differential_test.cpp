// Differential tests for the alignment hot-path engine.
//
// Three oracles pin the engine down:
//
//  1. A verbatim copy of the pre-arena banded kernels (the implementation
//     the blocked kernel replaced) — the new kernel must reproduce its
//     scores, spans, tie-breaks AND cell counts bit-for-bit over a large
//     randomized corpus, because the modeled run-times charge per cell.
//  2. The exact anchored aligner vs the bounded one: a non-truncated
//     bounded result is identical in every field; a truncated one must
//     correspond to an exact result that accept_overlap rejects (the
//     early exit only fires when rejection is provable).
//  3. Whole-pipeline agreement: pace::cluster_sequential,
//     pace::cluster_parallel and baseline::cluster_baseline produce the
//     same canonical partition on simulated data when configured over the
//     same candidate criterion (shared k-mer of length psi <=> maximal
//     common substring >= psi).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/kernel.hpp"
#include "align/kernel_simd.hpp"
#include "baseline/greedy.hpp"
#include "bio/alphabet.hpp"
#include "mpr/runtime.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "sim/workload.hpp"
#include "util/prng.hpp"

namespace estclust {
namespace {

constexpr long kNegInf = std::numeric_limits<long>::min() / 4;

// ---------------------------------------------------------------------------
// Oracle: the pre-arena banded kernels, copied verbatim from the previous
// implementation of src/align/banded.cpp. Do not "improve" these — their
// whole value is that they are the old code.
// ---------------------------------------------------------------------------

align::ExtensionResult legacy_extend_overlap(std::string_view a,
                                             std::string_view b,
                                             const align::Scoring& sc,
                                             std::size_t band) {
  const std::size_t m = a.size(), n = b.size();
  align::ExtensionResult best;
  best.score = kNegInf;

  if (m == 0 || n == 0) {
    best.score = 0;
    best.a_len = 0;
    best.b_len = 0;
    best.a_exhausted = (m == 0);
    best.b_exhausted = (n == 0);
    return best;
  }

  const std::size_t width = 2 * band + 1;
  std::vector<long> prev(width, kNegInf), cur(width, kNegInf);
  std::uint64_t cells = 0;

  auto consider = [&](long score, std::size_t i, std::size_t j) {
    if (i != m && j != n) return;
    if (score > best.score ||
        (score == best.score && i + j > best.a_len + best.b_len)) {
      best.score = score;
      best.a_len = i;
      best.b_len = j;
      best.a_exhausted = (i == m);
      best.b_exhausted = (j == n);
    }
  };

  for (std::size_t j = 0; j <= std::min(n, band); ++j) {
    prev[j - 0 + band] = static_cast<long>(j) * sc.gap;
    consider(prev[j + band], 0, j);
  }

  for (std::size_t i = 1; i <= m; ++i) {
    std::fill(cur.begin(), cur.end(), kNegInf);
    const std::size_t jlo = (i > band) ? i - band : 0;
    const std::size_t jhi = std::min(n, i + band);
    if (jlo > n) break;
    for (std::size_t j = jlo; j <= jhi; ++j) {
      const std::size_t k = j - i + band;
      long v = kNegInf;
      if (j > 0 && prev[k] != kNegInf) {
        v = prev[k] + (a[i - 1] == b[j - 1] ? sc.match : sc.mismatch);
      }
      if (k + 1 < width && prev[k + 1] != kNegInf) {
        v = std::max(v, prev[k + 1] + sc.gap);
      }
      if (k > 0 && cur[k - 1] != kNegInf) {
        v = std::max(v, cur[k - 1] + sc.gap);
      }
      cur[k] = v;
      ++cells;
      if (v != kNegInf) consider(v, i, j);
    }
    std::swap(prev, cur);
  }

  best.cells = cells;
  return best;
}

long legacy_banded_global_score(std::string_view a, std::string_view b,
                                const align::Scoring& sc, std::size_t band,
                                std::uint64_t* cells_out) {
  const std::size_t m = a.size(), n = b.size();
  const std::size_t diff = m > n ? m - n : n - m;
  if (diff > band) {
    if (cells_out) *cells_out = 0;
    return kNegInf;
  }
  const std::size_t width = 2 * band + 1;
  std::vector<long> prev(width, kNegInf), cur(width, kNegInf);
  std::uint64_t cells = 0;

  for (std::size_t j = 0; j <= std::min(n, band); ++j) {
    prev[j + band] = static_cast<long>(j) * sc.gap;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    std::fill(cur.begin(), cur.end(), kNegInf);
    const std::size_t jlo = (i > band) ? i - band : 0;
    const std::size_t jhi = std::min(n, i + band);
    for (std::size_t j = jlo; j <= jhi; ++j) {
      const std::size_t k = j - i + band;
      long v = kNegInf;
      if (j > 0 && prev[k] != kNegInf) {
        v = prev[k] + (a[i - 1] == b[j - 1] ? sc.match : sc.mismatch);
      }
      if (k + 1 < width && prev[k + 1] != kNegInf) {
        v = std::max(v, prev[k + 1] + sc.gap);
      }
      if (k > 0 && cur[k - 1] != kNegInf) {
        v = std::max(v, cur[k - 1] + sc.gap);
      }
      cur[k] = v;
      ++cells;
    }
    std::swap(prev, cur);
  }
  if (cells_out) *cells_out = cells;
  return prev[n - m + band];
}

// ---------------------------------------------------------------------------

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
  return out;
}

// A scoring the 16-bit sweeps accept for strings of total length `len`:
// match, -mismatch and -gap each in [0, kSimdMaxMass / (len + 2)], a
// quarter of them at that limit, where the sweeps' 16-bit bounds are
// tightest.
align::Scoring random_simd_scoring(Prng& rng, std::size_t len) {
  const std::uint64_t limit =
      static_cast<std::uint64_t>(align::detail::kSimdMaxMass) / (len + 2);
  auto coef = [&] {
    return static_cast<int>(rng.bernoulli(0.25) ? limit
                                                : rng.uniform(limit + 1));
  };
  align::Scoring sc;
  sc.match = coef();
  sc.mismatch = -coef();
  sc.gap = -coef();
  return sc;
}

TEST(KernelDifferential, BlockedSweepMatchesLegacyOver10kPairs) {
  // 10,000 randomized (a, b, band) triples: related pairs (mutated copies)
  // and unrelated pairs, degenerate lengths included. Everything the old
  // kernel reported must be reproduced exactly — including `cells`, which
  // feeds the virtual-time model.
  Prng rng(0xE57C1057);
  const align::Scoring sc;
  align::AlignArena arena;
  const std::size_t bands[] = {1, 2, 4, 8, 16};
  for (int iter = 0; iter < 10000; ++iter) {
    std::string a = random_dna(rng, rng.uniform(61));
    std::string b = rng.bernoulli(0.5)
                        ? mutate(rng, a, 0.08, 0.03, 0.03)
                        : random_dna(rng, rng.uniform(61));
    const std::size_t band = bands[rng.uniform(5)];

    auto legacy = legacy_extend_overlap(a, b, sc, band);
    auto blocked = align::extend_overlap(a, b, sc, band, arena);
    ASSERT_EQ(blocked.score, legacy.score) << "iter " << iter;
    ASSERT_EQ(blocked.a_len, legacy.a_len) << "iter " << iter;
    ASSERT_EQ(blocked.b_len, legacy.b_len) << "iter " << iter;
    ASSERT_EQ(blocked.a_exhausted, legacy.a_exhausted) << "iter " << iter;
    ASSERT_EQ(blocked.b_exhausted, legacy.b_exhausted) << "iter " << iter;
    ASSERT_EQ(blocked.cells, legacy.cells) << "iter " << iter;
    ASSERT_FALSE(blocked.capped) << "iter " << iter;

    // The arena-less public wrapper must agree too.
    auto wrapper = align::extend_overlap(a, b, sc, band);
    ASSERT_EQ(wrapper.score, legacy.score) << "iter " << iter;
    ASSERT_EQ(wrapper.cells, legacy.cells) << "iter " << iter;

    std::uint64_t legacy_cells = 0, blocked_cells = 0;
    const long lg =
        legacy_banded_global_score(a, b, sc, band, &legacy_cells);
    const long bg =
        align::banded_global_score(a, b, sc, band, arena, &blocked_cells);
    ASSERT_EQ(bg, lg) << "iter " << iter;
    ASSERT_EQ(blocked_cells, legacy_cells) << "iter " << iter;
  }
}

TEST(KernelDifferential, BlockedSweepMatchesFullMatrixReference) {
  // With the band covering the whole rectangle, the blocked sweep must
  // reproduce the O(mn) reference oracle.
  Prng rng(0xBADBA9D);
  const align::Scoring sc;
  align::AlignArena arena;
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = random_dna(rng, rng.uniform(40));
    std::string b = rng.bernoulli(0.5) ? mutate(rng, a, 0.1, 0.05, 0.05)
                                       : random_dna(rng, rng.uniform(40));
    auto ref = align::extend_overlap_reference(a, b, sc);
    auto blocked =
        align::extend_overlap(a, b, sc, a.size() + b.size() + 1, arena);
    ASSERT_EQ(blocked.score, ref.score) << "iter " << iter;
    ASSERT_EQ(blocked.a_len, ref.a_len) << "iter " << iter;
    ASSERT_EQ(blocked.b_len, ref.b_len) << "iter " << iter;
  }
}

TEST(KernelDifferential, SimdVariantsMatchScalarAcrossRegimes) {
  // Every kernel variant the host supports must reproduce the scalar sweep
  // bit for bit — score, end positions, exhaustion flags, the capped flag
  // AND the cell count (which feeds the virtual-time model) — across
  // bands, lengths and give-up regimes. An anti-diagonal holds band + 1
  // lanes, so the bands include 0 (one lane), each vector-count edge of
  // both lane widths (7/8 for SSE2; 15/16 and 31/32 for both), 33 (five
  // SSE2 vectors), kSimdMaxBand = 47 (six SSE2 or three AVX2 vectors) and
  // 48, the first band past it, which both variants hand to the scalar
  // sweep. Every other block of four iterations draws a random scoring at
  // the edge of the SIMD envelope instead of the default one, so the
  // sweeps' scoring-dependent 16-bit bounds are checked too; each band
  // still gets ~500 draws under the default scoring.
  std::vector<align::KernelVariant> variants;
  for (auto v : {align::KernelVariant::kSse2, align::KernelVariant::kAvx2}) {
    if (align::cpu_supports(v)) variants.push_back(v);
  }
  if (variants.empty()) GTEST_SKIP() << "host has no SIMD kernels";

  Prng rng(0x51D0D1FF);
  align::AlignArena arena;
  const std::size_t bands[] = {0,  1,  2,  3,  5,  7,  8,
                               15, 16, 31, 32, 33, 47, 48};
  int capped_seen = 0;
  for (int iter = 0; iter < 14000; ++iter) {
    std::string a = random_dna(rng, rng.uniform(250));
    std::string b = rng.bernoulli(0.5)
                        ? mutate(rng, a, 0.08, 0.03, 0.03)
                        : random_dna(rng, rng.uniform(250));
    const std::size_t band = bands[rng.uniform(std::size(bands))];
    const align::Scoring sc =
        (iter / 4) % 2 == 0 ? align::Scoring{}
                            : random_simd_scoring(rng, a.size() + b.size());
    // Give-up regimes: exact, a loose bound that rarely fires, a bound in
    // the plausible-score range, and one the pre-check rejects instantly.
    long give_up = align::kNoGiveUp;
    switch (iter % 4) {
      case 1:
        give_up = -10000;
        break;
      case 2:
        give_up = static_cast<long>(rng.uniform(200)) - 100;
        break;
      case 3:
        give_up =
            sc.match * static_cast<long>(std::min(a.size(), b.size()) + 1);
        break;
      default:
        break;
    }

    // Every input must reach the 16-bit sweeps (up to kSimdMaxBand).
    ASSERT_TRUE(align::detail::simd_eligible(a, b, sc, give_up))
        << "iter " << iter;

    const auto scalar = align::extend_overlap_variant(
        align::KernelVariant::kScalar, a, b, sc, band, arena, give_up);
    if (scalar.capped) ++capped_seen;
    for (const align::KernelVariant v : variants) {
      const auto simd =
          align::extend_overlap_variant(v, a, b, sc, band, arena, give_up);
      ASSERT_EQ(simd.score, scalar.score)
          << align::to_string(v) << " iter " << iter << " band " << band
          << " give_up " << give_up << " scoring " << sc.match << "/"
          << sc.mismatch << "/" << sc.gap;
      ASSERT_EQ(simd.a_len, scalar.a_len)
          << align::to_string(v) << " iter " << iter;
      ASSERT_EQ(simd.b_len, scalar.b_len)
          << align::to_string(v) << " iter " << iter;
      ASSERT_EQ(simd.a_exhausted, scalar.a_exhausted)
          << align::to_string(v) << " iter " << iter;
      ASSERT_EQ(simd.b_exhausted, scalar.b_exhausted)
          << align::to_string(v) << " iter " << iter;
      ASSERT_EQ(simd.cells, scalar.cells)
          << align::to_string(v) << " iter " << iter << " band " << band
          << " give_up " << give_up << " scoring " << sc.match << "/"
          << sc.mismatch << "/" << sc.gap;
      ASSERT_EQ(simd.capped, scalar.capped)
          << align::to_string(v) << " iter " << iter;
    }
  }
  // The corpus must actually exercise the give-up machinery.
  EXPECT_GT(capped_seen, 100);
}

TEST(BoundedDifferential, TruncationImpliesRejectionOtherwiseIdentical) {
  // Overlapping pairs built around an exact common core so the anchor
  // precondition holds; flanks range from perfect copies to unrelated
  // junk, covering accept, borderline and clear-reject cases.
  Prng rng(0x0B07D3D);
  align::OverlapParams p;
  p.band = 8;
  p.min_quality = 0.75;
  p.min_overlap = 40;
  align::AlignArena arena;
  std::uint64_t truncated = 0, accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string core = random_dna(rng, 20 + rng.uniform(20));
    std::string left = random_dna(rng, rng.uniform(80));
    std::string right = random_dna(rng, rng.uniform(80));
    std::string a = left + core + right;
    std::string b;
    align::Anchor anchor;
    if (rng.bernoulli(0.6)) {
      // True overlap: b shares (mutated) flanks with a.
      const double err = rng.bernoulli(0.5) ? 0.02 : 0.12;
      std::string bl = mutate(rng, left, err, err / 4, err / 4);
      std::string br = mutate(rng, right, err, err / 4, err / 4);
      b = bl + core + br;
      anchor = {left.size(), bl.size(), core.size()};
    } else {
      // Spurious seed: unrelated flanks around the same core.
      std::string bl = random_dna(rng, rng.uniform(80));
      b = bl + core + random_dna(rng, rng.uniform(80));
      anchor = {left.size(), bl.size(), core.size()};
    }

    auto exact = align::align_anchored(a, b, anchor, p, arena);
    auto bounded = align::align_anchored_bounded(a, b, anchor, p, arena);

    if (bounded.truncated) {
      ++truncated;
      ASSERT_FALSE(align::accept_overlap(exact, p))
          << "iter " << iter << ": truncated a pair the exact path accepts";
    } else {
      ASSERT_EQ(bounded.score, exact.score) << "iter " << iter;
      ASSERT_EQ(bounded.quality, exact.quality) << "iter " << iter;
      ASSERT_EQ(bounded.kind, exact.kind) << "iter " << iter;
      ASSERT_EQ(bounded.a_begin, exact.a_begin) << "iter " << iter;
      ASSERT_EQ(bounded.a_end, exact.a_end) << "iter " << iter;
      ASSERT_EQ(bounded.b_begin, exact.b_begin) << "iter " << iter;
      ASSERT_EQ(bounded.b_end, exact.b_end) << "iter " << iter;
      ASSERT_EQ(bounded.cells, exact.cells) << "iter " << iter;
    }
    ASSERT_EQ(align::accept_overlap(bounded, p),
              align::accept_overlap(exact, p))
        << "iter " << iter;
    if (align::accept_overlap(exact, p)) ++accepted;
  }
  // The corpus must actually exercise both regimes.
  EXPECT_GT(truncated, 100u);
  EXPECT_GT(accepted, 100u);
}

// ---------------------------------------------------------------------------

std::string canonical_partition(const std::vector<std::uint32_t>& labels) {
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::int64_t> slot(labels.size(), -1);
  for (std::uint32_t i = 0; i < labels.size(); ++i) {
    std::int64_t& s = slot[labels[i]];
    if (s < 0) {
      s = static_cast<std::int64_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<std::size_t>(s)].push_back(i);
  }
  std::sort(clusters.begin(), clusters.end());
  std::ostringstream out;
  for (const auto& c : clusters) {
    for (std::size_t i = 0; i < c.size(); ++i) out << (i ? " " : "") << c[i];
    out << '\n';
  }
  return out.str();
}

class PipelineDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineDifferential, SequentialParallelAndBaselineAgree) {
  // Error-free reads: every promising pair aligns perfectly from any
  // anchor, so the three engines — despite different candidate orders and
  // anchors — must find the same acceptance graph components.
  sim::SimConfig sim;
  sim.num_genes = 5;
  sim.num_ests = 70;
  sim.est_len_mean = 200;
  sim.est_len_stddev = 30;
  sim.est_len_min = 80;
  sim.sub_rate = sim.ins_rate = sim.del_rate = 0.0;
  sim.seed = GetParam();
  auto wl = sim::generate(sim);

  pace::PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 24;
  cfg.batchsize = 20;
  cfg.overlap.band = 8;
  cfg.overlap.min_quality = 0.75;
  cfg.overlap.min_overlap = 40;

  const std::string seq =
      canonical_partition(cluster_sequential(wl.ests, cfg).clusters.labels());

  // Parallel at several rank counts.
  for (int p : {2, 4, 8}) {
    mpr::Runtime rt(p, mpr::CostModel{});
    std::vector<std::uint32_t> labels;
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = pace::cluster_parallel(comm, wl.ests, cfg);
      std::lock_guard<std::mutex> lock(mu);
      if (comm.rank() == 0) labels = res.labels;
    });
    EXPECT_EQ(canonical_partition(labels), seq)
        << "p=" << p << " seed=" << GetParam();
  }

  // Baseline greedy over the same candidate criterion: a shared k-mer of
  // length psi exists iff a maximal common substring of length >= psi
  // does, so candidate sets coincide; on clean data every candidate's
  // verdict is anchor-independent.
  baseline::BaselineConfig bcfg;
  bcfg.kmer = cfg.psi;
  bcfg.overlap = cfg.overlap;
  bcfg.full_dp = false;
  bcfg.cluster_skip = false;
  bcfg.max_kmer_occ = 100000;  // no repeat masking: keep candidate parity
  auto base = baseline::cluster_baseline(wl.ests, bcfg);
  ASSERT_FALSE(base.stats.out_of_memory);
  EXPECT_EQ(canonical_partition(base.clusters.labels()), seq)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential,
                         testing::Values(101, 202, 303));

}  // namespace
}  // namespace estclust
