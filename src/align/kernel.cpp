#include "align/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "align/kernel_simd.hpp"
#include "util/check.hpp"

namespace estclust::align {

namespace {

constexpr long kNegInf = detail::kNegInfScore;

// Bands wider than the longer string change nothing: every row's live
// j-range is already clipped to [0, n], so clamping the band to max(m, n)
// leaves the live cell set of every row — and therefore scores, end
// positions and cell counts — identical, while keeping width = 2*band + 1
// from overflowing or allocating rows the sweep can never touch.
std::size_t clamp_band(std::size_t band, std::size_t m, std::size_t n) {
  const std::size_t cap = std::max(m, n);
  return band > cap ? cap : band;
}

// Strict uppercase ACGT, so 2-bit code equality in the SIMD sweeps agrees
// with the scalar sweep's byte comparison.
bool codes_clean(std::string_view s) {
  for (char c : s) {
    if (c != 'A' && c != 'C' && c != 'G' && c != 'T') return false;
  }
  return true;
}

// The band sweep shared by the exact and bounded modes. Bounded is a
// compile-time flag so the exact hot loop carries no bound bookkeeping.
//
// Exactness of the give-up test: every cell below row i is reached through
// some live cell (i, j) of row i, and each DP step adds at most `match`
// (only diagonal steps gain, and there are at most min(m - i, n - j) of
// them). So max(cur[j] + match * min(m - i, n - j)) bounds every boundary
// cell still ahead; if that bound and the best boundary cell seen so far
// are both below `give_up`, the final score is certainly below `give_up`.
// `band` must arrive pre-clamped (clamp_band) so width cannot overflow.
template <bool Bounded>
ExtensionResult band_sweep(std::string_view a, std::string_view b,
                           const Scoring& sc, std::size_t band,
                           AlignArena& arena, long give_up) {
  const std::size_t m = a.size(), n = b.size();
  ExtensionResult best;
  best.score = kNegInf;

  // Degenerate: nothing to extend on one side — the (0,0) cell is already a
  // boundary cell with score 0.
  if (m == 0 || n == 0) {
    best.score = 0;
    best.a_len = 0;
    best.b_len = 0;
    best.a_exhausted = (m == 0);
    best.b_exhausted = (n == 0);
    return best;
  }

  if constexpr (Bounded) {
    // Nothing can beat a full run of matches along the shorter side.
    if (sc.match * static_cast<long>(std::min(m, n)) < give_up) {
      best.capped = true;
      return best;
    }
  }

  // Row i covers j in [i - band, i + band] clipped to [0, n]. Rows are
  // stored in a (2*band + 1)-wide window indexed by (j - i + band). The
  // window is seeded once; each row then writes only its live cell range
  // plus one kNegInf guard per side (the live range moves at most one cell
  // per row), so the sweep is a single contiguous pass over arena memory.
  const std::size_t width = 2 * band + 1;
  arena.ensure_width(width);
  long* prev = arena.prev.data();
  long* cur = arena.cur.data();
  std::fill(prev, prev + width, kNegInf);
  std::fill(cur, cur + width, kNegInf);
  std::uint64_t cells = 0;

  auto consider = [&](long score, std::size_t i, std::size_t j) {
    // Boundary (semi-global) cells: all of a or all of b consumed.
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

  // Row 0: H[0][j] = j * gap for j <= band.
  for (std::size_t j = 0; j <= std::min(n, band); ++j) {
    prev[j + band] = static_cast<long>(j) * sc.gap;
    consider(prev[j + band], 0, j);
  }

  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t jlo = (i > band) ? i - band : 0;
    if (jlo > n) break;  // band has left the rectangle
    const std::size_t jhi = std::min(n, i + band);
    // Wrap-free forms of jlo - i + band / jhi - i + band (i - jlo <= band
    // by construction; jhi >= i - band whenever the row is live).
    const std::size_t klo = band - (i - jlo);
    const std::size_t khi = (jhi >= i) ? jhi - i + band : band - (i - jhi);
    if (klo > 0) cur[klo - 1] = kNegInf;
    if (khi + 1 < width) cur[khi + 1] = kNegInf;
    [[maybe_unused]] long row_ub = kNegInf;
    for (std::size_t j = jlo; j <= jhi; ++j) {
      const std::size_t k = klo + (j - jlo);  // in [0, width)
      long v = kNegInf;
      // Diagonal from (i-1, j-1): window offset k in the previous row.
      if (j > 0 && prev[k] != kNegInf) {
        v = prev[k] + (a[i - 1] == b[j - 1] ? sc.match : sc.mismatch);
      }
      // Up from (i-1, j): offset k+1 in the previous row.
      if (k + 1 < width && prev[k + 1] != kNegInf) {
        v = std::max(v, prev[k + 1] + sc.gap);
      }
      // Left from (i, j-1): offset k-1 in the current row.
      if (k > 0 && cur[k - 1] != kNegInf) {
        v = std::max(v, cur[k - 1] + sc.gap);
      }
      cur[k] = v;
      ++cells;
      if (v != kNegInf) {
        consider(v, i, j);
        if constexpr (Bounded) {
          const long headroom =
              sc.match * static_cast<long>(std::min(m - i, n - j));
          row_ub = std::max(row_ub, v + headroom);
        }
      }
    }
    if constexpr (Bounded) {
      if (best.score < give_up && row_ub < give_up) {
        best.capped = true;
        best.cells = cells;
        return best;
      }
    }
    std::swap(prev, cur);
  }

  best.cells = cells;
  ESTCLUST_CHECK_MSG(best.score != kNegInf,
                     "banded extension found no boundary cell");
  return best;
}

// Exact and bounded anchored alignment share one assembly path so the
// non-truncated bounded result is bit-identical to the exact one.
OverlapResult anchored_core(std::string_view a, std::string_view b,
                            const Anchor& anchor, const OverlapParams& p,
                            AlignArena& arena, bool bounded) {
  ESTCLUST_CHECK(anchor.a_pos + anchor.len <= a.size());
  ESTCLUST_CHECK(anchor.b_pos + anchor.len <= b.size());
  ESTCLUST_DCHECK(a.substr(anchor.a_pos, anchor.len) ==
                  b.substr(anchor.b_pos, anchor.len));

  // Rightward: suffixes after the anchor. Leftward: prefixes before the
  // anchor, reversed (into arena scratch) so the extension again starts at
  // offset 0.
  const std::string_view ra = a.substr(anchor.a_pos + anchor.len);
  const std::string_view rb = b.substr(anchor.b_pos + anchor.len);
  arena.rev_a.assign(a.rbegin() + static_cast<std::ptrdiff_t>(a.size() -
                                                              anchor.a_pos),
                     a.rend());
  arena.rev_b.assign(b.rbegin() + static_cast<std::ptrdiff_t>(b.size() -
                                                              anchor.b_pos),
                     b.rend());
  const std::string_view la = arena.rev_a;
  const std::string_view lb = arena.rev_b;

  const long anchor_score = p.scoring.ideal(anchor.len);

  // Minimum score any accepted overlap must reach: acceptance needs
  // quality >= min_quality and min(spans) >= min_overlap, and the ideal
  // span length is at least min(spans), so
  //   score >= min_quality * match * ideal_len
  //         >= min_quality * match * min_overlap.
  // One extra point of slack absorbs the floating-point floor.
  const bool can_bound = bounded && p.scoring.match > 0 &&
                         p.min_quality > 0.0 && p.min_overlap > 0;
  const long t0 =
      can_bound
          ? static_cast<long>(std::floor(
                p.min_quality * static_cast<double>(p.scoring.match) *
                static_cast<double>(p.min_overlap))) -
                1
          : 0;

  const long ub_left =
      static_cast<long>(p.scoring.match) *
      static_cast<long>(std::min(la.size(), lb.size()));
  const long ub_right =
      static_cast<long>(p.scoring.match) *
      static_cast<long>(std::min(ra.size(), rb.size()));

  auto truncated_result = [&](std::uint64_t cells) {
    OverlapResult res;
    res.truncated = true;
    res.cells = cells;
    res.a_begin = anchor.a_pos;
    res.a_end = anchor.a_pos + anchor.len;
    res.b_begin = anchor.b_pos;
    res.b_end = anchor.b_pos + anchor.len;
    return res;
  };

  if (can_bound && anchor_score + ub_left + ub_right < t0) {
    // Even perfect extensions cannot reach an accepting score.
    return truncated_result(0);
  }

  // Extend the side with less potential first: its exact score then
  // tightens the bound for the (typically larger) other side.
  const bool left_first = can_bound && ub_left < ub_right;
  ExtensionResult left, right;
  if (left_first) {
    left = extend_overlap(la, lb, p.scoring, p.band, arena,
                          can_bound ? t0 - anchor_score - ub_right
                                    : kNoGiveUp);
    if (left.capped) return truncated_result(left.cells);
    right = extend_overlap(ra, rb, p.scoring, p.band, arena,
                           can_bound ? t0 - anchor_score - left.score
                                     : kNoGiveUp);
    if (right.capped) return truncated_result(left.cells + right.cells);
  } else {
    right = extend_overlap(ra, rb, p.scoring, p.band, arena,
                           can_bound ? t0 - anchor_score - ub_left
                                     : kNoGiveUp);
    if (right.capped) return truncated_result(right.cells);
    left = extend_overlap(la, lb, p.scoring, p.band, arena,
                          can_bound ? t0 - anchor_score - right.score
                                    : kNoGiveUp);
    if (left.capped) return truncated_result(left.cells + right.cells);
  }

  OverlapResult res;
  res.cells = left.cells + right.cells;
  res.score = anchor_score + left.score + right.score;
  res.a_begin = anchor.a_pos - left.a_len;
  res.b_begin = anchor.b_pos - left.b_len;
  res.a_end = anchor.a_pos + anchor.len + right.a_len;
  res.b_end = anchor.b_pos + anchor.len + right.b_len;

  double ideal_len =
      (static_cast<double>(res.a_span()) + static_cast<double>(res.b_span())) /
      2.0;
  if (ideal_len > 0.0) {
    res.quality = static_cast<double>(res.score) /
                  (static_cast<double>(p.scoring.match) * ideal_len);
    res.quality = std::clamp(res.quality, -1.0, 1.0);
  }

  const bool a_start = res.a_begin == 0;
  const bool b_start = res.b_begin == 0;
  const bool a_end = res.a_end == a.size();
  const bool b_end = res.b_end == b.size();
  if (a_start && a_end) {
    res.kind = OverlapKind::kAContainedInB;
  } else if (b_start && b_end) {
    res.kind = OverlapKind::kBContainedInA;
  } else if (b_start && a_end) {
    // Alignment runs to the end of a and the start of b: a precedes b.
    res.kind = OverlapKind::kABDovetail;
  } else if (a_start && b_end) {
    res.kind = OverlapKind::kBADovetail;
  } else {
    res.kind = OverlapKind::kNone;
  }
  return res;
}

}  // namespace

namespace detail {

bool simd_eligible(std::string_view a, std::string_view b, const Scoring& sc,
                   long give_up) {
  if (sc.match < 0 || sc.mismatch > 0 || sc.gap > 0) return false;
  const long maxcoef = std::max(
      {static_cast<long>(sc.match), -static_cast<long>(sc.mismatch),
       -static_cast<long>(sc.gap), 1L});
  if (maxcoef > kSimdMaxMass) return false;
  const std::size_t mass = a.size() + b.size() + 2;
  if (static_cast<long>(mass) > kSimdMaxMass / maxcoef) return false;
  if (give_up != kNoGiveUp && give_up <= static_cast<long>(kDead16)) {
    return false;
  }
  return codes_clean(a) && codes_clean(b);
}

}  // namespace detail

AlignArena& tls_arena() {
  thread_local AlignArena arena;
  return arena;
}

ExtensionResult extend_overlap(std::string_view a, std::string_view b,
                               const Scoring& sc, std::size_t band,
                               AlignArena& arena, long give_up) {
  return extend_overlap_variant(active_kernel(), a, b, sc, band, arena,
                                give_up);
}

ExtensionResult extend_overlap_variant(KernelVariant variant,
                                       std::string_view a, std::string_view b,
                                       const Scoring& sc, std::size_t band,
                                       AlignArena& arena, long give_up) {
  band = clamp_band(band, a.size(), b.size());
  if (variant != KernelVariant::kScalar && cpu_supports(variant) &&
      band <= detail::kSimdMaxBand &&
      detail::simd_eligible(a, b, sc, give_up)) {
    if (variant == KernelVariant::kAvx2) {
      return detail::band_sweep_avx2(a, b, sc, band, arena, give_up);
    }
    return detail::band_sweep_sse2(a, b, sc, band, arena, give_up);
  }
  if (give_up == kNoGiveUp) {
    return band_sweep<false>(a, b, sc, band, arena, give_up);
  }
  return band_sweep<true>(a, b, sc, band, arena, give_up);
}

long banded_global_score(std::string_view a, std::string_view b,
                         const Scoring& sc, std::size_t band,
                         AlignArena& arena, std::uint64_t* cells_out) {
  const std::size_t m = a.size(), n = b.size();
  const std::size_t diff = m > n ? m - n : n - m;
  if (diff > band) {
    if (cells_out) *cells_out = 0;
    return kNegInf;
  }
  band = clamp_band(band, m, n);
  const std::size_t width = 2 * band + 1;
  arena.ensure_width(width);
  long* prev = arena.prev.data();
  long* cur = arena.cur.data();
  std::fill(prev, prev + width, kNegInf);
  std::fill(cur, cur + width, kNegInf);
  std::uint64_t cells = 0;

  for (std::size_t j = 0; j <= std::min(n, band); ++j) {
    prev[j + band] = static_cast<long>(j) * sc.gap;
  }
  for (std::size_t i = 1; i <= m; ++i) {
    const std::size_t jlo = (i > band) ? i - band : 0;
    const std::size_t jhi = std::min(n, i + band);
    const std::size_t klo = band - (i - jlo);
    const std::size_t khi = (jhi >= i) ? jhi - i + band : band - (i - jhi);
    if (klo > 0) cur[klo - 1] = kNegInf;
    if (khi + 1 < width) cur[khi + 1] = kNegInf;
    for (std::size_t j = jlo; j <= jhi; ++j) {
      const std::size_t k = klo + (j - jlo);
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
  // |n - m| <= band was checked above, so this index is inside the window.
  return prev[(n >= m) ? n - m + band : band - (m - n)];
}

OverlapResult align_anchored(std::string_view a, std::string_view b,
                             const Anchor& anchor, const OverlapParams& p,
                             AlignArena& arena) {
  return anchored_core(a, b, anchor, p, arena, /*bounded=*/false);
}

OverlapResult align_anchored_bounded(std::string_view a, std::string_view b,
                                     const Anchor& anchor,
                                     const OverlapParams& p,
                                     AlignArena& arena) {
  return anchored_core(a, b, anchor, p, arena, /*bounded=*/true);
}

}  // namespace estclust::align
