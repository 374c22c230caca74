// Generic 16-bit anti-diagonal band sweep, shared by the SSE2 and AVX2
// translation units via a vector-ops policy `V` (lane count, saturating
// adds, max/min, compares, one-lane shifts, a code-match mask). No
// intrinsics appear here, so the header compiles standalone; only the
// per-ISA policies in kernel_sse2.cpp / kernel_avx2.cpp pull in immintrin.
//
// Layout. B is the clamped band. Cell (i, j) lies on anti-diagonal
// t = i + j at band offset k = j - i in [-B, B], and goes to lane
// l = (k + B) >> 1 of that anti-diagonal's N vectors (band lane c*L + l of
// vector c). Lanes 0..B hold the cells when p = (t + B) & 1 is 0, lanes
// 0..B-1 when p is 1. The cells of one anti-diagonal do not depend on each
// other:
//
//   diagonal (i-1, j-1): lane l of t-2
//   up       (i-1, j)  : lane l of t-1 (p = 0) or lane l+1 (p = 1)
//   left     (i, j-1)  : lane l-1 of t-1 (p = 0) or lane l (p = 1)
//
// so H(t) = max(H(t-2) + s, max(H(t-1), H(t-1) shifted one lane) + gap),
// one lane shift whose direction alternates with p, on values that never
// leave registers. a is stored reversed, so a[i-1] across the lanes of an
// anti-diagonal (i falls as the lane rises) is one ascending load, as
// b[j-1] is.
//
// Dead lanes. A lane outside the band or the rectangle [0, m] x [0, n]
// adds a saturating -32768 through its mismatch and gap entries (and no
// match bonus), so it ends at most kSimdMaxMass / 2 - 32768, far below
// kDead16, whatever its inputs; no blend sits on the dependency chain. In
// the interior only the band lanes past B - p are dead, and the folded
// entries are loop constants; near the rectangle's edges they are rebuilt
// from each anti-diagonal's live lane range. Every live cell is reachable
// inside the band, so live lanes carry the scalar sweep's exact values.
//
// Rows close in order. Lane l of anti-diagonals 2q - B and 2q - B + 1 (the
// pair q) holds row q - l, so row q - B is complete after pair q. Closing
// it charges the row's cells, replays its boundary cells through the same
// consider() order as the scalar sweep ((i, n) for i < m, then row m in
// ascending j, stored when their anti-diagonal was computed) and, in
// bounded mode, runs the give-up test. Its row_ub is lane B of
// Acc(q) = max(E(q), Acc(q-1) shifted up one lane), where E(q) is the
// lane-wise max of v + match * min(m - i, n - j) over the pair's two
// anti-diagonals. On a give-up, `cells` counts the rows up to the give-up
// row only; the anti-diagonal cells computed past it are charged nowhere.
// So every result field, `cells` and `capped` included, matches the scalar
// sweep bit for bit.
//
// Bit-identity with the scalar sweep rests on eligibility
// (kernel_simd.hpp): live values stay in [-kSimdMaxMass, kSimdMaxMass / 2],
// so the saturating adds are exact on live lanes, and the kDead16
// comparison reproduces the scalar != kNegInf liveness test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

#include "align/kernel_simd.hpp"
#include "util/check.hpp"

namespace estclust::align::detail {

static_assert(AlignArena::kCodePad >= 2 * (kSimdMaxBand + 1),
              "code pads must cover a band's lanes past either string end");

template <class V, int N, bool Bounded>
ExtensionResult band_sweep_simd(std::string_view a, std::string_view b,
                                const Scoring& sc, std::size_t band,
                                AlignArena& arena, long give_up) {
  using vec = typename V::vec;
  constexpr long L = V::kLanes;
  // One anti-diagonal: band lane c*L + l is lane l of v[c].
  struct Diag {
    vec v[N];
  };
  // The per-lane entries of one anti-diagonal with its dead lanes folded
  // in: mismatch and gap are -32768 there and the match bonus is 0.
  struct Fold {
    Diag mis, bonus, gap;
  };
  const std::size_t m = a.size(), n = b.size();
  ExtensionResult best;
  best.score = kNegInfScore;

  if (m == 0 || n == 0) {
    best.score = 0;
    best.a_len = 0;
    best.b_len = 0;
    best.a_exhausted = (m == 0);
    best.b_exhausted = (n == 0);
    return best;
  }

  if constexpr (Bounded) {
    if (sc.match * static_cast<long>(std::min(m, n)) < give_up) {
      best.capped = true;
      return best;
    }
  }

  ESTCLUST_DCHECK(band / L + 1 == static_cast<std::size_t>(N));
  arena.ensure_simd(2 * band + 1, m, n);
  std::uint8_t* const ra = arena.codes_a.data() + AlignArena::kCodePad;
  std::uint8_t* const rb = arena.codes_b.data() + AlignArena::kCodePad;
  std::reverse_copy(a.begin(), a.end(), ra);
  std::copy(b.begin(), b.end(), rb);
  std::int16_t* const col_n = arena.col_n.data();
  std::int16_t* const row_m = arena.row_m.data();

  const long lm = static_cast<long>(m), ln = static_cast<long>(n);
  const long B = static_cast<long>(band);
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

  // Row 0 holds one boundary cell, (0, n), when n <= band.
  if (n <= band) consider(static_cast<long>(n) * sc.gap, 0, n);

  const auto i16 = [](long x) { return static_cast<std::int16_t>(x); };
  const vec vmatch = V::broadcast(i16(sc.match));
  const vec vmis = V::broadcast(i16(sc.mismatch));
  const vec vbonus = V::broadcast(i16(sc.match - sc.mismatch));
  const vec vgap = V::broadcast(i16(sc.gap));
  const vec vmin = V::broadcast(std::numeric_limits<std::int16_t>::min());
  const vec vdead = V::broadcast(kNegInf16);
  Diag iota;
  for (int c = 0; c < N; ++c) {
    iota.v[c] = V::add(V::iota(), V::broadcast(i16(c * L)));
  }

  // Entries of an anti-diagonal whose live lanes are [lo, hi].
  const auto fold = [&](long lo, long hi) __attribute__((always_inline)) {
    const vec vlo = V::broadcast(i16(std::clamp(lo - 1, -1L, N * L)));
    const vec vhi = V::broadcast(i16(std::clamp(hi + 1, -1L, N * L)));
    Fold f;
    for (int c = 0; c < N; ++c) {
      const vec live =
          V::and_(V::cmpgt(iota.v[c], vlo), V::cmpgt(vhi, iota.v[c]));
      const vec dead = V::andnot(live, vmin);
      f.mis.v[c] = V::add(vmis, dead);
      f.bonus.v[c] = V::and_(live, vbonus);
      f.gap.v[c] = V::add(vgap, dead);
    }
    return f;
  };

  // The sweep state: h1 holds anti-diagonal t - 1 and h2 t - 2, and in
  // bounded mode acc holds the row accumulators and hr0 / hr1 hold
  // match * min(m - i, n - j) for the current pair's two anti-diagonals.
  // Both hr fall by match per pair. They are exact on band lanes 0..B (the
  // only ones that reach lane B of acc) while the true value fits, and
  // saturate only where it has gone negative for good, on dead lanes.
  struct State {
    Diag h1, h2, acc, hr0, hr1;
    // Copies vector by vector: GCC keeps both sides of a whole-struct copy
    // on the stack, which put a store and a reload on the interior loop's
    // dependency chain.
    void assign(const State& o) {
      for (int c = 0; c < N; ++c) {
        h1.v[c] = o.h1.v[c];
        h2.v[c] = o.h2.v[c];
        acc.v[c] = o.acc.v[c];
        hr0.v[c] = o.hr0.v[c];
        hr1.v[c] = o.hr1.v[c];
      }
    }
  };
  State st;
  for (int c = 0; c < N; ++c) {
    st.h1.v[c] = st.h2.v[c] = st.acc.v[c] = st.hr0.v[c] = st.hr1.v[c] = vdead;
  }
  // Anti-diagonal t = 0 is the seed cell (0, 0) alone.
  Diag seed;
  for (int c = 0; c < N; ++c) {
    seed.v[c] =
        V::andnot(V::cmpeq(iota.v[c], V::broadcast(i16(B >> 1))), vdead);
  }
  [[maybe_unused]] vec vgive{};
  const long q0 = B >> 1;  // the pair holding t = 0
  if constexpr (Bounded) {
    vgive = V::broadcast(i16(give_up));
    const vec hm = V::broadcast(i16(sc.match * (lm - q0)));
    const vec hn0 = V::broadcast(i16(sc.match * (ln - q0 + B)));
    const vec hn1 = V::broadcast(i16(sc.match * (ln - q0 + B - 1)));
    for (int c = 0; c < N; ++c) {
      const vec ml = V::mullo(iota.v[c], vmatch);
      st.hr0.v[c] = V::min(V::add(hm, ml), V::sub(hn0, ml));
      st.hr1.v[c] = V::min(V::add(hm, ml), V::sub(hn1, ml));
    }
  }

  // Computes anti-diagonal t into h1; pa / pb point at the codes of band
  // lane 0, a[i-1] and b[j-1].
  const auto step = [&](State& x, auto parity, const Fold& f,
                        const std::uint8_t* pa, const std::uint8_t* pb)
                        __attribute__((always_inline)) {
    constexpr int P = decltype(parity)::value;
    Diag h;
    for (int c = 0; c < N; ++c) {
      const vec eq = V::match_mask(pa + c * L, pb + c * L);
      const vec s = V::add(f.mis.v[c], V::and_(eq, f.bonus.v[c]));
      // The rotation's wrapped lane is band lane N*L - 1 of a p = 1
      // anti-diagonal (dead, as N*L - 1 >= B) or lands there.
      const vec nb =
          P == 0 ? V::shift_up(x.h1.v[c], x.h1.v[c == 0 ? N - 1 : c - 1])
                 : V::shift_down(x.h1.v[c], x.h1.v[c == N - 1 ? 0 : c + 1]);
      h.v[c] = V::max(V::add(x.h2.v[c], s),
                      V::add(V::max(x.h1.v[c], nb), f.gap.v[c]));
    }
    for (int c = 0; c < N; ++c) {
      x.h2.v[c] = x.h1.v[c];
      x.h1.v[c] = h.v[c];
    }
  };
  const auto accumulate = [&](State& x) __attribute__((always_inline)) {
    if constexpr (Bounded) {
      Diag next;
      for (int c = 0; c < N; ++c) {
        const vec e = V::max(V::add(x.h2.v[c], x.hr0.v[c]),
                             V::add(x.h1.v[c], x.hr1.v[c]));
        next.v[c] = V::max(
            e, V::shift_up(x.acc.v[c], c == 0 ? vdead : x.acc.v[c - 1]));
        x.hr0.v[c] = V::sub(x.hr0.v[c], vmatch);
        x.hr1.v[c] = V::sub(x.hr1.v[c], vmatch);
      }
      for (int c = 0; c < N; ++c) x.acc.v[c] = next.v[c];
    }
  };
  // Lane B of acc is below give_up: row q - B cannot reach it any more.
  const auto row_hopeless = [&](const State& x)
                                __attribute__((always_inline)) {
    return V::lane_below(x.acc.v[N - 1], vgive, static_cast<int>(B % L));
  };

  // General close of row r (charge, boundary cells, give-up test).
  // Returns false when the sweep gives up.
  const auto close_row = [&](long r) {
    if (r < 1) return true;  // row 0 is neither charged nor tested
    const long jlo = std::max(0L, r - B), jhi = std::min(ln, r + B);
    cells += static_cast<std::uint64_t>(jhi - jlo + 1);
    if (r == lm) {
      for (long j = jlo; j <= jhi; ++j) {
        if (row_m[j] > kDead16) {
          consider(row_m[j], m, static_cast<std::size_t>(j));
        }
      }
    } else if (jhi == ln && col_n[r] > kDead16) {
      consider(col_n[r], static_cast<std::size_t>(r), n);
    }
    if constexpr (Bounded) {
      if (best.score < give_up && row_hopeless(st)) {
        best.capped = true;
        return false;
      }
    }
    return true;
  };

  // A pair near the rectangle's edges: live lanes from explicit ranges,
  // boundary cells stored as they are computed, the general row close.
  const auto edge_pair = [&](long q) {
    const std::uint8_t* pa = ra + (lm - q);
    const std::uint8_t* pb = rb + (q - B - 1);
    const auto half = [&](auto parity) __attribute__((always_inline)) {
      constexpr long P = decltype(parity)::value;
      const long lo = std::max({0L, q - lm, B - P - q});
      const long hi = std::min({B - P, q, ln - q + B - P});
      if (2 * q - B + P == 0) {
        st.h2 = st.h1;
        st.h1 = seed;
      } else {
        step(st, parity, fold(lo, hi), pa, pb + P);
      }
      const long lcol = ln - q + B - P;  // lane of (q - lcol, n)
      const long lrow = q - lm;          // lane of (m, q - B + P + lrow)
      const bool has_col = lcol >= lo && lcol <= hi && q - lcol < lm;
      const bool has_row = lrow >= lo && lrow <= hi;
      if (has_col || has_row) {
        alignas(32) std::int16_t lanes[N * L];
        for (int c = 0; c < N; ++c) V::store(lanes + c * L, st.h1.v[c]);
        if (has_col) col_n[q - lcol] = lanes[lcol];
        if (has_row) row_m[q - B + P + lrow] = lanes[lrow];
      }
    };
    half(std::integral_constant<long, 0>{});
    half(std::integral_constant<long, 1>{});
    accumulate(st);
    return close_row(q - B);
  };

  // Interior pairs: every band lane lies inside [0, m) x [0, n), so the
  // folded entries are loop constants, no boundary cell is computed and
  // none is considered (best.score is still kNegInfScore), and the row
  // close is a charge plus one vector compare. The loop runs on its own
  // copy of the state, which no out-of-line code sees, so it stays in
  // registers.
  const Fold in0 = fold(0, B), in1 = fold(0, B - 1);
  const auto interior = [&](long& q, long q_stop) {
    State x;
    x.assign(st);
    bool live = true;
    for (; q < q_stop; ++q) {
      const std::uint8_t* pa = ra + (lm - q);
      const std::uint8_t* pb = rb + (q - B - 1);
      step(x, std::integral_constant<int, 0>{}, in0, pa, pb);
      step(x, std::integral_constant<int, 1>{}, in1, pa, pb + 1);
      accumulate(x);
      const long r = q - B;
      if (r < 1) continue;
      cells += static_cast<std::uint64_t>(B + 1 + std::min(r, B));
      if constexpr (Bounded) {
        if (row_hopeless(x)) {
          best.capped = true;
          live = false;
          break;
        }
      }
    }
    st.assign(x);
    return live;
  };

  // Pairs q0 .. r_last + B close rows 1 .. r_last (rows past n + band hold
  // no cell); the interior pairs are [in_lo, in_hi).
  const long q_end = std::min(lm, ln + B) + B;
  const long in_lo = std::max(B, q0 + 1), in_hi = std::min(lm, ln);
  bool live = true;
  long q = q0;
  for (; live && q < in_lo; ++q) live = edge_pair(q);
  if (live && q < in_hi) live = interior(q, in_hi);
  for (; live && q <= q_end; ++q) live = edge_pair(q);

  best.cells = cells;
  if (best.capped) return best;  // give-up bound fired mid-sweep
  ESTCLUST_CHECK_MSG(best.score != kNegInfScore,
                     "banded extension found no boundary cell");
  return best;
}

/// The sweep with the fewest vectors that hold band + 1 lanes, chosen from
/// the instantiations 1..N.
template <class V, int N>
ExtensionResult band_sweep_vectors(std::string_view a, std::string_view b,
                                   const Scoring& sc, std::size_t band,
                                   AlignArena& arena, long give_up) {
  if constexpr (N > 1) {
    if (band + 1 <= static_cast<std::size_t>((N - 1) * V::kLanes)) {
      return band_sweep_vectors<V, N - 1>(a, b, sc, band, arena, give_up);
    }
  }
  if (give_up == kNoGiveUp) {
    return band_sweep_simd<V, N, false>(a, b, sc, band, arena, give_up);
  }
  return band_sweep_simd<V, N, true>(a, b, sc, band, arena, give_up);
}

/// Entry point of a policy's translation unit; band <= kSimdMaxBand.
template <class V>
ExtensionResult band_sweep_policy(std::string_view a, std::string_view b,
                                  const Scoring& sc, std::size_t band,
                                  AlignArena& arena, long give_up) {
  constexpr int kVectors =
      static_cast<int>((kSimdMaxBand + V::kLanes) / V::kLanes);
  ESTCLUST_CHECK(band <= kSimdMaxBand);
  return band_sweep_vectors<V, kVectors>(a, b, sc, band, arena, give_up);
}

}  // namespace estclust::align::detail
