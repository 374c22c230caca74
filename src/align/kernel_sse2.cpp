// SSE2 policy for the anti-diagonal band sweep: 8 int16 lanes per vector,
// so the default band of 8 (9 lanes) takes two vectors. Everything the
// sweep needs (saturating add/sub, max/min, mullo, compares, byte shifts)
// is native epi16 SSE2, which is why the lanes are 16-bit rather than 32.
#include "align/kernel_simd.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "align/kernel_sweep.hpp"

namespace estclust::align::detail {

namespace {

struct Sse2Ops {
  using vec = __m128i;
  static constexpr int kLanes = 8;

  static void store(std::int16_t* p, vec v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static vec broadcast(std::int16_t x) { return _mm_set1_epi16(x); }
  static vec iota() { return _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7); }
  static vec add(vec a, vec b) { return _mm_adds_epi16(a, b); }
  static vec sub(vec a, vec b) { return _mm_subs_epi16(a, b); }
  static vec max(vec a, vec b) { return _mm_max_epi16(a, b); }
  static vec min(vec a, vec b) { return _mm_min_epi16(a, b); }
  static vec mullo(vec a, vec b) { return _mm_mullo_epi16(a, b); }
  static vec cmpeq(vec a, vec b) { return _mm_cmpeq_epi16(a, b); }
  static vec cmpgt(vec a, vec b) { return _mm_cmpgt_epi16(a, b); }
  static vec and_(vec a, vec b) { return _mm_and_si128(a, b); }
  static vec andnot(vec a, vec b) { return _mm_andnot_si128(a, b); }
  // result[l] = v[l-1], result[0] = prev[7].
  static vec shift_up(vec v, vec prev) {
    return _mm_or_si128(_mm_slli_si128(v, 2), _mm_srli_si128(prev, 14));
  }
  // result[l] = v[l+1], result[7] = next[0].
  static vec shift_down(vec v, vec next) {
    return _mm_or_si128(_mm_srli_si128(v, 2), _mm_slli_si128(next, 14));
  }
  // All-ones lanes where the 8 codes at a and b agree.
  static vec match_mask(const std::uint8_t* a, const std::uint8_t* b) {
    const __m128i eq =
        _mm_cmpeq_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)),
                       _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
    return _mm_unpacklo_epi8(eq, eq);
  }
  static bool lane_below(vec v, vec bound, int lane) {
    const unsigned bits =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpgt_epi16(bound, v)));
    return ((bits >> (2 * lane)) & 1u) != 0;
  }
};

}  // namespace

ExtensionResult band_sweep_sse2(std::string_view a, std::string_view b,
                                const Scoring& sc, std::size_t band,
                                AlignArena& arena, long give_up) {
  return band_sweep_policy<Sse2Ops>(a, b, sc, band, arena, give_up);
}

bool have_sse2_kernel() { return true; }

}  // namespace estclust::align::detail

#else  // !__SSE2__

#include "util/check.hpp"

namespace estclust::align::detail {

ExtensionResult band_sweep_sse2(std::string_view, std::string_view,
                                const Scoring&, std::size_t, AlignArena&,
                                long) {
  ESTCLUST_CHECK_MSG(false, "sse2 kernel not compiled in");
  return {};
}

bool have_sse2_kernel() { return false; }

}  // namespace estclust::align::detail

#endif
