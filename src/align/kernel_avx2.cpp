// AVX2 policy for the anti-diagonal band sweep: 16 int16 lanes per vector,
// so the default band of 8 (9 lanes) fits one register. This file is the
// only one compiled with -mavx2 (see src/align/CMakeLists.txt), so nothing
// but the sweep itself may live here — the dispatcher guarantees it is
// only entered on hosts whose CPU advertises AVX2.
#include "align/kernel_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "align/kernel_sweep.hpp"

namespace estclust::align::detail {

namespace {

struct Avx2Ops {
  using vec = __m256i;
  static constexpr int kLanes = 16;

  static void store(std::int16_t* p, vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vec broadcast(std::int16_t x) { return _mm256_set1_epi16(x); }
  static vec iota() {
    return _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                             14, 15);
  }
  static vec add(vec a, vec b) { return _mm256_adds_epi16(a, b); }
  static vec sub(vec a, vec b) { return _mm256_subs_epi16(a, b); }
  static vec max(vec a, vec b) { return _mm256_max_epi16(a, b); }
  static vec min(vec a, vec b) { return _mm256_min_epi16(a, b); }
  static vec mullo(vec a, vec b) { return _mm256_mullo_epi16(a, b); }
  static vec cmpeq(vec a, vec b) { return _mm256_cmpeq_epi16(a, b); }
  static vec cmpgt(vec a, vec b) { return _mm256_cmpgt_epi16(a, b); }
  static vec and_(vec a, vec b) { return _mm256_and_si256(a, b); }
  static vec andnot(vec a, vec b) { return _mm256_andnot_si256(a, b); }
  // result[l] = v[l-1], result[0] = prev[15]. The permute supplies each
  // 128-bit half's incoming lane: prev's high half for the low half, v's
  // low half for the high half.
  static vec shift_up(vec v, vec prev) {
    return _mm256_alignr_epi8(v, _mm256_permute2x128_si256(prev, v, 0x21),
                              14);
  }
  // result[l] = v[l+1], result[15] = next[0].
  static vec shift_down(vec v, vec next) {
    return _mm256_alignr_epi8(_mm256_permute2x128_si256(v, next, 0x21), v,
                              2);
  }
  // All-ones lanes where the 16 codes at a and b agree.
  static vec match_mask(const std::uint8_t* a, const std::uint8_t* b) {
    const __m128i eq =
        _mm_cmpeq_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
    return _mm256_cvtepi8_epi16(eq);
  }
  static bool lane_below(vec v, vec bound, int lane) {
    const unsigned bits = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpgt_epi16(bound, v)));
    return ((bits >> (2 * lane)) & 1u) != 0;
  }
};

}  // namespace

ExtensionResult band_sweep_avx2(std::string_view a, std::string_view b,
                                const Scoring& sc, std::size_t band,
                                AlignArena& arena, long give_up) {
  return band_sweep_policy<Avx2Ops>(a, b, sc, band, arena, give_up);
}

bool have_avx2_kernel() { return true; }

}  // namespace estclust::align::detail

#else  // !__AVX2__

#include "util/check.hpp"

namespace estclust::align::detail {

ExtensionResult band_sweep_avx2(std::string_view, std::string_view,
                                const Scoring&, std::size_t, AlignArena&,
                                long) {
  ESTCLUST_CHECK_MSG(false, "avx2 kernel not compiled in");
  return {};
}

bool have_avx2_kernel() { return false; }

}  // namespace estclust::align::detail

#endif
