// Internal interface between the kernel dispatcher and the SIMD sweep
// translation units (kernel_sse2.cpp / kernel_avx2.cpp).
//
// The vector sweeps run the band recurrence anti-diagonal by anti-diagonal
// in 16-bit lanes, so they are only entered for pairs whose whole value
// range provably fits: simd_eligible() bounds |score| by
// maxcoef * (m + n + 2) <= kSimdMaxMass, which keeps every live cell in
// [-kSimdMaxMass, kSimdMaxMass / 2] and lets the sweep push every dead lane
// (seeded at kNegInf16, or folded to a saturating -32768 each step) far
// below kDead16. Live and dead cells therefore never meet, and comparing
// against kDead16 reproduces the scalar sweep's exact != kNegInf liveness
// tests. An anti-diagonal holds band + 1 cells; bands wider than
// kSimdMaxBand take the scalar sweep like pairs outside kSimdMaxMass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#include "align/banded.hpp"
#include "align/kernel.hpp"
#include "align/scoring.hpp"

namespace estclust::align::detail {

/// The scalar sweep's "minus infinity" cell value.
inline constexpr long kNegInfScore = std::numeric_limits<long>::min() / 4;

/// 16-bit lane sentinel for unreachable cells (the sweep's initial lanes).
inline constexpr std::int16_t kNegInf16 = -30000;

/// Live/dead classification threshold: live cells stay strictly above,
/// dead cells strictly below (see header comment for the margin proof).
inline constexpr std::int16_t kDead16 = -16384;

/// Bound on maxcoef * (m + n + 2) for a pair to take a 16-bit sweep.
inline constexpr long kSimdMaxMass = 12000;

/// Widest clamped band the 16-bit sweeps take. The sweeps are instantiated
/// for up to 48 lanes (3 AVX2 or 6 SSE2 vectors), one per cell of an
/// anti-diagonal; a wider band takes the scalar sweep.
inline constexpr std::size_t kSimdMaxBand = 47;

/// True iff the 16-bit sweeps are exact for this input: non-positive
/// gap/mismatch, non-negative match, value range within kSimdMaxMass,
/// give_up above the dead band, and both strings strict uppercase ACGT
/// (so 2-bit code equality coincides with byte equality).
bool simd_eligible(std::string_view a, std::string_view b, const Scoring& sc,
                   long give_up);

ExtensionResult band_sweep_sse2(std::string_view a, std::string_view b,
                                const Scoring& sc, std::size_t band,
                                AlignArena& arena, long give_up);
ExtensionResult band_sweep_avx2(std::string_view a, std::string_view b,
                                const Scoring& sc, std::size_t band,
                                AlignArena& arena, long give_up);

/// Whether the corresponding sweep was compiled with its instruction set
/// (false on non-x86 builds or compilers without -mavx2).
bool have_sse2_kernel();
bool have_avx2_kernel();

}  // namespace estclust::align::detail
