// The production banded-DP kernel behind the §3.3 hot path.
//
// The legacy entry points in banded.hpp / anchored.hpp remain the public
// API; they are thin wrappers over this kernel. What the kernel adds:
//
//  * AlignArena — all scratch state (the two band rows and the reversed
//    prefixes used by leftward extension) lives in one reusable arena, so a
//    slave performs zero heap allocations per pair once warmed up.
//
//  * A blocked band sweep — the (2*band + 1)-wide window is the only memory
//    the row loop touches. Instead of clearing the whole window every row,
//    the sweep writes the row's live cell range plus one sentinel on each
//    side (the window boundary moves by at most one cell per row), so the
//    inner loop is a single contiguous pass per row.
//
//  * An optional give-up bound — when the caller can prove that any
//    extension scoring below `give_up` leads to a rejected overlap, the
//    kernel abandons the sweep as soon as no cell in the current row can
//    reach `give_up` any more (upper bound: current cell value plus a full
//    run of matches to the nearer string end). Results are then marked
//    `capped`; a capped extension certainly belongs to a rejected pair, so
//    acceptance verdicts — and therefore clusters — are unchanged.
//    Without a bound (kNoGiveUp) the kernel is bit-identical to the
//    pre-arena implementation.
//
//  * A SIMD band sweep (SSE2/AVX2, 16-bit lanes) behind a one-time runtime
//    dispatch (dispatch.hpp). It walks the band anti-diagonal by
//    anti-diagonal in registers (kernel_sweep.hpp) and closes rows in the
//    scalar sweep's order, so it is bit-identical to the scalar one — same
//    scores, end positions, capped flags and DP-cell counts — and
//    accounting, verdicts and clusters are variant-invariant. Pairs outside
//    the vector kernels' value-range envelope, and bands wider than
//    kSimdMaxBand, silently take the scalar path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "align/anchored.hpp"
#include "align/banded.hpp"
#include "align/dispatch.hpp"
#include "align/scoring.hpp"

namespace estclust::align {

/// Reusable scratch space for the banded kernel. One per slave (or one
/// thread_local per compatibility caller); never shared across threads.
struct AlignArena {
  std::vector<long> prev, cur;  ///< band rows, (2*band + 1) wide
  std::string rev_a, rev_b;     ///< reversed prefixes for leftward extension

  // SIMD scratch (kernel_sweep.hpp): a's bases reversed and b's bases,
  // each between kCodePad bytes of padding so the vector loads of lanes
  // past either string end stay in bounds (those lanes are dead, so the
  // pad values never reach a live cell); and the boundary cells (i, n) and
  // (m, j), held from their anti-diagonal until their row closes.
  std::vector<std::uint8_t> codes_a, codes_b;
  std::vector<std::int16_t> col_n, row_m;

  /// Padding on each side of codes_a / codes_b, in bytes.
  static constexpr std::size_t kCodePad = 96;

  /// Shrink policy: after this many consecutive ensure_width calls that
  /// need at most half the current row capacity, the arena decays to the
  /// peak width of that streak. One pathological long pair therefore no
  /// longer pins high-water band memory for the rest of a slave's life.
  static constexpr std::size_t kShrinkAfterUses = 512;

  /// Grows the band rows to at least `width` cells (shrinking them again
  /// after a long streak of much smaller requests). Contents are not
  /// preserved; the kernel re-seeds both rows on entry.
  void ensure_width(std::size_t width) {
    if (width > prev.size()) {
      prev.resize(width);
      cur.resize(width);
      streak_ = 0;
      streak_peak_ = 0;
    } else if (2 * width <= prev.size()) {
      // streak_peak_ accumulates only widths seen during the streak — if
      // it carried the grown capacity, shrink_to would be a no-op and one
      // pathological pair would pin band memory forever.
      streak_peak_ = std::max(streak_peak_, width);
      if (++streak_ >= kShrinkAfterUses) shrink_to(streak_peak_);
    } else {
      streak_ = 0;
      streak_peak_ = 0;
    }
    high_water_ = std::max(high_water_, bytes());
  }

  /// ensure_width plus the SIMD buffers for an (m, n) pair. The width
  /// request keeps the SIMD scratch on the shrink policy.
  void ensure_simd(std::size_t width, std::size_t m, std::size_t n) {
    ensure_width(width);
    if (codes_a.size() < m + 2 * kCodePad) codes_a.resize(m + 2 * kCodePad);
    if (codes_b.size() < n + 2 * kCodePad) codes_b.resize(n + 2 * kCodePad);
    if (col_n.size() < m + 1) col_n.resize(m + 1);
    if (row_m.size() < n + 1) row_m.resize(n + 1);
    high_water_ = std::max(high_water_, bytes());
  }

  /// Current heap footprint of all scratch buffers.
  std::size_t bytes() const {
    return (prev.capacity() + cur.capacity()) * sizeof(long) +
           codes_a.capacity() + codes_b.capacity() +
           (col_n.capacity() + row_m.capacity()) * sizeof(std::int16_t) +
           rev_a.capacity() + rev_b.capacity();
  }

  /// Largest bytes() ever observed; feeds the align.arena_bytes gauge.
  std::size_t high_water_bytes() const { return high_water_; }

  /// Band-row capacity, in cells (test/introspection hook).
  std::size_t row_capacity() const { return prev.size(); }

 private:
  void shrink_to(std::size_t width) {
    // Swap-trick so capacity actually drops (`v = {}` would keep it); the
    // SIMD scratch regrows on demand, so it is simply released along with
    // the rows.
    std::vector<long>(width).swap(prev);
    std::vector<long>(width).swap(cur);
    std::vector<std::uint8_t>().swap(codes_a);
    std::vector<std::uint8_t>().swap(codes_b);
    std::vector<std::int16_t>().swap(col_n);
    std::vector<std::int16_t>().swap(row_m);
    streak_ = 0;
    streak_peak_ = 0;
  }

  std::size_t streak_ = 0;       ///< consecutive small ensure_width calls
  std::size_t streak_peak_ = 0;  ///< max width requested during the streak
  std::size_t high_water_ = 0;
};

/// Sentinel: no give-up bound, compute the exact extension.
inline constexpr long kNoGiveUp = std::numeric_limits<long>::min();

/// The shared per-thread arena behind the legacy (arena-less) entry points
/// in banded.hpp / anchored.hpp. Hot-path callers hold their own arena.
AlignArena& tls_arena();

/// Banded overlap extension (same semantics as banded.hpp's
/// extend_overlap) computed in `arena`. With `give_up` == kNoGiveUp the
/// result is bit-identical to the reference banded sweep. With a bound,
/// the kernel may stop early and return `capped = true`; this happens only
/// when every completion of the extension scores below `give_up`.
ExtensionResult extend_overlap(std::string_view a, std::string_view b,
                               const Scoring& sc, std::size_t band,
                               AlignArena& arena, long give_up = kNoGiveUp);

/// extend_overlap computed by an explicit kernel variant instead of the
/// process-wide active_kernel(). Every variant returns bit-identical
/// results (the differential tests and fuzzers lock this in); variants the
/// host cannot run — and pairs outside the 16-bit kernels' value-range
/// envelope — fall back to the scalar sweep. This is the hook tests and
/// benches use to compare variants side by side in one process.
ExtensionResult extend_overlap_variant(KernelVariant variant,
                                       std::string_view a, std::string_view b,
                                       const Scoring& sc, std::size_t band,
                                       AlignArena& arena,
                                       long give_up = kNoGiveUp);

/// Banded global score (same semantics as banded.hpp's
/// banded_global_score) computed in `arena`.
long banded_global_score(std::string_view a, std::string_view b,
                         const Scoring& sc, std::size_t band,
                         AlignArena& arena,
                         std::uint64_t* cells_out = nullptr);

/// Anchored alignment computed in `arena` (no per-call allocation).
/// Identical results to align_anchored(a, b, anchor, p).
OverlapResult align_anchored(std::string_view a, std::string_view b,
                             const Anchor& anchor, const OverlapParams& p,
                             AlignArena& arena);

/// Anchored alignment with sound early exit. If the full result would be
/// accepted by accept_overlap(r, p), this returns exactly that full
/// result. If rejection becomes certain mid-extension (no completion can
/// reach the minimum accepting score q * match * min_overlap), it stops
/// and returns a result with `truncated = true`, which accept_overlap
/// always rejects. Acceptance verdicts are therefore identical to the
/// exact path; only the DP cell count (and score/span fields of rejected
/// pairs) may differ.
OverlapResult align_anchored_bounded(std::string_view a, std::string_view b,
                                     const Anchor& anchor,
                                     const OverlapParams& p,
                                     AlignArena& arena);

}  // namespace estclust::align
