// Bridges promising pairs to the anchored alignment kernel.
#pragma once

#include <cstdint>

#include "align/anchored.hpp"
#include "align/kernel.hpp"
#include "bio/dataset.hpp"
#include "pace/config.hpp"
#include "pairgen/generator.hpp"

namespace estclust::pace {

/// Outcome of aligning one promising pair.
struct PairEvaluation {
  align::OverlapResult overlap;  ///< cells == DP cells computed THIS call
  bool accepted = false;
};

/// Always zero: nothing caches verdicts. Kept only because the per-layer
/// benchmark (bench/layers) still reads `memo_stats()` for its
/// align.memo_hit_ratio metric; both go together when that benchmark
/// drops the metric.
struct MemoStats {
  std::uint64_t lookups = 0, hits = 0;
};

/// Runs the anchored banded alignment of §3.3 on a pair: string a is the
/// forward orientation of EST pair.a; string b is EST pair.b in the
/// orientation recorded by the generator; the maximal common substring
/// found by the pair source is the anchor. One per slave or local driver.
/// Owns the DP arena (zero allocations per pair once warm) and applies
/// the bounded kernel when the config allows. With `bounded_align` off
/// every call is the exact alignment; with it on every verdict is the
/// same, but a rejected pair may cost fewer DP cells and report a
/// truncated overlap.
class PairAligner {
 public:
  PairAligner(const bio::EstSet& ests, const PaceConfig& cfg)
      : ests_(ests), cfg_(cfg) {}

  PairEvaluation evaluate(const pairgen::PromisingPair& pair);

  MemoStats memo_stats() const { return {}; }

  /// Scratch-arena introspection (feeds the align.arena_bytes gauge).
  const align::AlignArena& arena() const { return arena_; }

 private:
  const bio::EstSet& ests_;
  const PaceConfig& cfg_;
  align::AlignArena arena_;
};

}  // namespace estclust::pace
