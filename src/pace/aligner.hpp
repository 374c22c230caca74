// Bridges promising pairs to the anchored alignment kernel.
#pragma once

#include "align/anchored.hpp"
#include "align/kernel.hpp"
#include "bio/dataset.hpp"
#include "pace/config.hpp"
#include "pace/memo.hpp"
#include "pairgen/generator.hpp"

namespace estclust::pace {

/// Outcome of aligning one promising pair.
struct PairEvaluation {
  align::OverlapResult overlap;  ///< cells == DP cells computed THIS call
  bool accepted = false;
  bool memo_hit = false;  ///< served from the memo cache (0 new DP cells)
};

/// Runs the anchored banded alignment of §3.3 on a pair: string a is the
/// forward orientation of EST pair.a; string b is EST pair.b in the
/// orientation recorded by the generator; the maximal common substring
/// found by the pair source is the anchor. One per slave or local driver.
/// Owns the DP arena (zero allocations per pair once warm) and the
/// alignment memo, and applies the bounded kernel when the config allows.
/// With `memo` and `bounded_align` off every call is the exact alignment.
/// Either switch keeps every verdict; it saves DP cells and may report a
/// truncated or cached overlap for a rejected pair.
class PairAligner {
 public:
  PairAligner(const bio::EstSet& ests, const PaceConfig& cfg)
      : ests_(ests),
        cfg_(cfg),
        memo_(cfg.memo ? cfg.memo_capacity : 0) {}

  PairEvaluation evaluate(const pairgen::PromisingPair& pair);

  const MemoStats& memo_stats() const { return memo_.stats(); }

  /// Scratch-arena introspection (feeds the align.arena_bytes gauge).
  const align::AlignArena& arena() const { return arena_; }

 private:
  const bio::EstSet& ests_;
  const PaceConfig& cfg_;
  align::AlignArena arena_;
  AlignMemo memo_;
};

}  // namespace estclust::pace
