// Single-processor clustering driver.
//
// The single-rank driver with wall-clock phase timing in place of the
// virtual clock: same pair source, aligner and loop (loop.hpp), so the same
// counters and partition. This is the path Table 1, Table 2 and Fig 7 use,
// and the natural entry point for library users without a rank group.
#pragma once

#include "bio/dataset.hpp"
#include "cluster/union_find.hpp"
#include "pace/config.hpp"
#include "pace/loop.hpp"

namespace estclust::pace {

struct SequentialResult {
  cluster::UnionFind clusters;
  PaceStats stats;
  /// Every accepted overlap, in processing order (including those whose
  /// ESTs were already co-clustered transitively).
  std::vector<AcceptedOverlap> overlaps;
};

/// Ablation knobs for §3.2's central claims (the production defaults are
/// both `false`/`true` respectively).
struct SequentialOptions {
  /// true: materialize every promising pair first and process in an order
  /// uncorrelated with match length (the memory-hungry strategy of prior
  /// tools) instead of the on-demand decreasing-match-length stream.
  bool arbitrary_order = false;
  /// false: align every promising pair even when its ESTs already share a
  /// cluster — what an assembler that needs all overlap scores must do.
  bool cluster_skip = true;
};

/// Clusters `ests` and returns the final union-find plus counters.
SequentialResult cluster_sequential(const bio::EstSet& ests,
                                    const PaceConfig& cfg,
                                    SequentialOptions options = {});

}  // namespace estclust::pace
