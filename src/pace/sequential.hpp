// Single-processor clustering: the one p = 1 pipeline.
//
// Partition, GST, node sort and the clustering loop (loop.hpp) on one
// processor, on whichever clock the caller attaches. The kmer backend
// skips partition and GST: it reads only its bucket ids. Without a
// communicator it charges nothing and reads no clock — the path Table 1,
// Table 2 and Fig 7 time from outside, and the natural entry point for
// library users. With one it builds through the rank's distributed GST
// and charges the rank's virtual clock, which is how cluster_parallel
// runs p = 1 (Fig 6's first point) and how a traced or checked
// single-processor run is observed. Both clocks see the same pair stream,
// counters and partition.
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

/// Clusters `ests` and returns the final union-find plus counters. `comm`
/// is the clock: null runs unmetered (every PaceStats time stays 0); a
/// single-rank communicator gets the modeled charges, phase spans and
/// aligner metrics, and PaceStats times are its virtual seconds.
SequentialResult cluster_sequential(const bio::EstSet& ests,
                                    const PaceConfig& cfg,
                                    SequentialOptions options = {},
                                    mpr::Communicator* comm = nullptr);

}  // namespace estclust::pace
