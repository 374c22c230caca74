// Parallel EST clustering driver (Fig 2): distributed GST construction,
// on-demand pair generation on the slaves, master-directed clustering.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/dataset.hpp"
#include "mpr/communicator.hpp"
#include "pace/config.hpp"
#include "pace/sequential.hpp"

namespace estclust::pace {

struct ParallelResult {
  /// Canonical cluster label per EST (smallest member id of its cluster).
  /// Identical on every rank after the run.
  std::vector<std::uint32_t> labels;
  /// Aggregated over ranks: counters summed, phase times max-reduced.
  PaceStats stats;
  /// Accepted overlaps (rank 0 / master only; empty on other ranks). The
  /// exact set can differ from a sequential run — slaves race ahead of
  /// the cluster state — but its connected components always equal the
  /// clustering, so downstream assembly sees the same contigs.
  std::vector<AcceptedOverlap> overlaps;
};

/// Collective: every rank of `comm` calls this with the same inputs.
/// Rank 0 acts as the master (clusters + pair selection); the remaining
/// ranks build the distributed GST, generate pairs and align. A single
/// rank runs cluster_sequential on its clock instead: the p = 1 baseline
/// of Fig 6.
ParallelResult cluster_parallel(mpr::Communicator& comm,
                                const bio::EstSet& ests,
                                const PaceConfig& cfg);

/// Runs cluster_parallel on every rank of `rt` and returns rank 0's view.
ParallelResult cluster_parallel(mpr::Runtime& rt, const bio::EstSet& ests,
                                const PaceConfig& cfg);

}  // namespace estclust::pace
