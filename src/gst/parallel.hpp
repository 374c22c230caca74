// Distributed GST construction (§3.1).
//
// 1. ESTs are block-partitioned across ranks with near-equal character
//    counts.
// 2. Each rank scans its ESTs and reverse complements, bucketing suffixes
//    by their first w characters.
// 3. A parallel summation produces the global per-bucket histogram in
//    O(log p) communication steps.
// 4. Buckets are assigned to ranks so each rank holds ~N·l/p suffixes
//    (greedy largest-first), with every suffix of a bucket on one rank.
// 5. An all-to-all exchange routes suffixes to their bucket owner; each
//    rank then refines its buckets into subtrees locally.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/builder.hpp"
#include "gst/tree.hpp"
#include "mpr/communicator.hpp"

namespace estclust::gst {

struct GstConfig {
  std::uint32_t window = 8;  ///< w, the bucketing prefix length
};

/// Virtual-time and size accounting for one rank's share of the build.
struct ParallelBuildStats {
  double partition_vtime = 0.0;  ///< suffix bucketing + histogram + routing
  double build_vtime = 0.0;      ///< local refinement of owned buckets
  std::uint64_t local_suffixes = 0;   ///< suffixes this rank owns post-exchange
  std::uint64_t local_buckets = 0;    ///< buckets (= subtrees) owned
  std::uint64_t chars_scanned = 0;    ///< refinement character steps
  std::uint64_t global_suffixes = 0;  ///< total suffixes across ranks
};

/// Collective: every rank calls this; returns the rank's local share of the
/// distributed GST (one Tree per owned bucket, ordered by bucket id).
/// `first_owner_rank` excludes lower ranks from bucket ownership (the
/// master/slave driver keeps the GST off the master); every rank still
/// participates in the collectives.
std::vector<Tree> build_forest_parallel(mpr::Communicator& comm,
                                        const bio::EstSet& ests,
                                        const GstConfig& cfg,
                                        ParallelBuildStats* stats = nullptr,
                                        int first_owner_rank = 0);

/// Recomputes — offline, with no communication — the share of the
/// distributed GST that `target_rank` owns under build_forest_parallel
/// with the same `ests`, `cfg`, `p` and `first_owner_rank`. Both use the
/// same ownership rule and the same refinement loop (refine_buckets), and
/// every step is deterministic, so the returned forest is identical to the
/// one the rank built — and so is the promising-pair stream generated from
/// it. The
/// pace master uses this to regenerate a dead slave's pairs (DESIGN.md
/// §8). `counters` receives the refinement work for clock charging.
std::vector<Tree> rebuild_rank_forest(const bio::EstSet& ests,
                                      const GstConfig& cfg, int p,
                                      int first_owner_rank, int target_rank,
                                      BuildCounters* counters = nullptr);

/// The bucket ids `target_rank` owns under build_forest_parallel with the
/// same `ests`, `cfg`, `p` and `first_owner_rank` — the first half of
/// rebuild_rank_forest without refining any trees, sorted ascending.
/// The kmer pair source needs only ownership, not trees, so the
/// sequential and master/slave drivers build its share, live or
/// regenerated, from these ids alone.
/// `suffixes_scanned` (optional) receives the bucketing-scan work for
/// clock charging.
std::vector<std::uint64_t> owned_bucket_ids(
    const bio::EstSet& ests, const GstConfig& cfg, int p,
    int first_owner_rank, int target_rank,
    std::uint64_t* suffixes_scanned = nullptr);

}  // namespace estclust::gst
