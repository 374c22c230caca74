// Configuration of the clustering pipeline.
#pragma once

#include <cstdint>

#include "align/anchored.hpp"
#include "gst/parallel.hpp"
#include "pairgen/source.hpp"

namespace estclust::pace {

struct PaceConfig {
  gst::GstConfig gst;  ///< bucket window w (paper: 8)

  /// Promising-pair threshold psi: minimum maximal-common-substring length.
  /// Must be >= gst.window (shorter suffixes are never inserted).
  std::uint32_t psi = 20;

  /// Candidate-filter backend behind the PairSource seam (DESIGN.md §11).
  /// Every backend emits the same rank-local candidate slice; only index
  /// construction (and therefore the modeled run-time) differs.
  pairgen::Backend pair_source = pairgen::Backend::kGst;

  align::OverlapParams overlap;  ///< banded alignment + acceptance knobs

  /// Pairs the master grants a slave per interaction, and the unit of its
  /// pair requests (paper: 40-60 optimal). The sequential drivers process
  /// the pair stream in batches of this size.
  std::size_t batchsize = 60;

  /// Lets the DP kernel stop as soon as rejection is certain (kernel.hpp).
  /// Verdict-exact: clusters are identical with it on or off; only the DP
  /// cells charged for rejected pairs differ.
  bool bounded_align = true;

  /// Capacity of the master's WORKBUF in pairs. cluster_parallel raises it
  /// to at least 4 * p * batchsize.
  std::size_t workbuf_capacity = 1 << 14;

  /// Target fill of a slave's PAIRBUF (pairs generated ahead while the
  /// slave would otherwise wait for the master). cluster_parallel raises
  /// it to at least batchsize.
  std::size_t pairbuf_capacity = 2048;

  void validate() const;
};

/// Counters and phase timings shared by cluster_sequential and
/// cluster_parallel. Times are modeled virtual seconds (max over ranks),
/// and stay 0 for a sequential run without a communicator: callers that
/// want wall time time the call themselves.
struct PaceStats {
  std::uint64_t pairs_generated = 0;  ///< emitted by pair generators
  std::uint64_t pairs_processed = 0;  ///< actually aligned
  std::uint64_t pairs_accepted = 0;   ///< alignments passing the criteria
  std::uint64_t pairs_skipped = 0;    ///< dropped: ESTs already co-clustered
  std::uint64_t merges = 0;           ///< successful cluster unions
  std::uint64_t dp_cells = 0;         ///< DP cells computed in alignments
  std::size_t num_clusters = 0;

  double t_partition = 0.0;  ///< suffix bucketing + histogram + routing
  double t_gst = 0.0;        ///< bucket-tree construction
  double t_sort = 0.0;       ///< node sorting by string-depth
  double t_align = 0.0;      ///< clustering loop (alignment-dominated)
  double t_total = 0.0;

  /// Fraction of total time the master spent busy (§4.2: < 2% even at 128
  /// processors). Zero for the sequential driver.
  double master_busy_fraction = 0.0;
};

}  // namespace estclust::pace
