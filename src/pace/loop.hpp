// The clustering loop of §3.2–3.3, shared by the sequential, single-rank
// and incremental drivers: for each promising pair, skip it if its ESTs
// already share a cluster, else align it and, on acceptance, merge the
// clusters and record the overlap. The master/slave protocol splits the
// same steps across ranks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/union_find.hpp"
#include "pace/aligner.hpp"
#include "pace/config.hpp"
#include "pairgen/source.hpp"

namespace estclust::mpr {
class Communicator;
}

namespace estclust::pace {

/// An overlap that passed the §3.3 acceptance criteria: the evidence used
/// to merge the pair's clusters, with coordinates for downstream layout
/// and consensus (assembly).
struct AcceptedOverlap {
  bio::EstId a = 0;
  bio::EstId b = 0;
  bool b_rc = false;
  align::OverlapKind kind = align::OverlapKind::kNone;
  std::uint32_t a_begin = 0, a_end = 0;  ///< span in forward(e_a)
  std::uint32_t b_begin = 0, b_end = 0;  ///< span in oriented(e_b)
  double quality = 0.0;
  bool operator==(const AcceptedOverlap&) const = default;
};

/// One driver's clustering state and the clock it runs on.
struct ClusterLoop {
  PairAligner& aligner;
  cluster::UnionFind& clusters;
  PaceStats& stats;  ///< pair counters, merges and dp_cells advance here
  std::vector<AcceptedOverlap>* overlaps = nullptr;  ///< null: not kept
  mpr::Communicator* comm = nullptr;  ///< clock to charge; null: wall clock
  bool cluster_skip = true;  ///< false: the SequentialOptions ablation

  /// Processes one batch, charging `pair_units` (the source work behind
  /// it) to pair_op, then dp_cell per aligned pair, then the batch's
  /// union-find operations to uf_op.
  void run(const std::vector<pairgen::PromisingPair>& batch,
           std::uint64_t pair_units = 0);

  /// Runs every batch of at most `batchsize` pairs that `source` yields.
  void drain(pairgen::PairSource& source, std::size_t batchsize);
};

/// The kmer source over the buckets `rank` owns when ranks
/// [first_owner_rank, p) share them. No forest is built: the ownership is
/// replayed offline (gst::owned_bucket_ids), and that scan is charged to
/// char_op on `comm`'s clock (null: unmetered). The sequential driver,
/// every live slave and the master's regeneration of a dead slave build
/// their kmer sources here, so a regenerated stream is the slave's own.
std::unique_ptr<pairgen::PairSource> make_bucket_source(
    const bio::EstSet& ests, const PaceConfig& cfg, int p,
    int first_owner_rank, int rank, mpr::Communicator* comm);

/// Publishes one rank's aligner observability (`pairs_aligned` under
/// kernel.variant.<active variant>, the align.arena_bytes gauge, a
/// kernel.variant trace instant). Charges nothing: every modeled quantity
/// is variant-invariant.
void publish_aligner_metrics(mpr::Communicator& comm,
                             const PairAligner& aligner,
                             std::uint64_t pairs_aligned);

}  // namespace estclust::pace
