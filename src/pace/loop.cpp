#include "pace/loop.hpp"

#include <string>

#include "align/dispatch.hpp"
#include "gst/parallel.hpp"
#include "mpr/communicator.hpp"
#include "obs/trace.hpp"

namespace estclust::pace {

void ClusterLoop::run(const std::vector<pairgen::PromisingPair>& batch,
                      std::uint64_t pair_units) {
  if (comm) comm->charge(comm->cost_model().pair_op, pair_units);
  const std::uint64_t uf_before = clusters.operations();
  for (const auto& p : batch) {
    if (cluster_skip && clusters.same(p.a, p.b)) {
      ++stats.pairs_skipped;
      continue;
    }
    PairEvaluation ev = aligner.evaluate(p);
    // Memo hits report 0 cells: no DP ran, so nothing is charged.
    if (comm) comm->charge(comm->cost_model().dp_cell, ev.overlap.cells);
    ++stats.pairs_processed;
    stats.dp_cells += ev.overlap.cells;
    if (!ev.accepted) continue;
    ++stats.pairs_accepted;
    if (clusters.unite(p.a, p.b)) ++stats.merges;
    if (overlaps) {
      overlaps->push_back({p.a, p.b, p.b_rc, ev.overlap.kind,
                           static_cast<std::uint32_t>(ev.overlap.a_begin),
                           static_cast<std::uint32_t>(ev.overlap.a_end),
                           static_cast<std::uint32_t>(ev.overlap.b_begin),
                           static_cast<std::uint32_t>(ev.overlap.b_end),
                           ev.overlap.quality});
    }
  }
  if (comm) {
    comm->charge(comm->cost_model().uf_op,
                 clusters.operations() - uf_before);
  }
}

void ClusterLoop::drain(pairgen::PairSource& source, std::size_t batchsize) {
  std::vector<pairgen::PromisingPair> batch;
  while (source.next_batch(batchsize, batch) > 0) {
    run(batch, source.take_work_units());
    batch.clear();
  }
}

std::unique_ptr<pairgen::PairSource> make_bucket_source(
    const bio::EstSet& ests, const PaceConfig& cfg, int p,
    int first_owner_rank, int rank, mpr::Communicator* comm) {
  std::uint64_t scanned = 0;
  auto owned = gst::owned_bucket_ids(ests, cfg.gst, p, first_owner_rank,
                                     rank, &scanned);
  if (comm) comm->charge(comm->cost_model().char_op, scanned);
  return pairgen::make_pair_source_for_buckets(
      cfg.pair_source, ests, std::move(owned), cfg.gst.window, cfg.psi);
}

void publish_aligner_metrics(mpr::Communicator& comm,
                             const PairAligner& aligner,
                             std::uint64_t pairs_aligned) {
  auto& metrics = comm.metrics();
  const MemoStats& memo = aligner.memo_stats();
  metrics.counter("pace.memo_lookups").add(memo.lookups);
  metrics.counter("pace.memo_hits").add(memo.hits);
  metrics.counter("pace.memo_insertions").add(memo.insertions);
  metrics.counter("pace.memo_evictions").add(memo.evictions);
  const align::KernelVariant kv = align::active_kernel();
  metrics.counter(std::string("kernel.variant.") + align::to_string(kv))
      .add(pairs_aligned);
  metrics.gauge("align.arena_bytes", obs::MergeOp::kMax)
      .set(static_cast<double>(aligner.arena().high_water_bytes()));
  if (obs::RankTracer* tracer = comm.tracer()) {
    tracer->instant("kernel.variant", "align",
                    static_cast<std::uint64_t>(kv));
  }
}

}  // namespace estclust::pace
