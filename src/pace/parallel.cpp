#include "pace/parallel.hpp"

#include <algorithm>

#include "gst/parallel.hpp"
#include "mpr/runtime.hpp"
#include "pace/master.hpp"
#include "pace/slave.hpp"

namespace estclust::pace {

namespace {

/// Publishes the aggregated per-phase times (Table 3's columns) onto the
/// registry. Gauges are max-merged, so per-rank raw values (set by the
/// slaves) and the allreduced aggregates (set here) fold to one number.
void publish_phase_gauges(mpr::Communicator& comm, const PaceStats& st) {
  auto& m = comm.metrics();
  m.gauge("pace.t_partition", obs::MergeOp::kMax).set(st.t_partition);
  m.gauge("pace.t_gst", obs::MergeOp::kMax).set(st.t_gst);
  m.gauge("pace.t_sort", obs::MergeOp::kMax).set(st.t_sort);
  m.gauge("pace.t_align", obs::MergeOp::kMax).set(st.t_align);
  m.gauge("pace.t_total", obs::MergeOp::kMax).set(st.t_total);
  m.gauge("pace.master_busy_fraction", obs::MergeOp::kMax)
      .set(st.master_busy_fraction);
  m.gauge("pace.num_clusters", obs::MergeOp::kMax)
      .set(static_cast<double>(st.num_clusters));
}

/// Wire codec for the final label broadcast. One vector field, but a
/// named encode/decode pair keeps the payload inside the codec and
/// bounds analyzer rules (field symmetry, exhaustion on receipt).
mpr::Buffer encode_labels(const std::vector<std::uint32_t>& labels) {
  mpr::BufWriter w;
  w.put_vec(labels);
  return w.take();
}

std::vector<std::uint32_t> decode_labels(const mpr::Buffer& b) {
  mpr::BufReader r(b);
  std::vector<std::uint32_t> labels = r.get_vec<std::uint32_t>();
  r.expect_exhausted("labels");
  return labels;
}

}  // namespace

ParallelResult cluster_parallel(mpr::Communicator& comm,
                                const bio::EstSet& ests,
                                const PaceConfig& cfg) {
  cfg.validate();
  if (comm.size() == 1) {
    // p = 1: the single-processor pipeline on this rank's clock, so the
    // first point of the scaling curves is measured like the others.
    SequentialResult seq = cluster_sequential(ests, cfg, {}, &comm);
    const PaceStats& st = seq.stats;
    auto& metrics = comm.metrics();
    metrics.counter("pace.pairs_generated").add(st.pairs_generated);
    metrics.counter("pace.pairs_aligned").add(st.pairs_processed);
    metrics.counter("pace.pairs_accepted").add(st.pairs_accepted);
    metrics.counter("pace.pairs_skipped").add(st.pairs_skipped);
    metrics.counter("pace.merges").add(st.merges);
    metrics.counter("pace.dp_cells").add(st.dp_cells);
    publish_phase_gauges(comm, st);
    return {seq.clusters.labels(), st, std::move(seq.overlaps)};
  }

  // Keep the soft WORKBUF cap comfortably above the slaves' unsolicited
  // initial batches so flow control starts in steady state, and let a
  // slave's PAIRBUF hold at least one grant.
  PaceConfig effective = cfg;
  effective.workbuf_capacity =
      std::max(cfg.workbuf_capacity,
               4 * static_cast<std::size_t>(comm.size()) * cfg.batchsize);
  effective.pairbuf_capacity = std::max(cfg.pairbuf_capacity, cfg.batchsize);

  ParallelResult res;
  PaceStats& st = res.stats;

  // Phase 1+2: distributed GST, buckets owned by slaves only. Only the
  // GST walk reads a forest; each kmer slave derives its buckets itself.
  std::vector<gst::Tree> forest;
  if (effective.pair_source == pairgen::Backend::kGst) {
    gst::ParallelBuildStats build_stats;
    forest = gst::build_forest_parallel(comm, ests, effective.gst,
                                        &build_stats,
                                        /*first_owner_rank=*/1);
    st.t_partition = comm.allreduce_max(build_stats.partition_vtime);
    st.t_gst = comm.allreduce_max(build_stats.build_vtime);
  }

  // Phase 3+4: master/slave clustering loop.
  std::vector<std::uint32_t> labels;
  SlaveCounters slave_counters;
  MasterCounters master_counters;
  double master_busy = 0.0;
  if (comm.rank() == 0) {
    // Active = busy + comm: the master's work is mostly protocol handling,
    // so its message overheads belong in the utilization numerator.
    const double busy_before = comm.clock().active_time();
    Master master(comm, ests, effective);
    master.run();
    master_busy = comm.clock().active_time() - busy_before;
    master_counters = master.counters();
    labels = master.clusters().labels();
    st.num_clusters = master.clusters().num_clusters();
    res.overlaps = std::move(master.overlaps());
  } else {
    Slave slave(comm, ests, effective, forest);
    slave_counters = slave.run();
  }

  // Aggregate counters and phase times.
  st.pairs_generated = comm.allreduce_sum(slave_counters.pairs_generated);
  st.pairs_processed = comm.allreduce_sum(slave_counters.pairs_aligned);
  st.dp_cells = comm.allreduce_sum(slave_counters.dp_cells);
  st.pairs_accepted = comm.allreduce_sum(master_counters.pairs_accepted);
  st.pairs_skipped = comm.allreduce_sum(master_counters.pairs_skipped);
  st.merges = comm.allreduce_sum(master_counters.merges);
  st.num_clusters = static_cast<std::size_t>(
      comm.allreduce_max(static_cast<std::uint64_t>(st.num_clusters)));
  st.t_sort = comm.allreduce_max(slave_counters.sort_vtime);
  st.t_align = comm.allreduce_max(slave_counters.loop_vtime);
  st.t_total = comm.allreduce_max(comm.clock().time());
  st.master_busy_fraction =
      comm.allreduce_max(master_busy) / std::max(st.t_total, 1e-12);
  if (comm.rank() == 0) publish_phase_gauges(comm, st);

  // Share the clustering with every rank.
  res.labels = decode_labels(comm.broadcast(encode_labels(labels)));
  return res;
}

ParallelResult cluster_parallel(mpr::Runtime& rt, const bio::EstSet& ests,
                                const PaceConfig& cfg) {
  ParallelResult master_view;
  rt.run([&](mpr::Communicator& comm) {
    ParallelResult res = cluster_parallel(comm, ests, cfg);
    // The only writer; run() joins every rank before returning.
    if (comm.rank() == 0) master_view = std::move(res);
  });
  return master_view;
}

}  // namespace estclust::pace
