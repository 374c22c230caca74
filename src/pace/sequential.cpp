#include "pace/sequential.hpp"

#include <algorithm>
#include <tuple>

#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "mpr/communicator.hpp"
#include "obs/trace.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"

namespace estclust::pace {

void PaceConfig::validate() const {
  ESTCLUST_CHECK_MSG(psi >= gst.window,
                     "psi must be >= the GST window w");
  ESTCLUST_CHECK(batchsize > 0);
  ESTCLUST_CHECK(workbuf_capacity >= batchsize);
  ESTCLUST_CHECK(pairbuf_capacity >= batchsize);
  ESTCLUST_CHECK(batch_growth_limit >= 1);
  if (memo) ESTCLUST_CHECK(memo_capacity >= 1);
}

SequentialResult cluster_sequential(const bio::EstSet& ests,
                                    const PaceConfig& cfg,
                                    SequentialOptions options,
                                    mpr::Communicator* comm) {
  cfg.validate();
  SequentialResult res{cluster::UnionFind(ests.num_ests()), {}, {}};
  PaceStats& st = res.stats;
  const auto now = [comm] { return comm ? comm->clock().time() : 0.0; };
  obs::RankTracer* tracer = comm ? comm->tracer() : nullptr;

  // Only the GST walk reads a forest; kmer gets its bucket ids instead.
  const bool gst_walk = cfg.pair_source == pairgen::Backend::kGst;
  std::vector<gst::Tree> forest;
  if (gst_walk && comm) {
    gst::ParallelBuildStats build_stats;
    forest = gst::build_forest_parallel(*comm, ests, cfg.gst, &build_stats);
    st.t_partition = build_stats.partition_vtime;
    st.t_gst = build_stats.build_vtime;
  } else if (gst_walk) {
    forest = gst::build_forest_sequential(ests, cfg.gst.window);
  }

  double t = now();
  if (tracer) tracer->begin("node_sorting", "phase");
  auto gen = gst_walk ? pairgen::make_pair_source(cfg.pair_source, ests,
                                                  forest, cfg.gst.window,
                                                  cfg.psi)
                      : make_bucket_source(ests, cfg, 1, 0, 0, comm);
  if (comm) {
    comm->charge(comm->cost_model().sort_op, gen->construction_sort_units());
  }
  st.t_sort = now() - t;
  if (tracer) tracer->end("node_sorting");

  t = now();
  if (tracer) tracer->begin("alignment", "phase");
  PairAligner aligner(ests, cfg);
  ClusterLoop loop{.aligner = aligner, .clusters = res.clusters, .stats = st,
                   .overlaps = &res.overlaps, .comm = comm,
                   .cluster_skip = options.cluster_skip};
  if (!options.arbitrary_order) {
    // On-demand path: pairs arrive in decreasing maximal-common-substring
    // length, so early merges suppress later redundant alignments.
    loop.drain(*gen, cfg.batchsize);
  } else {
    // Ablation: materialize every promising pair first (the memory-hungry
    // strategy of prior tools), then process in an order uncorrelated with
    // match length.
    std::vector<pairgen::PromisingPair> all;
    while (gen->next_batch(1 << 20, all) > 0) continue;
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      return std::tie(x.a, x.b, x.a_pos, x.b_pos) <
             std::tie(y.a, y.b, y.a_pos, y.b_pos);
    });
    loop.run(all, gen->take_work_units());
  }
  st.t_align = now() - t;
  if (tracer) tracer->end("alignment");

  st.pairs_generated = gen->stats().pairs_emitted;
  st.num_clusters = res.clusters.num_clusters();
  st.t_total = now();
  if (comm) publish_aligner_metrics(*comm, aligner, st.pairs_processed);
  return res;
}

}  // namespace estclust::pace
