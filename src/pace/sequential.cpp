#include "pace/sequential.hpp"

#include <algorithm>
#include <tuple>

#include "gst/builder.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

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
                                    SequentialOptions options) {
  cfg.validate();
  SequentialResult res{cluster::UnionFind(ests.num_ests()), {}, {}};
  PaceStats& st = res.stats;
  WallTimer total;

  WallTimer phase;
  auto forest = gst::build_forest_sequential(ests, cfg.gst.window);
  st.t_gst = phase.seconds();

  phase.reset();
  auto gen = pairgen::make_pair_source(cfg.pair_source, ests, forest,
                                       cfg.gst.window, cfg.psi);
  st.t_sort = phase.seconds();

  phase.reset();
  PairAligner aligner(ests, cfg);
  ClusterLoop loop{.aligner = aligner, .clusters = res.clusters, .stats = st,
                   .overlaps = &res.overlaps,
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
    loop.run(all);
  }
  st.t_align = phase.seconds();

  st.pairs_generated = gen->stats().pairs_emitted;
  st.num_clusters = res.clusters.num_clusters();
  st.t_total = total.seconds();
  return res;
}

}  // namespace estclust::pace
