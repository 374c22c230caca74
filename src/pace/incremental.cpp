#include "pace/incremental.hpp"

#include <algorithm>
#include <memory>

#include "gst/builder.hpp"
#include "pace/loop.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace estclust::pace {

IncrementalClusterer::IncrementalClusterer(const PaceConfig& cfg)
    : cfg_(cfg), clusters_(0) {
  cfg_.validate();
}

BatchStats IncrementalClusterer::add_batch(std::vector<bio::Sequence> batch) {
  WallTimer timer;
  BatchStats st;
  st.new_ests = batch.size();
  if (batch.empty()) return st;

  const std::size_t old_n = ests_.num_ests();
  for (auto& seq : batch) all_sequences_.push_back(std::move(seq));
  // Rebuilding the EstSet re-materializes all reverse complements: O(total
  // characters) per batch, which is dwarfed by the dirty-bucket tree
  // rebuilds it accompanies.
  ests_ = bio::EstSet(all_sequences_);
  clusters_.grow(ests_.num_ests());

  // Bucket the new strings' suffixes and merge them into the persistent
  // per-bucket suffix lists, remembering which buckets went dirty.
  std::vector<gst::BucketedSuffix> fresh;
  gst::collect_suffixes(ests_, bio::EstSet::forward_sid(
                                   static_cast<bio::EstId>(old_n)),
                        static_cast<bio::StringId>(ests_.num_strings()),
                        cfg_.gst.window, fresh);
  std::vector<std::uint64_t> dirty;
  dirty.reserve(fresh.size());
  for (const auto& bs : fresh) {
    buckets_[bs.bucket].push_back(bs.occ);
    dirty.push_back(bs.bucket);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  st.dirty_buckets = dirty.size();
  st.total_buckets = buckets_.size();

  // Pair up the dirty buckets: the GST walk over their re-refined trees,
  // kmer over the bucket ids alone. Only pairs touching a new EST are
  // fresh work: an old-old pair was considered when its later EST arrived.
  std::vector<gst::Tree> forest;
  std::unique_ptr<pairgen::PairSource> source;
  if (cfg_.pair_source == pairgen::Backend::kGst) {
    gst::BuildCounters counters;
    forest.reserve(dirty.size());
    for (std::uint64_t b : dirty) {
      forest.push_back(gst::build_bucket_tree(ests_, buckets_[b],
                                              cfg_.gst.window, b, counters));
    }
    source = pairgen::make_pair_source(cfg_.pair_source, ests_, forest,
                                       cfg_.gst.window, cfg_.psi);
  } else {
    source = pairgen::make_pair_source_for_buckets(
        cfg_.pair_source, ests_, std::move(dirty), cfg_.gst.window, cfg_.psi);
  }
  PairAligner aligner(ests_, cfg_);
  PaceStats loop_stats;
  ClusterLoop loop{
      .aligner = aligner, .clusters = clusters_, .stats = loop_stats};
  std::vector<pairgen::PromisingPair> pairs;
  while (source->next_batch(cfg_.batchsize, pairs) > 0) {
    st.pairs_filtered += std::erase_if(pairs, [&](const auto& p) {
      return p.a < old_n && p.b < old_n;
    });
    loop.run(pairs);
    pairs.clear();
  }

  st.pairs_generated = source->stats().pairs_emitted;
  st.pairs_processed = loop_stats.pairs_processed;
  st.pairs_accepted = loop_stats.pairs_accepted;
  st.merges = loop_stats.merges;
  st.seconds = timer.seconds();
  return st;
}

}  // namespace estclust::pace
