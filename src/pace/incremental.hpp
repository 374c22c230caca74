// Incremental EST clustering — the open problem posed in the paper's §5:
// "Is there a way to incrementally adjust the EST clusters when a new
// batch of ESTs is sequenced, instead of the current method of clustering
// all the ESTs from scratch?"
//
// The bucketed GST makes this natural. The clusterer keeps every suffix
// grouped by its w-character bucket. When a batch arrives, only the
// buckets that receive new suffixes ("dirty" buckets) are re-refined into
// subtrees (kmer takes the dirty bucket ids and refines nothing), and
// pair generation over them is filtered to pairs that involve at least
// one new EST — any old-old pair was already considered when its later
// member arrived. The rest go through the batch drivers' loop (loop.hpp)
// into the persistent union-find, so `cfg.pair_source`, `memo` and
// `bounded_align` apply here too.
//
// Guarantee (tested): after any sequence of batches the clustering equals
// the from-scratch clustering of the union, because for every promising
// pair the bucket holding its maximal common substring is dirty in the
// batch where the pair's later EST arrives.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bio/dataset.hpp"
#include "cluster/union_find.hpp"
#include "gst/tree.hpp"
#include "pace/config.hpp"

namespace estclust::pace {

/// Per-batch counters.
struct BatchStats {
  std::size_t new_ests = 0;
  std::size_t dirty_buckets = 0;    ///< subtrees rebuilt
  std::size_t total_buckets = 0;    ///< buckets stored overall
  std::uint64_t pairs_generated = 0;  ///< pairs seen in dirty subtrees
  std::uint64_t pairs_filtered = 0;   ///< dropped: both ESTs are old
  std::uint64_t pairs_processed = 0;  ///< aligned
  std::uint64_t pairs_accepted = 0;
  std::uint64_t merges = 0;
  double seconds = 0.0;
};

class IncrementalClusterer {
 public:
  explicit IncrementalClusterer(const PaceConfig& cfg);

  /// Incorporates a batch of newly sequenced ESTs and updates the
  /// clustering. EST ids continue from the previous batches.
  BatchStats add_batch(std::vector<bio::Sequence> batch);

  const bio::EstSet& ests() const { return ests_; }
  std::size_t num_ests() const { return ests_.num_ests(); }
  std::size_t num_clusters() const { return clusters_.num_clusters(); }

  /// Canonical label per EST (same convention as the batch drivers).
  std::vector<std::uint32_t> labels() { return clusters_.labels(); }

  cluster::UnionFind& clusters() { return clusters_; }

 private:
  PaceConfig cfg_;
  std::vector<bio::Sequence> all_sequences_;
  bio::EstSet ests_;
  cluster::UnionFind clusters_;
  /// All suffixes of all strings seen so far, grouped by bucket.
  std::map<std::uint64_t, std::vector<gst::SuffixOcc>> buckets_;
};

}  // namespace estclust::pace
