#include "gst/parallel.hpp"

#include "gst/wire.hpp"
#include "mpr/clock.hpp"
#include "mpr/message.hpp"
#include "util/check.hpp"

namespace estclust::gst {

namespace {

std::vector<std::uint64_t> bucket_histogram(
    const std::vector<BucketedSuffix>& suffixes, std::uint32_t window) {
  std::vector<std::uint64_t> hist(num_buckets(window), 0);
  for (const auto& bs : suffixes) ++hist[bs.bucket];
  return hist;
}

/// The §3.1 ownership rule: the owner rank of every bucket (-1 for empty
/// buckets) when ranks [first_owner_rank, p) share the buckets of the
/// global histogram `hist`.
std::vector<int> bucket_owners(const std::vector<std::uint64_t>& hist, int p,
                               int first_owner_rank) {
  std::vector<int> owner = assign_buckets(hist, p - first_owner_rank);
  for (int& r : owner) {
    if (r >= 0) r += first_owner_rank;
  }
  return owner;
}

/// Every suffix of every EST, and the owner of every bucket.
struct OfflineShare {
  std::vector<BucketedSuffix> suffixes;
  std::vector<int> owner;
};

/// Replays phases 1-3 of build_forest_parallel without communication. The
/// per-rank collections block-partition the EST ids, so their union is one
/// scan of all ESTs and the global histogram needs no reduction.
/// `target_rank` is only validated here, for both public callers.
OfflineShare replay_ownership(const bio::EstSet& ests, const GstConfig& cfg,
                              int p, int first_owner_rank, int target_rank) {
  ESTCLUST_CHECK(first_owner_rank >= 0 && first_owner_rank < p);
  ESTCLUST_CHECK(target_rank >= first_owner_rank && target_rank < p);
  OfflineShare share;
  collect_suffixes(ests, bio::EstSet::forward_sid(0),
                   bio::EstSet::forward_sid(ests.num_ests()), cfg.window,
                   share.suffixes);
  share.owner = bucket_owners(bucket_histogram(share.suffixes, cfg.window), p,
                              first_owner_rank);
  return share;
}

}  // namespace

std::vector<Tree> build_forest_parallel(mpr::Communicator& comm,
                                        const bio::EstSet& ests,
                                        const GstConfig& cfg,
                                        ParallelBuildStats* stats,
                                        int first_owner_rank) {
  const int p = comm.size();
  ESTCLUST_CHECK(first_owner_rank >= 0 && first_owner_rank < p);
  const int rank = comm.rank();
  const auto& cm = comm.cost_model();
  obs::RankTracer* tracer = comm.tracer();
  const double t0 = comm.clock().time();
  if (tracer) tracer->begin("partitioning", "phase");

  // Phase 1: bucket my block's suffixes. Both orientations of an EST live
  // with the EST's owner.
  auto ranges = partition_ests(ests, p);
  std::vector<BucketedSuffix> mine;
  collect_suffixes(ests, bio::EstSet::forward_sid(ranges[rank].first),
                   bio::EstSet::forward_sid(ranges[rank].second),
                   cfg.window, mine);
  // Rolling-window bucketing is ~1 char step per suffix plus w per string.
  comm.charge(cm.char_op,
              mine.size() + cfg.window * 2 *
                                (ranges[rank].second - ranges[rank].first));

  // Phase 2: global bucket histogram via parallel summation (O(log p)).
  std::vector<std::uint64_t> hist = bucket_histogram(mine, cfg.window);
  comm.charge(cm.char_op, mine.size());
  {
    mpr::CheckOpScope check_scope(comm, "gst.bucket_histogram");
    hist = comm.allreduce_sum_vec(std::move(hist));
  }

  // Phase 3: deterministic greedy bucket -> rank assignment, computed
  // identically on every rank from the shared histogram.
  const std::vector<int> owner = bucket_owners(hist, p, first_owner_rank);
  std::size_t nonempty = 0;
  std::uint64_t global_suffixes = 0;
  for (std::uint64_t n : hist) {
    nonempty += (n > 0);
    global_suffixes += n;
  }
  comm.charge(cm.sort_op, mpr::sort_model_units(nonempty));

  // Phase 4: route suffixes to their bucket owners.
  std::vector<mpr::BufWriter> packs(p);
  for (const auto& bs : mine) {
    encode_routed_suffix(packs[owner[bs.bucket]], bs);
  }
  comm.charge(cm.byte_op, mine.size() * kRoutedSuffixBytes);
  mine.clear();
  mine.shrink_to_fit();
  std::vector<mpr::Buffer> sendbufs(p);
  for (int r = 0; r < p; ++r) sendbufs[r] = packs[r].take();
  packs.clear();
  std::vector<mpr::Buffer> recvbufs;
  {
    mpr::CheckOpScope check_scope(comm, "gst.suffix_route");
    recvbufs = comm.all_to_all(std::move(sendbufs));
  }

  std::vector<BucketedSuffix> owned;
  for (const auto& buf : recvbufs) {
    mpr::BufReader r(buf);
    while (!r.exhausted()) {
      owned.push_back(decode_routed_suffix(r));
    }
  }
  recvbufs.clear();
  // Grouping the received suffixes by bucket is partitioning work.
  // refine_buckets does it with a linear counting sort, but the clock
  // keeps charging the comparison-sort model for it, as the node order's
  // construction_sort_units does.
  comm.charge(cm.sort_op, mpr::sort_model_units(owned.size()));
  const double t1 = comm.clock().time();
  if (tracer) {
    tracer->end("partitioning");
    tracer->begin("gst_build", "phase");
  }

  // Phase 5: refine owned buckets into subtrees.
  BuildCounters counters;
  std::vector<Tree> forest =
      refine_buckets(ests, std::move(owned), cfg.window, counters);
  comm.charge(cm.char_op, counters.chars_scanned);
  const double t2 = comm.clock().time();
  if (tracer) tracer->end("gst_build");

  auto& metrics = comm.metrics();
  metrics.counter("gst.suffixes_owned").add(counters.suffixes);
  metrics.counter("gst.buckets_owned").add(forest.size());
  metrics.counter("gst.chars_scanned").add(counters.chars_scanned);
  metrics.gauge("gst.t_partition", obs::MergeOp::kMax).set(t1 - t0);
  metrics.gauge("gst.t_build", obs::MergeOp::kMax).set(t2 - t1);

  if (stats) {
    stats->partition_vtime = t1 - t0;
    stats->build_vtime = t2 - t1;
    stats->local_suffixes = counters.suffixes;
    stats->local_buckets = forest.size();
    stats->chars_scanned = counters.chars_scanned;
    stats->global_suffixes = global_suffixes;
  }
  return forest;
}

std::vector<Tree> rebuild_rank_forest(const bio::EstSet& ests,
                                      const GstConfig& cfg, int p,
                                      int first_owner_rank, int target_rank,
                                      BuildCounters* counters) {
  OfflineShare share =
      replay_ownership(ests, cfg, p, first_owner_rank, target_rank);
  std::erase_if(share.suffixes, [&](const BucketedSuffix& bs) {
    return share.owner[bs.bucket] != target_rank;
  });
  share.suffixes.shrink_to_fit();
  BuildCounters local;
  return refine_buckets(ests, std::move(share.suffixes), cfg.window,
                        counters ? *counters : local);
}

std::vector<std::uint64_t> owned_bucket_ids(const bio::EstSet& ests,
                                            const GstConfig& cfg, int p,
                                            int first_owner_rank,
                                            int target_rank,
                                            std::uint64_t* suffixes_scanned) {
  const OfflineShare share =
      replay_ownership(ests, cfg, p, first_owner_rank, target_rank);
  if (suffixes_scanned) *suffixes_scanned = share.suffixes.size();
  std::vector<std::uint64_t> mine;
  for (std::uint64_t b = 0; b < share.owner.size(); ++b) {
    if (share.owner[b] == target_rank) mine.push_back(b);
  }
  return mine;
}

}  // namespace estclust::gst
