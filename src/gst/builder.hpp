// GST construction by bucketing + character-wise refinement (§3.1).
//
// A sequential suffix-tree algorithm cannot build a bucket's subtree because
// the bucket does not contain all suffixes of any one string; the paper
// instead scans the suffixes of a bucket one character at a time, splitting
// recursively until every suffix group is a leaf. Run-time is O(sum of
// pairwise-distinguishing prefixes), O(N·l / p) per rank in the worst case,
// which works well because the average EST length l is a constant.
//
// The host does the same refinement a word at a time. While a group shares
// its next characters, it compares 32 bases per step over EstSet's 2-bit
// copy (XOR against the group's first suffix, count trailing zeros); one
// character pass at the branch depth then sorts the group into $, A, C, G
// and T. Each split is a stable counting partition of the group's subrange
// of the bucket's (sid, pos)-sorted array, which ends as the tree's
// leaf-contiguous occurrence array; every node records the subrange it
// refined as its occurrence range. BuildCounters::chars_scanned still
// counts the group size for every depth passed, as one character pass per
// depth would: the virtual clock charges the paper's algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"

namespace estclust::gst {

/// Work counters reported by the builder; the parallel wrapper converts
/// them into virtual time.
struct BuildCounters {
  std::uint64_t suffixes = 0;       ///< suffixes inserted
  std::uint64_t chars_scanned = 0;  ///< character-bucketing steps performed
  std::uint64_t nodes = 0;          ///< nodes emitted
};

/// A suffix tagged with its destination bucket.
struct BucketedSuffix {
  std::uint64_t bucket = 0;
  SuffixOcc occ;
};

/// Bucket id of the length-w prefix starting at `pos` (lexicographic,
/// base 4). Requires pos + w <= |s|.
std::uint64_t bucket_of(std::string_view s, std::size_t pos, std::uint32_t w);

/// Number of buckets for window w (4^w). Checked to fit comfortably in
/// memory: w <= 11.
std::uint64_t num_buckets(std::uint32_t w);

/// Enumerates all suffixes of strings [sid_begin, sid_end) that are at
/// least w long, tagged with their bucket. Shorter suffixes are dropped:
/// they cannot begin a maximal common substring of length >= psi >= w.
void collect_suffixes(const bio::EstSet& ests, bio::StringId sid_begin,
                      bio::StringId sid_end, std::uint32_t w,
                      std::vector<BucketedSuffix>& out);

/// Builds the subtree for one bucket. `suffixes` must all share the same
/// length-w prefix; input not already in (sid, pos) order is sorted into
/// it here, so the resulting tree is independent of input order. This is
/// the only within-bucket ordering rule of the build.
Tree build_bucket_tree(const bio::EstSet& ests,
                       std::vector<SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters);

/// Refines a set of bucketed suffixes into one subtree per bucket present,
/// ordered by bucket id. The input may arrive in any order: a stable
/// counting sort on the bucket id deals it into one exact-size occurrence
/// vector per non-empty bucket, and build_bucket_tree fixes the order
/// within a bucket. The input is released before any tree is refined.
/// Every forest builder — sequential, parallel and the offline rebuild of
/// one rank's share — goes through this loop and hands it suffixes in
/// (sid, pos) order, so no bucket needs sorting.
std::vector<Tree> refine_buckets(const bio::EstSet& ests,
                                 std::vector<BucketedSuffix> suffixes,
                                 std::uint32_t w, BuildCounters& counters);

/// Builds the whole forest on one processor (the p = 1 reference path).
/// Trees are ordered by bucket id.
std::vector<Tree> build_forest_sequential(const bio::EstSet& ests,
                                          std::uint32_t w,
                                          BuildCounters* counters = nullptr);

/// Splits ESTs into p contiguous ranges with near-equal character totals
/// (the paper's initial data distribution). Returns p (begin, end) pairs.
std::vector<std::pair<bio::EstId, bio::EstId>> partition_ests(
    const bio::EstSet& ests, int p);

/// Greedy balanced assignment of buckets to ranks 0..p-1: non-empty
/// buckets in decreasing size order (equal sizes in ascending bucket id)
/// go to the currently least-loaded rank (the lowest such rank on ties).
/// Deterministic; every rank computes the same mapping from the same
/// global histogram. `hist` is dense, indexed by bucket id; returns the
/// owner rank of every bucket, -1 for empty ones.
std::vector<int> assign_buckets(const std::vector<std::uint64_t>& hist, int p);

}  // namespace estclust::gst
