// k-mer inverted-index pair source.
//
// The Byma-style candidate filter (PAPERS.md): every owned-bucket seed of
// length k = min(psi, 32) is packed into a 2-bit-coded word and collected
// into an inverted index (key, sid, pos) sorted by (key, sid, pos). Each
// multi-occurrence key forms one seed group, and every occurrence pair in
// a group is extended maximally left and right. A pair is recorded only
// by the group whose seed sits at the *start* of the maximal match
// (leftmost-seed rule), so each maximal common substring yields exactly
// one record per occurrence pair — the same per-anchor granularity as the
// GST walk. Because k >= psi >= w, a seed at the match start shares the
// anchor's w-prefix, so restricting seeds to this rank's §3.1 buckets is
// closed under grouping: a group never mixes owned and foreign anchors.
//
// Construction is a flat scan plus one sort — no tree refinement — at the
// cost of materializing every record up front instead of streaming node
// by node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "pairgen/source.hpp"

namespace estclust::pairgen {

class KmerPairSource final : public PairSource {
 public:
  /// `owned_buckets` (sorted ascending) selects this rank's §3.1 share;
  /// `window` is the bucketing prefix length w; psi >= w for the same
  /// soundness reason as the GST walk (anchors shorter than w have no
  /// bucket).
  KmerPairSource(const bio::EstSet& ests,
                 std::vector<std::uint64_t> owned_buckets,
                 std::uint32_t window, std::uint32_t psi);

  std::size_t next_batch(std::size_t max_pairs,
                         std::vector<PromisingPair>& out) override;
  bool exhausted() const override { return served_ == records_.size(); }
  const GenStats& stats() const override { return stats_; }
  std::uint64_t take_work_units() override;
  std::uint64_t construction_sort_units() const override {
    return construction_units_;
  }
  std::uint64_t index_bytes() const override;

 private:
  struct Entry {
    std::uint64_t key = 0;  ///< 2-bit-packed seed, MSB-first
    gst::SuffixOcc occ;
  };

  bool owns_bucket(std::uint64_t bucket) const;

  /// One seed group: every owned occurrence of one length-k seed, sorted
  /// by (sid, pos). Extends each i < j occurrence pair maximally, applies
  /// the leftmost-seed rule and the §3.2 self/orientation discards, and
  /// records survivors of length >= psi.
  void process_group(std::span<const gst::SuffixOcc> occs);

  const bio::EstSet& ests_;
  std::vector<std::uint64_t> owned_;  ///< sorted §3.1 bucket ids
  std::uint32_t window_;
  std::uint32_t psi_;
  /// Seed length: psi capped at 32 so a seed packs into one u64 word.
  /// Anchors are >= psi >= k, so a shorter seed only widens groups, never
  /// loses an anchor.
  std::uint32_t k_;

  /// Every record, in serving order: decreasing match_len, then
  /// (a, b, b_rc, a_pos, b_pos) — a total order, since records are unique
  /// on their anchor.
  std::vector<PromisingPair> records_;
  std::size_t served_ = 0;
  GenStats stats_;
  std::uint64_t construction_units_ = 0;
  std::uint64_t work_since_take_ = 0;
  std::uint64_t entries_indexed_ = 0;  ///< peak index size (entries)
};

}  // namespace estclust::pairgen
