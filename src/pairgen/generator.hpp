// On-demand promising-pair generation (§3.2, Algorithm 1).
//
// A *promising pair* is a pair of strings sharing a maximal common substring
// of length >= psi. The generator walks the nodes of the local GST forest in
// decreasing string-depth order and, at each node with path-label α, emits
// exactly the pairs for which α is a maximal common substring (Lemma 1):
//
//   * at a leaf: cartesian products of lsets over (c1 < c2) plus l_λ × l_λ;
//   * at an internal node: after eliminating duplicate strings across the
//     children's lsets, cross-child products over (c1 != c2 or both λ),
//     then lset union onto the node.
//
// Pairs therefore stream out in decreasing order of maximal common
// substring length with respect to this forest (the paper accepts per-rank
// rather than global order). The generator remembers its position between
// calls, so pairs are produced on demand.
//
// Storage: a leaf keeps no lsets — a parent of depth >= psi reads them
// from the leaf's occurrence array. A processed internal node keeps its
// lsets only while its parent, which must have depth >= psi to ever be
// processed, still needs them: one contiguous block grouped by class,
// freed as the parent streams it through duplicate elimination. Every
// other node (bucket roots, nodes under a shallower parent) keeps nothing
// once its own products are out. Between batches the live entries are
// therefore bounded by the occurrences below internal nodes whose parent
// has depth >= psi, and so by the occurrences of leaves whose parent has
// depth >= psi.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "pairgen/lset.hpp"
#include "pairgen/source.hpp"

namespace estclust::pairgen {

class PairGenerator final : public PairSource {
 public:
  /// The forest is borrowed and must outlive the generator. psi must be at
  /// least the forest's bucket prefix depth w (suffixes shorter than w were
  /// never inserted, which is only sound when psi >= w).
  PairGenerator(const bio::EstSet& ests, const std::vector<gst::Tree>& forest,
                std::uint32_t psi);

  /// Appends up to `max_pairs` pairs to `out`. Returns the number appended;
  /// 0 means the stream is exhausted.
  std::size_t next_batch(std::size_t max_pairs,
                         std::vector<PromisingPair>& out) override;

  /// True once every node has been processed and the buffer drained.
  bool exhausted() const override;

  const GenStats& stats() const override { return stats_; }

  /// Work units performed since the last call to this function (for
  /// virtual-time charging by the parallel driver).
  std::uint64_t take_work_units() override;

  /// Node sorting over the borrowed forest (Table 3's "Sorting Nodes"
  /// column): k·(1 + ⌊log2(k+1)⌋) for k forest nodes — the comparison
  /// sort the pace drivers have always charged for this backend, kept
  /// although the constructor orders the nodes with a counting sort.
  std::uint64_t construction_sort_units() const override;

  /// The candidate index here is the borrowed forest itself.
  std::uint64_t index_bytes() const override;

  /// Lset entries held in kept blocks right now (space-linearity tests).
  std::size_t live_lset_entries() const { return live_entries_; }

 private:
  struct NodeRef {
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
  };

  /// A kept node's lsets, grouped by class: class c is
  /// entries[begin[c], begin[c + 1]).
  struct Block {
    std::vector<LsetEntry> entries;
    std::array<std::uint32_t, bio::kNumLsetCodes + 1> begin{};
  };

  void prefetch_ahead() const;
  void process_next_node();
  void process_leaf(const gst::Tree& t, std::uint32_t v);
  void process_internal(const gst::Tree& t, std::uint32_t base,
                        std::uint32_t v);
  std::uint32_t keep_block();
  void emit(const LsetEntry& e1, const LsetEntry& e2, std::uint32_t len);
  void cross_product(std::span<const LsetEntry> s1,
                     std::span<const LsetEntry> s2, std::uint32_t len);
  void self_product(std::span<const LsetEntry> s, std::uint32_t len);

  const bio::EstSet& ests_;
  const std::vector<gst::Tree>& forest_;
  std::uint32_t psi_;

  // Nodes of depth >= psi, deepest first; equal depths by tree ascending,
  // then node descending, so a $-leaf precedes the parent it ties.
  std::vector<NodeRef> order_;
  std::size_t next_node_ = 0;  ///< cursor into order_

  // Node v of tree t has global id base_[t] + v. slot_of_[id] is the slot
  // holding its block once processed, kWantsSlot before that if it is an
  // internal node whose parent has depth >= psi, and kNoSlot if it never
  // keeps lsets.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::uint32_t kWantsSlot = UINT32_MAX - 1;
  std::vector<std::uint32_t> base_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<Block> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_entries_ = 0;  ///< entries held in slots_

  // Per-class scratch for the node being processed: a leaf's occurrences,
  // or the survivors of duplicate elimination, child after child. Child
  // k's class-c survivors are class_[c][child_begin_[k][c],
  // child_begin_[k + 1][c]).
  std::array<std::vector<LsetEntry>, bio::kNumLsetCodes> class_;
  std::vector<std::array<std::uint32_t, bio::kNumLsetCodes>> child_begin_;

  // Duplicate-elimination mark array: mark_[sid] == token when sid was
  // already seen at the internal node currently being processed.
  std::vector<std::uint64_t> mark_;
  std::uint64_t token_ = 0;

  std::deque<PromisingPair> buffer_;
  GenStats stats_;
  std::uint64_t work_since_take_ = 0;
};

}  // namespace estclust::pairgen
