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
// Storage: no lset is ever built. Duplicate elimination keeps a string in
// the first child that holds it, so node v's class-c lset is the class-c
// occurrences of v's range of Tree::occs whose string does not occur
// earlier in that range, in array order. An occurrence i therefore leaves
// the lsets at exactly one node, the lowest common ancestor of i and the
// previous occurrence of its string in the tree, and it is in the lsets of
// every node between its leaf and that one. The constructor records, once:
//   * each occurrence's left-extension class, as one bit in five class
//     masks per 64 occurrences plus per-class counts of the occurrences
//     before them (64 bytes per 64 occurrences);
//   * each occurrence that leaves the lsets at a node of depth >= psi, with
//     that node, deepest first in walk order.
// The walk clears an occurrence's class bit when it reaches the node the
// occurrence leaves at, so at every node the masks over a child's range
// hold exactly that child's survivors of duplicate elimination. A leaf
// with one occurrence pairs with nothing: it gets no entry in the walk
// order, and the next entry counts its work. Space is the forest's ranges
// plus about one byte per occurrence, 12 bytes per node of depth >= psi
// other than such leaves and 16 bytes per removed occurrence, independent
// of how deep the coverage is.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "gst/tree.hpp"
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

  /// Heap bytes the walk holds besides the borrowed forest and the pairs
  /// waiting in its buffer (space-linearity tests).
  std::size_t heap_bytes() const;

 private:
  /// A node to process, after `lone` lone leaves (one occurrence each)
  /// that precede it in the order; tree == kNoTree closes the order with
  /// the lone leaves after the last node.
  struct NodeRef {
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
    std::uint32_t lone = 0;
  };
  static constexpr std::uint32_t kNoTree = UINT32_MAX;

  /// 64 consecutive occurrences of the forest (trees laid end to end):
  /// bit j of mask[c] is set while occurrence 64·b + j has left-extension
  /// class c and is still in the lsets; before[c] counts the class-c
  /// occurrences ahead of the block, removed ones included.
  struct alignas(64) ClassBlock {
    std::array<std::uint64_t, bio::kNumLsetCodes> mask{};
    std::array<std::uint32_t, bio::kNumLsetCodes> before{};
  };

  /// Occurrence `occ` (a forest-wide index) leaves the lsets at internal
  /// node `node` of tree `tree`, of string-depth `depth`.
  struct Removal {
    std::uint32_t depth = 0;
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
    std::uint32_t occ = 0;
  };

  static constexpr std::uint32_t kMaxChildren = 1 + bio::kSigma;

  void process_next_node();
  void process_leaf(const gst::Node& node);
  void process_internal(const gst::Tree& t, const NodeRef& ref);
  /// Bit c set when class c may have an occurrence left in [lo, hi).
  std::uint32_t classes_in(std::uint32_t lo, std::uint32_t hi) const;
  /// Occurrences left in [lo, hi).
  std::uint32_t live_in(std::uint32_t lo, std::uint32_t hi) const;
  /// Child k's class-c list at the current node, collected on first use.
  std::span<const gst::SuffixOcc> list(std::uint32_t k, int c);
  void emit(const gst::SuffixOcc& e1, const gst::SuffixOcc& e2,
            std::uint32_t len);
  void cross_product(std::uint32_t k, int c1, std::uint32_t l, int c2,
                     std::uint32_t len);
  void self_product(std::span<const gst::SuffixOcc> s, std::uint32_t len);

  const bio::EstSet& ests_;
  const std::vector<gst::Tree>& forest_;
  std::uint32_t psi_;

  // Nodes of depth >= psi but lone leaves, deepest first; equal depths by
  // tree ascending, then node descending, so a $-leaf precedes the parent
  // it ties.
  std::vector<NodeRef> order_;
  std::size_t next_node_ = 0;  ///< cursor into order_

  // Occurrence i of tree t is occurrence occ_base_[t] + i of the forest.
  std::vector<std::uint32_t> occ_base_;
  std::vector<ClassBlock> blocks_;

  // Removals in walk order (depth descending, tree ascending, node
  // descending); the walk applies them up to next_removal_. removed_[t]
  // counts those applied in tree t.
  std::vector<Removal> removals_;
  std::size_t next_removal_ = 0;
  std::vector<std::uint32_t> removed_;

  // The node being processed: its tree's occurrences and their offset in
  // the forest, its children's ranges (child k's is [bound_[k],
  // bound_[k + 1]); a leaf is its own child 0), and the class lists read
  // so far, list (k, c) being scratch_[lists_[5k + c]) once bit 5k + c of
  // collected_ is set.
  const gst::SuffixOcc* occs_ = nullptr;
  std::uint32_t base_ = 0;
  std::array<std::uint32_t, kMaxChildren + 1> bound_{};
  std::array<std::pair<std::uint32_t, std::uint32_t>,
             kMaxChildren * bio::kNumLsetCodes>
      lists_{};
  std::uint32_t collected_ = 0;
  std::vector<gst::SuffixOcc> scratch_;

  std::deque<PromisingPair> buffer_;
  GenStats stats_;
  std::uint64_t work_since_take_ = 0;
};

}  // namespace estclust::pairgen
