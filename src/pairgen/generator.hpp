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
// Storage: a processed node's lsets are kept only while its parent, which
// must have depth >= psi to ever be processed, still needs them; they sit
// in a pool slot the parent returns as it takes the union. Every other
// node (bucket roots, nodes under a shallower parent) releases its cells
// once its own products are out. Between batches the live cells are
// therefore bounded by the occurrences of leaves whose parent has depth
// >= psi.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

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

  /// Live lset cells right now (space-linearity tests).
  std::uint32_t live_lset_cells() const { return pool_.live_cells(); }

 private:
  struct NodeRef {
    std::uint32_t tree = 0;
    std::uint32_t node = 0;
  };

  void prefetch_ahead() const;
  void process_next_node();
  void process_leaf(const gst::Tree& t, std::uint32_t v, bool kept,
                    NodeLsets& lsets);
  void process_internal(const gst::Tree& t, std::uint32_t base,
                        std::uint32_t v, NodeLsets& lsets);
  void emit(const LsetEntry& e1, const LsetEntry& e2, std::uint32_t len);
  void cross_product(const Lset& s1, const Lset& s2, std::uint32_t len);
  void self_product(const Lset& s, std::uint32_t len);
  void release_lsets(NodeLsets& lsets);

  const bio::EstSet& ests_;
  const std::vector<gst::Tree>& forest_;
  std::uint32_t psi_;

  // Nodes of depth >= psi, deepest first; equal depths by tree ascending,
  // then node descending, so a $-leaf precedes the parent it ties.
  std::vector<NodeRef> order_;
  std::size_t next_node_ = 0;  ///< cursor into order_

  LsetPool pool_;
  // Node v of tree t has global id base_[t] + v. slot_of_[id] is the slot
  // holding its lsets once processed, kWantsSlot before that if its parent
  // has depth >= psi, and kNoSlot if it never keeps lsets.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::uint32_t kWantsSlot = UINT32_MAX - 1;
  std::vector<std::uint32_t> base_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<NodeLsets> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> child_slots_;    ///< scratch for process_internal
  std::vector<std::uint32_t> child_classes_;  ///< scratch for process_internal

  // Duplicate-elimination mark array: mark_[sid] == token when sid was
  // already seen at the internal node currently being processed.
  std::vector<std::uint64_t> mark_;
  std::uint64_t token_ = 0;

  std::deque<PromisingPair> buffer_;
  GenStats stats_;
  std::uint64_t work_since_take_ = 0;
};

}  // namespace estclust::pairgen
