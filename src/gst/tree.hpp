// Space-efficient generalized suffix tree storage (§3.1).
//
// Each bucket of suffixes (grouped by their first w characters) yields one
// subtree of the conceptual GST over S = {ESTs and reverse complements}.
// Nodes are stored in depth-first order; per the paper, a node carries a
// single pointer to the rightmost leaf of its subtree, from which all
// navigation derives:
//   * the first child of an internal node is the next array entry;
//   * the next sibling of v is the entry after v's rightmost leaf — unless
//     v and its parent share the same rightmost leaf, in which case v is
//     the last child;
//   * a node is a leaf iff its rightmost-leaf pointer points to itself.
//
// Deviations from a textbook GST, both required by the bucketed build:
//   * the top of the tree (string-depth < w) is absent — pair generation
//     only visits nodes of depth >= psi >= w, so it is never needed;
//   * identical suffixes from different strings coalesce into one leaf that
//     carries the whole occurrence list (this is what lets ProcessLeaf
//     generate pairs, mirroring the paper's leaf lsets).
//
// The occurrence array is leaf-contiguous in DFS order, so the occurrences
// below any node form one range of it: a leaf's range is its occurrence
// list, and an internal node's is the concatenation of its children's.
// The pair walk reads each node's lsets out of that range.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "util/check.hpp"

namespace estclust::gst {

/// One suffix occurrence: suffix of string `sid` starting at `pos`.
struct SuffixOcc {
  bio::StringId sid = 0;
  std::uint32_t pos = 0;

  friend bool operator==(const SuffixOcc&, const SuffixOcc&) = default;
};

/// A GST node in the DFS array. 16 bytes; the tree has at most 2k-1 nodes
/// for k suffixes, keeping storage linear in input size.
struct Node {
  std::uint32_t rightmost = 0;  ///< DFS index of rightmost leaf; self => leaf
  std::uint32_t depth = 0;      ///< string-depth (path-label length)
  std::uint32_t occ_begin = 0;  ///< [occ_begin, occ_end): the occurrences
  std::uint32_t occ_end = 0;    ///< of the subtree, a range of Tree::occs
};

/// One bucket subtree. `prefix_depth` is w, the shared-prefix length of all
/// suffixes in the bucket (the subtree root's depth is >= w).
class Tree {
 public:
  std::vector<Node> nodes;     ///< DFS order; nodes[0] is the subtree root
  std::vector<SuffixOcc> occs; ///< leaf occurrence lists, leaf-contiguous
  std::uint64_t bucket_id = 0;
  std::uint32_t prefix_depth = 0;

  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes.size()); }
  bool empty() const { return nodes.empty(); }

  bool is_leaf(std::uint32_t v) const { return nodes[v].rightmost == v; }
  std::uint32_t depth(std::uint32_t v) const { return nodes[v].depth; }

  /// Occurrences in the subtree of v, leaf by leaf in DFS order; a leaf's
  /// occurrence list.
  std::span<const SuffixOcc> occurrences(std::uint32_t v) const {
    return {occs.data() + nodes[v].occ_begin,
            occs.data() + nodes[v].occ_end};
  }

  /// Calls f(child_index) for each child of internal node v, left to right.
  template <typename F>
  void for_each_child(std::uint32_t v, F&& f) const {
    if (is_leaf(v)) return;
    std::uint32_t u = v + 1;
    for (;;) {
      f(u);
      if (nodes[u].rightmost == nodes[v].rightmost) break;
      u = nodes[u].rightmost + 1;
    }
  }

  std::uint32_t num_children(std::uint32_t v) const {
    std::uint32_t c = 0;
    for_each_child(v, [&](std::uint32_t) { ++c; });
    return c;
  }

  /// Number of leaves in the subtree of v.
  std::uint32_t num_leaves(std::uint32_t v) const;

  /// Total suffix occurrences stored in the subtree of v.
  std::uint32_t num_occurrences(std::uint32_t v) const {
    return nodes[v].occ_end - nodes[v].occ_begin;
  }

  /// Heap bytes used by this tree (space-accounting tests).
  std::size_t storage_bytes() const {
    return nodes.capacity() * sizeof(Node) +
           occs.capacity() * sizeof(SuffixOcc);
  }

  /// Reconstructs the path-label of node v from any occurrence below it.
  std::string path_label(const bio::EstSet& ests, std::uint32_t v) const;

  /// Checks structural invariants (DFS layout, rightmost pointers, depths
  /// strictly increasing parent->child except depth-ties at $-leaves,
  /// each internal range the concatenation of its children's, occurrence
  /// prefixes consistent with path labels). Throws CheckError on
  /// violation. Intended for tests; O(total occurrences * depth).
  void validate(const bio::EstSet& ests) const;
};

/// Left-extension character code of a suffix occurrence: bio::kLambdaCode
/// if the suffix is the whole string (§3.2's null character), else the code
/// of the character immediately left of the suffix.
inline int left_extension_code(const bio::EstSet& ests,
                               const SuffixOcc& occ) {
  if (occ.pos == 0) return bio::kLambdaCode;
  return ests.packed(occ.sid).code_at(occ.pos - 1);
}

}  // namespace estclust::gst
