#include "gst/tree.hpp"

#include <string>

namespace estclust::gst {

std::uint32_t Tree::num_leaves(std::uint32_t v) const {
  std::uint32_t count = 0;
  for (std::uint32_t u = v; u <= nodes[v].rightmost; ++u) {
    if (is_leaf(u)) ++count;
  }
  return count;
}

std::string Tree::path_label(const bio::EstSet& ests, std::uint32_t v) const {
  // Any occurrence in the subtree shares the node's path-label as prefix;
  // the rightmost pointer always designates a leaf.
  std::uint32_t u = nodes[v].rightmost;
  const SuffixOcc& occ = occs[nodes[u].occ_begin];
  auto s = ests.str(occ.sid);
  return std::string(s.substr(occ.pos, nodes[v].depth));
}

void Tree::validate(const bio::EstSet& ests) const {
  if (nodes.empty()) return;
  ESTCLUST_CHECK(nodes[0].rightmost == nodes.size() - 1);
  ESTCLUST_CHECK(nodes[0].occ_begin == 0 && nodes[0].occ_end == occs.size());

  std::uint32_t total_occs = 0;
  for (std::uint32_t v = 0; v < size(); ++v) {
    const Node& node = nodes[v];
    ESTCLUST_CHECK(node.rightmost >= v);
    ESTCLUST_CHECK(node.rightmost < size());
    ESTCLUST_CHECK_MSG(node.depth >= prefix_depth,
                       "node above bucket prefix depth");
    if (is_leaf(v)) {
      ESTCLUST_CHECK(node.occ_begin < node.occ_end);
      ESTCLUST_CHECK(node.occ_end <= occs.size());
      total_occs += node.occ_end - node.occ_begin;
      // Every occurrence of a leaf must be the exact same string of length
      // `depth` (identical suffixes coalesce) and must run to string end.
      const SuffixOcc& first = occs[node.occ_begin];
      auto ref = ests.str(first.sid).substr(first.pos, node.depth);
      for (std::uint32_t k = node.occ_begin; k < node.occ_end; ++k) {
        const SuffixOcc& occ = occs[k];
        auto s = ests.str(occ.sid);
        ESTCLUST_CHECK(occ.pos + node.depth == s.size());
        ESTCLUST_CHECK(s.substr(occ.pos, node.depth) == ref);
      }
    } else {
      // Children partition the subtree and, in order, its occurrence
      // range; each child's depth exceeds the parent's except the $-leaf
      // (identical-prefix suffixes ending here), which ties. First
      // children must begin at v+1.
      std::uint32_t expected = v + 1;
      std::uint32_t expected_occ = node.occ_begin;
      std::uint32_t child_count = 0;
      for_each_child(v, [&](std::uint32_t u) {
        ESTCLUST_CHECK(u == expected);
        ESTCLUST_CHECK(nodes[u].rightmost <= node.rightmost);
        ESTCLUST_CHECK_MSG(nodes[u].occ_begin == expected_occ,
                           "child ranges must tile the parent's range");
        expected_occ = nodes[u].occ_end;
        if (is_leaf(u) && nodes[u].depth == node.depth) {
          // $-leaf: only allowed as the first child.
          ESTCLUST_CHECK(u == v + 1);
        } else {
          ESTCLUST_CHECK_MSG(nodes[u].depth > node.depth,
                             "child depth must exceed parent depth");
        }
        expected = nodes[u].rightmost + 1;
        ++child_count;
      });
      ESTCLUST_CHECK(expected == node.rightmost + 1);
      ESTCLUST_CHECK_MSG(expected_occ == node.occ_end,
                         "child ranges must tile the parent's range");
      ESTCLUST_CHECK_MSG(child_count >= 2, "unary internal node");
      // All occurrences below v agree on the first `depth` characters.
      std::string label = path_label(ests, v);
      for (const auto& occ : occurrences(v)) {
        auto s = ests.str(occ.sid);
        ESTCLUST_CHECK(occ.pos + node.depth <= s.size());
        ESTCLUST_CHECK(s.substr(occ.pos, node.depth) == label);
      }
    }
  }
  ESTCLUST_CHECK(total_occs == occs.size());
}

}  // namespace estclust::gst
