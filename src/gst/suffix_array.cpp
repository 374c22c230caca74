#include "gst/suffix_array.hpp"

#include <algorithm>

#include "gst/builder.hpp"
#include "util/check.hpp"

namespace estclust::gst {

SuffixArray build_suffix_array(const bio::EstSet& ests,
                               std::uint32_t min_len) {
  SuffixArray sa;
  for (bio::StringId sid = 0; sid < ests.num_strings(); ++sid) {
    auto s = ests.str(sid);
    if (s.size() < min_len) continue;
    for (std::uint32_t pos = 0; pos + min_len <= s.size(); ++pos) {
      sa.order.push_back({sid, pos});
    }
  }
  auto suffix = [&](const SuffixOcc& occ) {
    return ests.str(occ.sid).substr(occ.pos);
  };
  std::sort(sa.order.begin(), sa.order.end(),
            [&](const SuffixOcc& a, const SuffixOcc& b) {
              auto x = suffix(a);
              auto y = suffix(b);
              int c = x.compare(y);
              if (c != 0) return c < 0;
              if (a.sid != b.sid) return a.sid < b.sid;
              return a.pos < b.pos;
            });
  sa.lcp.assign(sa.order.size(), 0);
  for (std::size_t k = 1; k < sa.order.size(); ++k) {
    auto x = suffix(sa.order[k - 1]);
    auto y = suffix(sa.order[k]);
    std::uint32_t l = 0;
    while (l < x.size() && l < y.size() && x[l] == y[l]) ++l;
    sa.lcp[k] = l;
  }
  return sa;
}

namespace {

/// Recursive LCP-interval folding into the DFS-array layout.
class IntervalFolder {
 public:
  IntervalFolder(const bio::EstSet& ests, const SuffixArray& sa, Tree& tree)
      : ests_(ests), sa_(sa), tree_(tree) {}

  void build(std::size_t lo, std::size_t hi) {
    ESTCLUST_DCHECK(lo < hi);
    if (hi - lo == 1) {
      const SuffixOcc& occ = sa_.order[lo];
      emit_leaf(lo, hi,
                static_cast<std::uint32_t>(
                    ests_.str(occ.sid).size() - occ.pos));
      return;
    }
    // Branch depth: minimum LCP between neighbours inside the interval.
    std::uint32_t m = sa_.lcp[lo + 1];
    for (std::size_t k = lo + 2; k < hi; ++k) m = std::min(m, sa_.lcp[k]);

    // Suffixes of length exactly m sort first and are all identical.
    std::size_t e = lo;
    while (e < hi) {
      const SuffixOcc& occ = sa_.order[e];
      if (ests_.str(occ.sid).size() - occ.pos != m) break;
      ++e;
    }
    if (e == hi) {
      emit_leaf(lo, hi, m);  // every suffix equals the shared prefix
      return;
    }

    const std::uint32_t v = new_node(m);
    tree_.nodes[v].occ_begin = static_cast<std::uint32_t>(tree_.occs.size());
    if (e > lo) emit_leaf(lo, e, m);  // the $-leaf, first child
    // Children: maximal runs of [e, hi) with pairwise LCP > m.
    std::size_t run_start = e;
    for (std::size_t k = e + 1; k <= hi; ++k) {
      if (k == hi || sa_.lcp[k] <= m) {
        build(run_start, k);
        run_start = k;
      }
    }
    tree_.nodes[v].rightmost =
        static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
    tree_.nodes[v].occ_end = static_cast<std::uint32_t>(tree_.occs.size());
  }

 private:
  std::uint32_t new_node(std::uint32_t depth) {
    Node n;
    n.depth = depth;
    tree_.nodes.push_back(n);
    return static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

  void emit_leaf(std::size_t lo, std::size_t hi, std::uint32_t depth) {
    const std::uint32_t v = new_node(depth);
    tree_.nodes[v].rightmost = v;
    tree_.nodes[v].occ_begin = static_cast<std::uint32_t>(tree_.occs.size());
    for (std::size_t k = lo; k < hi; ++k) {
      tree_.occs.push_back(sa_.order[k]);
    }
    tree_.nodes[v].occ_end = static_cast<std::uint32_t>(tree_.occs.size());
  }

  const bio::EstSet& ests_;
  const SuffixArray& sa_;
  Tree& tree_;
};

}  // namespace

std::vector<Tree> forest_from_suffix_array(const bio::EstSet& ests,
                                           const SuffixArray& sa,
                                           std::uint32_t w) {
  std::vector<Tree> forest;
  std::size_t i = 0;
  while (i < sa.order.size()) {
    const SuffixOcc& occ = sa.order[i];
    const std::uint64_t bucket = bucket_of(ests.str(occ.sid), occ.pos, w);
    std::size_t j = i + 1;
    while (j < sa.order.size() && sa.lcp[j] >= w) ++j;
    Tree tree;
    tree.bucket_id = bucket;
    tree.prefix_depth = w;
    IntervalFolder folder(ests, sa, tree);
    folder.build(i, j);
    forest.push_back(std::move(tree));
    i = j;
  }
  return forest;
}

}  // namespace estclust::gst
