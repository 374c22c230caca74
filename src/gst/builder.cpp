#include "gst/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "bio/alphabet.hpp"
#include "util/check.hpp"

namespace estclust::gst {

std::uint64_t bucket_of(std::string_view s, std::size_t pos,
                        std::uint32_t w) {
  ESTCLUST_DCHECK(pos + w <= s.size());
  std::uint64_t id = 0;
  for (std::uint32_t k = 0; k < w; ++k) {
    id = id * 4 + static_cast<std::uint64_t>(bio::encode_base(s[pos + k]));
  }
  return id;
}

std::uint64_t num_buckets(std::uint32_t w) {
  ESTCLUST_CHECK_MSG(w >= 1 && w <= 11, "window must be in [1, 11]");
  return 1ULL << (2 * w);
}

void collect_suffixes(const bio::EstSet& ests, bio::StringId sid_begin,
                      bio::StringId sid_end, std::uint32_t w,
                      std::vector<BucketedSuffix>& out) {
  for (bio::StringId sid = sid_begin; sid < sid_end; ++sid) {
    auto s = ests.str(sid);
    if (s.size() < w) continue;
    // Rolling update of the base-4 window value.
    const std::uint64_t mask = num_buckets(w) - 1;
    std::uint64_t id = bucket_of(s, 0, w);
    for (std::size_t pos = 0;; ++pos) {
      out.push_back({id, {sid, static_cast<std::uint32_t>(pos)}});
      if (pos + w >= s.size()) break;
      id = ((id << 2) & mask) |
           static_cast<std::uint64_t>(bio::encode_base(s[pos + w]));
    }
  }
}

namespace {

/// Recursive refinement of one bucket, in place. `tree.occs` holds the
/// bucket's suffixes; each split stably partitions a group's subrange by
/// its next character, so the array ends leaf-contiguous in DFS order and
/// every leaf owns a [begin, end) range of it.
class BucketRefiner {
 public:
  BucketRefiner(const bio::EstSet& ests, Tree& tree, BuildCounters& counters)
      : ests_(ests),
        tree_(tree),
        counters_(counters),
        scratch_(tree.occs.size()),
        class_(tree.occs.size()) {}

  /// Refines occs[begin, end), a group sharing its first `d` characters,
  /// and emits its subtree into `tree` in DFS order.
  void build(std::uint32_t begin, std::uint32_t end, std::uint32_t d) {
    ESTCLUST_DCHECK(begin < end);
    const std::span<SuffixOcc> group(tree_.occs.data() + begin, end - begin);
    if (group.size() == 1) {
      emit_leaf(begin, end,
                static_cast<std::uint32_t>(
                    ests_.packed(group[0].sid).size() - group[0].pos));
      return;
    }

    // Extend the edge (compaction) while all suffixes continue with the
    // same character, up to 32 of them per step. Each depth passed is
    // charged as one scan of the group.
    for (;;) {
      const std::uint32_t run = shared_run(group, d);
      d += run;
      counters_.chars_scanned += group.size() * run;
      if (run < 32) break;
    }

    // One character pass at depth d sorts the group into $ (the suffixes
    // ending here) and A, C, G, T.
    std::array<std::uint32_t, 1 + bio::kSigma> class_size{};
    for (std::size_t k = 0; k < group.size(); ++k) {
      const bio::PackedView s = ests_.packed(group[k].sid);
      const std::size_t at = group[k].pos + d;
      class_[k] = at == s.size()
                      ? 0
                      : static_cast<std::uint8_t>(1 + s.code_at(at));
      ++class_size[class_[k]];
    }
    counters_.chars_scanned += group.size();
    if (class_size[0] == group.size()) {
      // All suffixes end at depth d: identical strings -> one leaf.
      emit_leaf(begin, end, d);
      return;
    }

    // Internal node at depth d. Children in canonical order: the $-leaf of
    // exhausted suffixes first, then the A, C, G, T classes.
    const std::uint32_t v = new_node(d);
    tree_.nodes[v].occ_begin = begin;
    tree_.nodes[v].occ_end = end;
    std::array<std::uint32_t, 1 + bio::kSigma> next{};
    for (std::size_t c = 1; c < next.size(); ++c) {
      next[c] = next[c - 1] + class_size[c - 1];
    }
    for (std::size_t k = 0; k < group.size(); ++k) {
      scratch_[next[class_[k]]++] = group[k];
    }
    std::copy_n(scratch_.begin(), group.size(), group.begin());

    std::uint32_t child = begin;
    if (class_size[0] > 0) emit_leaf(child, child + class_size[0], d);
    child += class_size[0];
    for (std::size_t c = 1; c < class_size.size(); ++c) {
      if (class_size[c] > 0) build(child, child + class_size[c], d + 1);
      child += class_size[c];
    }
    tree_.nodes[v].rightmost =
        static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

 private:
  /// Length of the run every suffix of `group` shares from depth d on,
  /// capped by each one's remaining length and at 32.
  std::uint32_t shared_run(std::span<const SuffixOcc> group,
                           std::uint32_t d) const {
    const bio::PackedView first = ests_.packed(group[0].sid);
    std::size_t run =
        std::min<std::size_t>(32, first.size() - group[0].pos - d);
    if (run == 0) return 0;
    const std::uint64_t ref = first.word_at(group[0].pos + d);
    for (std::size_t k = 1; k < group.size(); ++k) {
      const bio::PackedView s = ests_.packed(group[k].sid);
      run = std::min<std::size_t>(run, s.size() - group[k].pos - d);
      if (run == 0) return 0;
      // countr_zero(0) is 64: equal words leave run as it is.
      const std::uint64_t diff = ref ^ s.word_at(group[k].pos + d);
      run = std::min<std::size_t>(run, std::countr_zero(diff) / 2);
      if (run == 0) return 0;
    }
    return static_cast<std::uint32_t>(run);
  }

  std::uint32_t new_node(std::uint32_t depth) {
    Node n;
    n.depth = depth;
    tree_.nodes.push_back(n);
    ++counters_.nodes;
    return static_cast<std::uint32_t>(tree_.nodes.size()) - 1;
  }

  void emit_leaf(std::uint32_t begin, std::uint32_t end, std::uint32_t depth) {
    const std::uint32_t v = new_node(depth);
    tree_.nodes[v].rightmost = v;
    tree_.nodes[v].occ_begin = begin;
    tree_.nodes[v].occ_end = end;
  }

  const bio::EstSet& ests_;
  Tree& tree_;
  BuildCounters& counters_;
  std::vector<SuffixOcc> scratch_;   // partition buffer
  std::vector<std::uint8_t> class_;  // class of group[k] at the branch depth
};

}  // namespace

Tree build_bucket_tree(const bio::EstSet& ests,
                       std::vector<SuffixOcc> suffixes, std::uint32_t w,
                       std::uint64_t bucket_id, BuildCounters& counters) {
  ESTCLUST_CHECK(!suffixes.empty());
  // Canonical input order => identical trees regardless of how suffixes
  // arrived. Every forest builder already delivers (sid, pos) order.
  const auto by_sid_pos = [](const SuffixOcc& a, const SuffixOcc& b) {
    return a.sid != b.sid ? a.sid < b.sid : a.pos < b.pos;
  };
  if (!std::is_sorted(suffixes.begin(), suffixes.end(), by_sid_pos)) {
    std::sort(suffixes.begin(), suffixes.end(), by_sid_pos);
  }
  counters.suffixes += suffixes.size();

  Tree tree;
  tree.bucket_id = bucket_id;
  tree.prefix_depth = w;
  tree.nodes.reserve(2 * suffixes.size());
  tree.occs = std::move(suffixes);
  tree.occs.shrink_to_fit();
  BucketRefiner refiner(ests, tree, counters);
  refiner.build(0, static_cast<std::uint32_t>(tree.occs.size()), w);
  tree.nodes.shrink_to_fit();
  return tree;
}

std::vector<Tree> refine_buckets(const bio::EstSet& ests,
                                 std::vector<BucketedSuffix> suffixes,
                                 std::uint32_t w, BuildCounters& counters) {
  // Stable counting sort on the bucket id: count every bucket, give each
  // non-empty one an exact-size occurrence vector, then deal the suffixes
  // out in input order. slot[b] ends as bucket b's index in the forest.
  std::vector<std::uint64_t> slot(num_buckets(w), 0);
  for (const auto& bs : suffixes) ++slot[bs.bucket];
  std::vector<Tree> forest;
  for (std::uint64_t b = 0; b < slot.size(); ++b) {
    if (slot[b] == 0) continue;
    Tree& tree = forest.emplace_back();
    tree.bucket_id = b;
    tree.occs.reserve(slot[b]);
    slot[b] = forest.size() - 1;
  }
  for (const auto& bs : suffixes) {
    forest[slot[bs.bucket]].occs.push_back(bs.occ);
  }
  // Release the input before refining (assigning {} keeps the capacity).
  std::vector<BucketedSuffix>().swap(suffixes);
  std::vector<std::uint64_t>().swap(slot);
  for (Tree& tree : forest) {
    tree = build_bucket_tree(ests, std::move(tree.occs), w, tree.bucket_id,
                             counters);
  }
  return forest;
}

std::vector<Tree> build_forest_sequential(const bio::EstSet& ests,
                                          std::uint32_t w,
                                          BuildCounters* counters) {
  std::vector<BucketedSuffix> all;
  collect_suffixes(ests, 0, static_cast<bio::StringId>(ests.num_strings()), w,
                   all);
  BuildCounters local;
  return refine_buckets(ests, std::move(all), w, counters ? *counters : local);
}

std::vector<std::pair<bio::EstId, bio::EstId>> partition_ests(
    const bio::EstSet& ests, int p) {
  ESTCLUST_CHECK(p > 0);
  const std::size_t n = ests.num_ests();
  const double total = static_cast<double>(ests.total_est_chars());
  std::vector<std::pair<bio::EstId, bio::EstId>> ranges(p);
  std::size_t i = 0;
  double cum = 0.0;
  for (int r = 0; r < p; ++r) {
    const bio::EstId begin = static_cast<bio::EstId>(i);
    if (r == p - 1) {
      i = n;  // last rank absorbs any floating-point remainder
    } else {
      const double target =
          total * static_cast<double>(r + 1) / static_cast<double>(p);
      while (i < n && cum < target) {
        cum += static_cast<double>(
            ests.est(static_cast<bio::EstId>(i)).bases.size());
        ++i;
      }
    }
    ranges[r] = {begin, static_cast<bio::EstId>(i)};
  }
  return ranges;
}

std::vector<int> assign_buckets(const std::vector<std::uint64_t>& hist,
                                int p) {
  ESTCLUST_CHECK(p > 0);
  std::vector<std::size_t> order;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] > 0) order.push_back(b);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return hist[a] > hist[b];
                   });
  std::vector<std::uint64_t> load(p, 0);
  std::vector<int> owner(hist.size(), -1);
  for (std::size_t b : order) {
    int best = 0;
    for (int r = 1; r < p; ++r) {
      if (load[r] < load[best]) best = r;
    }
    owner[b] = best;
    load[best] += hist[b];
  }
  return owner;
}

}  // namespace estclust::gst
