#include "pairgen/generator.hpp"

#include <algorithm>
#include <bit>

#include "mpr/clock.hpp"
#include "util/check.hpp"

namespace estclust::pairgen {

namespace {
// Ordering of Σ ∪ {λ} used for the leaf rule (c1 < c2): λ precedes the
// bases, matching the paper's convention that l_λ pairs with every other
// class exactly once.
constexpr int kClassOrder[bio::kNumLsetCodes] = {
    /*A*/ 1, /*C*/ 2, /*G*/ 3, /*T*/ 4, /*λ*/ 0};

// A leaf with one occurrence: it pairs with nothing, so the walk only
// counts its work and gives it no entry of its own.
bool lone_leaf(const gst::Tree& t, std::uint32_t v) {
  return t.is_leaf(v) && t.num_occurrences(v) == 1;
}

// False when the classes in `present` allow no pair: a pair needs two
// classes or λ (which pairs with itself).
constexpr bool may_pair(std::uint32_t present) {
  return (present & (present - 1)) != 0 ||
         present == 1u << bio::kLambdaCode;
}

// Bits i % 64 and up of a word, and bits up to and including i % 64.
constexpr std::uint64_t from_bit(std::uint32_t i) {
  return ~std::uint64_t{0} << (i & 63);
}
constexpr std::uint64_t through_bit(std::uint32_t i) {
  return ~std::uint64_t{0} >> (63 - (i & 63));
}
}  // namespace

PairGenerator::PairGenerator(const bio::EstSet& ests,
                             const std::vector<gst::Tree>& forest,
                             std::uint32_t psi)
    : ests_(ests), forest_(forest), psi_(psi) {
  // Lay the trees' occurrence arrays end to end.
  std::uint64_t total = 0;
  occ_base_.reserve(forest_.size());
  for (const auto& t : forest_) {
    ESTCLUST_CHECK_MSG(
        psi_ >= t.prefix_depth,
        "psi must be >= the GST bucket window w (suffixes shorter than w "
        "were dropped)");
    occ_base_.push_back(static_cast<std::uint32_t>(total));
    total += t.occs.size();
    ESTCLUST_CHECK_MSG(total < UINT32_MAX,
                       "forest too large for 32-bit occurrence ids");
  }
  blocks_.resize((total + 63) / 64);
  removed_.assign(forest_.size(), 0);

  // One DFS pass per tree counts the nodes of each depth >= psi, sets the
  // class bit of every occurrence below them and finds where each leaves
  // the lsets: at the deepest ancestor of depth >= psi whose range holds
  // the previous occurrence of its string, if any. Leaves shallower than
  // psi lie below no processed node, so their occurrences are skipped.
  std::vector<std::size_t> at_depth;  // indexed by depth - psi
  // last[sid]: (tree << 32) | occurrence index of sid's latest occurrence.
  std::vector<std::uint64_t> last(ests_.num_strings(), UINT64_MAX);
  std::vector<std::uint32_t> path;  // internal ancestors of depth >= psi
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    const auto begins_after = [&](std::uint32_t i, std::uint32_t u) {
      return i < tree.nodes[u].occ_begin;
    };
    path.clear();
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      const std::uint32_t d = tree.depth(v);
      if (d < psi_) continue;
      if (d - psi_ >= at_depth.size()) at_depth.resize(d - psi_ + 1, 0);
      if (!lone_leaf(tree, v)) ++at_depth[d - psi_];
      while (!path.empty() && tree.nodes[path.back()].rightmost < v) {
        path.pop_back();
      }
      if (!tree.is_leaf(v)) {
        path.push_back(v);
        continue;
      }
      for (std::uint32_t i = tree.nodes[v].occ_begin;
           i < tree.nodes[v].occ_end; ++i) {
        const gst::SuffixOcc& occ = tree.occs[i];
        const std::uint32_t g = occ_base_[t] + i;
        blocks_[g >> 6].mask[static_cast<std::size_t>(
            gst::left_extension_code(ests_, occ))] |= std::uint64_t{1}
                                                       << (g & 63);
        std::uint64_t& seen = last[occ.sid];
        if (seen >> 32 == t) {
          const auto at = std::upper_bound(
              path.begin(), path.end(), static_cast<std::uint32_t>(seen),
              begins_after);
          if (at != path.begin()) {
            const std::uint32_t w = *(at - 1);
            removals_.push_back({tree.depth(w), t, w, g});
          }
        }
        seen = (std::uint64_t{t} << 32) | i;
      }
    }
  }
  std::array<std::uint32_t, bio::kNumLsetCodes> running{};
  for (ClassBlock& block : blocks_) {
    block.before = running;
    for (std::size_t c = 0; c < running.size(); ++c) {
      running[c] += static_cast<std::uint32_t>(std::popcount(block.mask[c]));
    }
  }
  std::sort(removals_.begin(), removals_.end(),
            [](const Removal& a, const Removal& b) {
              if (a.depth != b.depth) return a.depth > b.depth;
              if (a.tree != b.tree) return a.tree < b.tree;
              return a.node > b.node;
            });
  removals_.shrink_to_fit();

  // Counting sort: depth buckets laid out deepest first, each filled by
  // trees ascending and, inside a tree, nodes descending. A lone leaf
  // takes no entry: the entry after it counts it.
  std::size_t next = 0;
  for (std::size_t i = at_depth.size(); i-- > 0;) {
    const std::size_t n = at_depth[i];
    at_depth[i] = next;
    next += n;
  }
  order_.reserve(next + 1);
  order_.resize(next);
  // lone[i]: lone leaves of depth psi + i since that bucket's last entry.
  std::vector<std::uint32_t> lone(at_depth.size(), 0);
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    for (std::uint32_t v = tree.size(); v-- > 0;) {
      const std::uint32_t d = tree.depth(v);
      if (d < psi_) continue;
      if (lone_leaf(tree, v)) {
        ++lone[d - psi_];
      } else {
        order_[at_depth[d - psi_]++] = {t, v, lone[d - psi_]};
        lone[d - psi_] = 0;
      }
    }
  }
  // A bucket's trailing lone leaves come before the next entry in order,
  // the first of the next shallower bucket that has one, or else the
  // entry closing the order. Each bucket starts where the deeper one ends.
  std::uint32_t carry = 0;
  std::size_t start = 0;
  for (std::size_t i = at_depth.size(); i-- > 0;) {
    if (at_depth[i] != start) {
      order_[start].lone += carry;
      carry = 0;
    }
    carry += lone[i];
    start = at_depth[i];
  }
  if (carry > 0) order_.push_back({kNoTree, 0, carry});
}

bool PairGenerator::exhausted() const {
  return buffer_.empty() && next_node_ == order_.size();
}

std::uint64_t PairGenerator::take_work_units() {
  std::uint64_t w = work_since_take_;
  work_since_take_ = 0;
  return w;
}

std::size_t PairGenerator::next_batch(std::size_t max_pairs,
                                      std::vector<PromisingPair>& out) {
  while (buffer_.size() < max_pairs && next_node_ < order_.size()) {
    process_next_node();
  }
  std::size_t count = std::min(max_pairs, buffer_.size());
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(buffer_.front());
    buffer_.pop_front();
  }
  return count;
}

void PairGenerator::process_next_node() {
  const NodeRef ref = order_[next_node_++];
  // The lone leaves ahead of this node: a lone occurrence pairs with
  // nothing, so each only counts its one occurrence.
  work_since_take_ += ref.lone;
  stats_.lset_work += ref.lone;
  stats_.nodes_processed += ref.lone;
  if (ref.tree == kNoTree) return;
  const gst::Tree& t = forest_[ref.tree];
  occs_ = t.occs.data();
  base_ = occ_base_[ref.tree];
  if (t.is_leaf(ref.node)) {
    process_leaf(t.nodes[ref.node]);
  } else {
    process_internal(t, ref);
  }
  ++stats_.nodes_processed;
}

std::uint32_t PairGenerator::classes_in(std::uint32_t lo,
                                        std::uint32_t hi) const {
  // The end blocks' words are exact; between them, the counts ahead of
  // each block differ when the class occurs there. Those counts include
  // removed occurrences, so a class can be reported that holds none.
  const std::uint32_t b0 = lo >> 6;
  const std::uint32_t b1 = (hi - 1) >> 6;
  const ClassBlock& first = blocks_[b0];
  std::uint32_t present = 0;
  if (b0 == b1) {
    const std::uint64_t range = from_bit(lo) & through_bit(hi - 1);
    for (int c = 0; c < bio::kNumLsetCodes; ++c) {
      if ((first.mask[c] & range) != 0) present |= 1u << c;
    }
    return present;
  }
  const ClassBlock& second = blocks_[b0 + 1];
  const ClassBlock& last = blocks_[b1];
  const std::uint64_t head = from_bit(lo);
  const std::uint64_t tail = through_bit(hi - 1);
  for (int c = 0; c < bio::kNumLsetCodes; ++c) {
    if (((first.mask[c] & head) | (last.mask[c] & tail)) != 0 ||
        last.before[c] != second.before[c]) {
      present |= 1u << c;
    }
  }
  return present;
}

std::uint32_t PairGenerator::live_in(std::uint32_t lo,
                                     std::uint32_t hi) const {
  std::uint32_t live = 0;
  for (std::uint32_t b = lo >> 6; b <= (hi - 1) >> 6; ++b) {
    std::uint64_t word = 0;
    for (const std::uint64_t m : blocks_[b].mask) word |= m;
    if (b == lo >> 6) word &= from_bit(lo);
    if (b == (hi - 1) >> 6) word &= through_bit(hi - 1);
    live += static_cast<std::uint32_t>(std::popcount(word));
  }
  return live;
}

std::span<const gst::SuffixOcc> PairGenerator::list(std::uint32_t k, int c) {
  const std::uint32_t key =
      k * bio::kNumLsetCodes + static_cast<std::uint32_t>(c);
  if ((collected_ >> key & 1) == 0) {
    collected_ |= 1u << key;
    const std::uint32_t lo = bound_[k];
    const std::uint32_t hi = bound_[k + 1];
    lists_[key].first = static_cast<std::uint32_t>(scratch_.size());
    for (std::uint32_t b = lo >> 6; b <= (hi - 1) >> 6; ++b) {
      std::uint64_t word = blocks_[b].mask[c];
      if (b == lo >> 6) word &= from_bit(lo);
      if (b == (hi - 1) >> 6) word &= through_bit(hi - 1);
      for (; word != 0; word &= word - 1) {
        const auto j = static_cast<std::uint32_t>(std::countr_zero(word));
        scratch_.push_back(occs_[(b << 6) + j - base_]);
      }
    }
    lists_[key].second = static_cast<std::uint32_t>(scratch_.size());
  }
  return {scratch_.data() + lists_[key].first,
          scratch_.data() + lists_[key].second};
}

void PairGenerator::process_leaf(const gst::Node& node) {
  // A leaf's lsets are its occurrences, split by class: a string appears
  // at most once per leaf (two suffixes of one string are never equal),
  // so no duplicate elimination is needed, and none of them has left the
  // lsets yet (that happens at a proper ancestor, later in the order).
  const std::uint32_t n = node.occ_end - node.occ_begin;
  work_since_take_ += n;
  stats_.lset_work += n;
  bound_[0] = base_ + node.occ_begin;
  bound_[1] = base_ + node.occ_end;
  const std::uint32_t present = classes_in(bound_[0], bound_[1]);
  if (!may_pair(present)) return;
  collected_ = 0;
  scratch_.clear();
  const auto has = [&](int c) { return (present >> c & 1) != 0; };
  // Pairs across classes (c1 < c2) and within λ.
  for (int c1 = 0; c1 < bio::kNumLsetCodes; ++c1) {
    if (!has(c1)) continue;
    for (int c2 = c1 + 1; c2 < bio::kNumLsetCodes; ++c2) {
      if (!has(c2)) continue;
      if (kClassOrder[c1] < kClassOrder[c2]) {
        cross_product(0, c1, 0, c2, node.depth);
      } else {
        cross_product(0, c2, 0, c1, node.depth);
      }
    }
  }
  if (has(bio::kLambdaCode)) {
    self_product(list(0, bio::kLambdaCode), node.depth);
  }
}

void PairGenerator::process_internal(const gst::Tree& t, const NodeRef& ref) {
  const gst::Node& node = t.nodes[ref.node];
  const std::uint32_t lo = base_ + node.occ_begin;
  const std::uint32_t hi = base_ + node.occ_end;

  // Charge each child's lset: a leaf child's occurrences, an internal
  // child's range less what left the lsets at or below it — together the
  // range less the removals applied so far inside it.
  const std::uint32_t held =
      removed_[ref.tree] == 0 ? hi - lo : live_in(lo, hi);
  stats_.lset_work += held;
  work_since_take_ += held;

  // Duplicate elimination: each string keeps exactly one (child, class)
  // occurrence, the one in the first child that holds it. The others are
  // the removals recorded for this node.
  for (; next_removal_ < removals_.size() &&
         removals_[next_removal_].tree == ref.tree &&
         removals_[next_removal_].node == ref.node;
       ++next_removal_) {
    const std::uint32_t g = removals_[next_removal_].occ;
    for (std::uint64_t& m : blocks_[g >> 6].mask) {
      m &= ~(std::uint64_t{1} << (g & 63));
    }
    ++removed_[ref.tree];
  }

  // Every child has depth >= depth(v) >= psi, so the masks over child k's
  // range now hold exactly its survivors. When they share one base as
  // their left extension, no product is allowed (a pair needs c1 != c2 or
  // both λ) and the children need not be read.
  if (!may_pair(classes_in(lo, hi))) return;
  std::uint32_t kids = 0;
  t.for_each_child(ref.node, [&](std::uint32_t u) {
    ESTCLUST_DCHECK(kids < kMaxChildren);
    bound_[kids++] = base_ + t.nodes[u].occ_begin;
  });
  bound_[kids] = hi;
  std::array<std::uint32_t, kMaxChildren> present{};
  for (std::uint32_t k = 0; k < kids; ++k) {
    present[k] = classes_in(bound_[k], bound_[k + 1]);
  }
  collected_ = 0;
  scratch_.clear();

  // Cross-child cartesian products with c1 != c2 or c1 = c2 = λ, in
  // ascending (k, l, c1, c2) order; an empty class emits nothing.
  for (std::uint32_t k = 0; k < kids; ++k) {
    if (present[k] == 0) continue;
    for (std::uint32_t l = k + 1; l < kids; ++l) {
      if (present[l] == 0) continue;
      for (int c1 = 0; c1 < bio::kNumLsetCodes; ++c1) {
        if ((present[k] >> c1 & 1) == 0) continue;
        for (int c2 = 0; c2 < bio::kNumLsetCodes; ++c2) {
          if ((present[l] >> c2 & 1) == 0) continue;
          if (c1 == c2 && c1 != bio::kLambdaCode) continue;
          cross_product(k, c1, l, c2, node.depth);
        }
      }
    }
  }
}

void PairGenerator::cross_product(std::uint32_t k, int c1, std::uint32_t l,
                                  int c2, std::uint32_t len) {
  // The inner list first: when it is empty the outer one is never read.
  // Collecting s1 may move scratch_; s2 is taken after it and is already
  // collected, so both spans stay valid.
  if (list(l, c2).empty()) return;
  const std::span<const gst::SuffixOcc> s1 = list(k, c1);
  const std::span<const gst::SuffixOcc> s2 = list(l, c2);
  for (const gst::SuffixOcc& e1 : s1) {
    for (const gst::SuffixOcc& e2 : s2) emit(e1, e2, len);
  }
}

void PairGenerator::self_product(std::span<const gst::SuffixOcc> s,
                                 std::uint32_t len) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j) emit(s[i], s[j], len);
  }
}

void PairGenerator::emit(const gst::SuffixOcc& e1, const gst::SuffixOcc& e2,
                         std::uint32_t len) {
  ++work_since_take_;
  gst::SuffixOcc lo = e1, hi = e2;
  if (bio::EstSet::est_of(lo.sid) > bio::EstSet::est_of(hi.sid)) {
    std::swap(lo, hi);
  }
  const bio::EstId i = bio::EstSet::est_of(lo.sid);
  const bio::EstId j = bio::EstSet::est_of(hi.sid);
  if (i == j) {
    // Both strings derive from one EST (self-repeat or palindromic match).
    ++stats_.discarded_self;
    return;
  }
  if (bio::EstSet::is_rc(lo.sid)) {
    // The equivalent pair with both strings complemented is generated at
    // the node whose path-label is the reverse complement of this one
    // (§3.2's duplicate discard rule).
    ++stats_.discarded_orientation;
    return;
  }
  PromisingPair p;
  p.a = i;
  p.b = j;
  p.b_rc = bio::EstSet::is_rc(hi.sid);
  p.match_len = len;
  p.a_pos = lo.pos;
  p.b_pos = hi.pos;
  buffer_.push_back(p);
  ++stats_.pairs_emitted;
}

std::uint64_t PairGenerator::construction_sort_units() const {
  std::uint64_t k = 0;
  for (const auto& t : forest_) k += t.size();
  return mpr::sort_model_units(k);
}

std::uint64_t PairGenerator::index_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& t : forest_) bytes += t.storage_bytes();
  return bytes;
}

std::size_t PairGenerator::heap_bytes() const {
  return order_.capacity() * sizeof(NodeRef) +
         occ_base_.capacity() * sizeof(std::uint32_t) +
         blocks_.capacity() * sizeof(ClassBlock) +
         removals_.capacity() * sizeof(Removal) +
         removed_.capacity() * sizeof(std::uint32_t) +
         scratch_.capacity() * sizeof(gst::SuffixOcc);
}

}  // namespace estclust::pairgen
