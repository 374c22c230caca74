#include "pairgen/generator.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "mpr/clock.hpp"
#include "util/check.hpp"

namespace estclust::pairgen {

namespace {
// Ordering of Σ ∪ {λ} used for the leaf rule (c1 < c2): λ precedes the
// bases, matching the paper's convention that l_λ pairs with every other
// class exactly once.
constexpr int kClassOrder[bio::kNumLsetCodes] = {
    /*A*/ 1, /*C*/ 2, /*G*/ 3, /*T*/ 4, /*λ*/ 0};

// Prefetch distances along order_, in nodes. Consecutive nodes of one
// depth lie in different trees, so each node costs a chain of cache
// misses; the far distance fetches the node record and its slot entry,
// the near one reads that record and fetches what it points to.
constexpr std::size_t kPrefetchRecord = 24;
constexpr std::size_t kPrefetchTargets = 12;
}  // namespace

PairGenerator::PairGenerator(const bio::EstSet& ests,
                             const std::vector<gst::Tree>& forest,
                             std::uint32_t psi)
    : ests_(ests), forest_(forest), psi_(psi) {
  std::uint64_t num_nodes = 0;
  base_.reserve(forest_.size());
  for (const auto& t : forest_) {
    ESTCLUST_CHECK_MSG(
        psi_ >= t.prefix_depth,
        "psi must be >= the GST bucket window w (suffixes shorter than w "
        "were dropped)");
    base_.push_back(static_cast<std::uint32_t>(num_nodes));
    num_nodes += t.size();
    ESTCLUST_CHECK_MSG(num_nodes <= kWantsSlot,
                       "forest too large for 32-bit node ids");
  }
  // One pass counts the nodes of each depth >= psi and marks their
  // children as slot holders.
  slot_of_.assign(num_nodes, kNoSlot);
  std::vector<std::size_t> at_depth;  // indexed by depth - psi
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      const std::uint32_t d = tree.depth(v);
      if (d < psi_) continue;
      if (d - psi_ >= at_depth.size()) at_depth.resize(d - psi_ + 1, 0);
      ++at_depth[d - psi_];
      tree.for_each_child(
          v, [&](std::uint32_t u) { slot_of_[base_[t] + u] = kWantsSlot; });
    }
  }
  // Counting sort: depth buckets laid out deepest first, each filled by
  // trees ascending and, inside a tree, nodes descending.
  std::size_t next = 0;
  for (std::size_t i = at_depth.size(); i-- > 0;) {
    const std::size_t n = at_depth[i];
    at_depth[i] = next;
    next += n;
  }
  order_.resize(next);
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    for (std::uint32_t v = tree.size(); v-- > 0;) {
      const std::uint32_t d = tree.depth(v);
      if (d >= psi_) order_[at_depth[d - psi_]++] = {t, v};
    }
  }
  mark_.assign(ests_.num_strings(), 0);
}

void PairGenerator::release_lsets(NodeLsets& lsets) {
  for (auto& set : lsets) pool_.release(set);
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
    prefetch_ahead();
    process_next_node();
  }
  std::size_t count = std::min(max_pairs, buffer_.size());
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(buffer_.front());
    buffer_.pop_front();
  }
  return count;
}

void PairGenerator::prefetch_ahead() const {
  if (next_node_ + kPrefetchRecord < order_.size()) {
    const NodeRef far = order_[next_node_ + kPrefetchRecord];
    __builtin_prefetch(&forest_[far.tree].nodes[far.node]);
    __builtin_prefetch(&slot_of_[base_[far.tree] + far.node]);
  }
  if (next_node_ + kPrefetchTargets < order_.size()) {
    const NodeRef near = order_[next_node_ + kPrefetchTargets];
    const gst::Tree& t = forest_[near.tree];
    if (t.is_leaf(near.node)) {
      __builtin_prefetch(&t.occs[t.nodes[near.node].occ_begin]);
    } else {
      __builtin_prefetch(&t.nodes[near.node + 1]);
      __builtin_prefetch(&slot_of_[base_[near.tree] + near.node + 1]);
    }
  }
}

void PairGenerator::process_next_node() {
  const NodeRef ref = order_[next_node_++];
  const gst::Tree& t = forest_[ref.tree];
  // Only a parent of depth >= psi will read these lsets again; for a
  // bucket root or a node under a shallower parent they end here.
  std::uint32_t& slot = slot_of_[base_[ref.tree] + ref.node];
  NodeLsets lsets{};
  if (t.is_leaf(ref.node)) {
    process_leaf(t, ref.node, slot != kNoSlot, lsets);
  } else {
    process_internal(t, base_[ref.tree], ref.node, lsets);
  }
  ++stats_.nodes_processed;
  if (slot == kNoSlot) {
    release_lsets(lsets);
    return;
  }
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(lsets);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = lsets;
  }
}

void PairGenerator::process_leaf(const gst::Tree& t, std::uint32_t v,
                                 bool kept, NodeLsets& lsets) {
  // lsets come straight from the leaf's occurrence labels. A string appears
  // at most once per leaf (two suffixes of one string are never equal), so
  // no duplicate elimination is needed here.
  const std::span<const gst::SuffixOcc> occs = t.occurrences(v);
  work_since_take_ += occs.size();
  stats_.lset_work += occs.size();
  // A lone occurrence pairs with nothing, so its lsets matter only to a
  // parent that keeps them.
  if (occs.size() == 1 && !kept) return;
  for (const auto& occ : occs) {
    int c = gst::left_extension_code(ests_, occ);
    pool_.push(lsets[static_cast<std::size_t>(c)], {occ.sid, occ.pos});
  }
  if (occs.size() == 1) return;
  const std::uint32_t len = t.depth(v);
  // Pairs across classes (c1 < c2) and within λ.
  for (int c1 = 0; c1 < bio::kNumLsetCodes; ++c1) {
    for (int c2 = c1 + 1; c2 < bio::kNumLsetCodes; ++c2) {
      if (kClassOrder[c1] < kClassOrder[c2]) {
        cross_product(lsets[static_cast<std::size_t>(c1)],
                      lsets[static_cast<std::size_t>(c2)], len);
      } else {
        cross_product(lsets[static_cast<std::size_t>(c2)],
                      lsets[static_cast<std::size_t>(c1)], len);
      }
    }
  }
  self_product(lsets[bio::kLambdaCode], len);
}

void PairGenerator::process_internal(const gst::Tree& t, std::uint32_t base,
                                     std::uint32_t v, NodeLsets& lsets) {
  // Every child has depth >= depth(v) >= psi and precedes v in order_, so
  // each one already holds a slot.
  child_slots_.clear();
  t.for_each_child(v, [&](std::uint32_t u) {
    ESTCLUST_DCHECK(slot_of_[base + u] < kWantsSlot);
    child_slots_.push_back(slot_of_[base + u]);
  });

  // Step 1: eliminate duplicate strings across the children's lsets. Each
  // string keeps exactly one (child, class) occurrence — the first in
  // child-then-class order. Bit c of child_classes_[k] records that child
  // k's class c is still non-empty afterwards.
  const std::uint64_t token = ++token_;
  child_classes_.clear();
  for (std::uint32_t s : child_slots_) {
    std::uint32_t classes = 0;
    for (int c = 0; c < bio::kNumLsetCodes; ++c) {
      Lset& set = slots_[s][static_cast<std::size_t>(c)];
      stats_.lset_work += set.size;
      work_since_take_ += set.size;
      pool_.remove_if(set, [&](const LsetEntry& e) {
        if (mark_[e.sid] == token) return true;
        mark_[e.sid] = token;
        return false;
      });
      if (!set.empty()) classes |= 1u << c;
    }
    child_classes_.push_back(classes);
  }

  // Step 2: cross-child cartesian products with c1 != c2 or c1 = c2 = λ,
  // visiting only non-empty classes, in ascending (k, l, c1, c2) order.
  const std::uint32_t len = t.depth(v);
  for (std::size_t k = 0; k < child_slots_.size(); ++k) {
    const NodeLsets& lk = slots_[child_slots_[k]];
    for (std::size_t l = k + 1; l < child_slots_.size(); ++l) {
      const NodeLsets& ll = slots_[child_slots_[l]];
      for (std::uint32_t m1 = child_classes_[k]; m1 != 0; m1 &= m1 - 1) {
        const int c1 = std::countr_zero(m1);
        for (std::uint32_t m2 = child_classes_[l]; m2 != 0; m2 &= m2 - 1) {
          const int c2 = std::countr_zero(m2);
          if (c1 == c2 && c1 != bio::kLambdaCode) continue;
          cross_product(lk[static_cast<std::size_t>(c1)],
                        ll[static_cast<std::size_t>(c2)], len);
        }
      }
    }
  }

  // Step 3: union the children's lsets class-wise onto v (O(|Σ|²) splices)
  // and return their slots.
  for (std::uint32_t s : child_slots_) {
    for (int c = 0; c < bio::kNumLsetCodes; ++c) {
      pool_.concat(lsets[static_cast<std::size_t>(c)],
                   slots_[s][static_cast<std::size_t>(c)]);
    }
    free_slots_.push_back(s);
  }
}

void PairGenerator::cross_product(const Lset& s1, const Lset& s2,
                                  std::uint32_t len) {
  if (s1.empty() || s2.empty()) return;
  pool_.for_each(s1, [&](const LsetEntry& e1) {
    pool_.for_each(s2, [&](const LsetEntry& e2) { emit(e1, e2, len); });
  });
}

void PairGenerator::self_product(const Lset& s, std::uint32_t len) {
  if (s.size < 2) return;
  pool_.for_each_pair(
      s, [&](const LsetEntry& e1, const LsetEntry& e2) { emit(e1, e2, len); });
}

void PairGenerator::emit(const LsetEntry& e1, const LsetEntry& e2,
                         std::uint32_t len) {
  ++work_since_take_;
  LsetEntry lo = e1, hi = e2;
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

}  // namespace estclust::pairgen
