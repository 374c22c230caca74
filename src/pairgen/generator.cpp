#include "pairgen/generator.hpp"

#include <algorithm>
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
// the near one reads that record and fetches what it points to, and the
// last one loads the packed words that hold the left-extension
// characters of an internal node's leaf children.
constexpr std::size_t kPrefetchRecord = 24;
constexpr std::size_t kPrefetchTargets = 12;
constexpr std::size_t kLoadCodes = 4;

// Reads the word at p and drops the value. On the 4-core Xeon VM the
// benchmarks run on, a __builtin_prefetch of these scattered words
// measured no faster than none, while this load took about a third off
// the walk on the `deep` library.
void load_word(const std::uint64_t* p) {
  static_cast<void>(*static_cast<const volatile std::uint64_t*>(p));
}
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
  // internal children as slot holders; a leaf child keeps nothing.
  slot_of_.assign(num_nodes, kNoSlot);
  std::vector<std::size_t> at_depth;  // indexed by depth - psi
  for (std::uint32_t t = 0; t < forest_.size(); ++t) {
    const gst::Tree& tree = forest_[t];
    for (std::uint32_t v = 0; v < tree.size(); ++v) {
      const std::uint32_t d = tree.depth(v);
      if (d < psi_) continue;
      if (d - psi_ >= at_depth.size()) at_depth.resize(d - psi_ + 1, 0);
      ++at_depth[d - psi_];
      tree.for_each_child(v, [&](std::uint32_t u) {
        if (!tree.is_leaf(u)) slot_of_[base_[t] + u] = kWantsSlot;
      });
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
  if (next_node_ + kLoadCodes < order_.size()) {
    const NodeRef soon = order_[next_node_ + kLoadCodes];
    const gst::Tree& t = forest_[soon.tree];
    t.for_each_child(soon.node, [&](std::uint32_t u) {
      if (!t.is_leaf(u)) return;
      for (const gst::SuffixOcc& occ : t.occurrences(u)) {
        if (occ.pos > 0) {
          load_word(ests_.packed(occ.sid).word_address(occ.pos - 1));
        }
      }
    });
  }
}

void PairGenerator::process_next_node() {
  const NodeRef ref = order_[next_node_++];
  const gst::Tree& t = forest_[ref.tree];
  if (t.is_leaf(ref.node)) {
    process_leaf(t, ref.node);
  } else {
    process_internal(t, base_[ref.tree], ref.node);
  }
  ++stats_.nodes_processed;
}

void PairGenerator::process_leaf(const gst::Tree& t, std::uint32_t v) {
  // lsets come straight from the leaf's occurrence labels. A string appears
  // at most once per leaf (two suffixes of one string are never equal), so
  // no duplicate elimination is needed here.
  const std::span<const gst::SuffixOcc> occs = t.occurrences(v);
  work_since_take_ += occs.size();
  stats_.lset_work += occs.size();
  if (occs.size() == 1) return;  // a lone occurrence pairs with nothing
  for (auto& set : class_) set.clear();
  for (const auto& occ : occs) {
    class_[static_cast<std::size_t>(gst::left_extension_code(ests_, occ))]
        .push_back({occ.sid, occ.pos});
  }
  const std::uint32_t len = t.depth(v);
  // Pairs across classes (c1 < c2) and within λ.
  for (std::size_t c1 = 0; c1 < class_.size(); ++c1) {
    for (std::size_t c2 = c1 + 1; c2 < class_.size(); ++c2) {
      if (kClassOrder[c1] < kClassOrder[c2]) {
        cross_product(class_[c1], class_[c2], len);
      } else {
        cross_product(class_[c2], class_[c1], len);
      }
    }
  }
  self_product(class_[bio::kLambdaCode], len);
}

void PairGenerator::process_internal(const gst::Tree& t, std::uint32_t base,
                                     std::uint32_t v) {
  // Step 1: eliminate duplicate strings across the children's lsets,
  // streaming each child's survivors into class_. Each string keeps
  // exactly one (child, class) occurrence, the one in the first child
  // that holds it: a child holds each string at most once. Every child
  // has depth >= depth(v) >= psi and precedes v in order_, so an internal
  // child already holds a block, and a leaf child's lsets are its
  // occurrences.
  const std::uint64_t token = ++token_;
  for (auto& set : class_) set.clear();
  child_begin_.clear();
  const auto survive = [&](int c, const LsetEntry& e) {
    if (mark_[e.sid] == token) return;
    mark_[e.sid] = token;
    class_[static_cast<std::size_t>(c)].push_back(e);
  };
  const auto mark_child_begin = [&] {
    auto& begin = child_begin_.emplace_back();
    for (std::size_t c = 0; c < class_.size(); ++c) {
      begin[c] = static_cast<std::uint32_t>(class_[c].size());
    }
  };
  t.for_each_child(v, [&](std::uint32_t u) {
    mark_child_begin();
    if (t.is_leaf(u)) {
      const std::span<const gst::SuffixOcc> occs = t.occurrences(u);
      stats_.lset_work += occs.size();
      work_since_take_ += occs.size();
      for (const auto& occ : occs) {
        survive(gst::left_extension_code(ests_, occ), {occ.sid, occ.pos});
      }
      return;
    }
    const std::uint32_t s = slot_of_[base + u];
    ESTCLUST_DCHECK(s < kWantsSlot);
    Block& block = slots_[s];
    stats_.lset_work += block.entries.size();
    work_since_take_ += block.entries.size();
    for (int c = 0; c < bio::kNumLsetCodes; ++c) {
      for (std::uint32_t i = block.begin[c]; i < block.begin[c + 1]; ++i) {
        survive(c, block.entries[i]);
      }
    }
    live_entries_ -= block.entries.size();
    std::vector<LsetEntry>().swap(block.entries);
    free_slots_.push_back(s);
  });
  mark_child_begin();
  const std::size_t kids = child_begin_.size() - 1;
  const auto survivors = [&](std::size_t k, std::size_t c) {
    return std::span<const LsetEntry>(class_[c]).subspan(
        child_begin_[k][c], child_begin_[k + 1][c] - child_begin_[k][c]);
  };

  // Step 2: cross-child cartesian products with c1 != c2 or c1 = c2 = λ,
  // in ascending (k, l, c1, c2) order; an empty class emits nothing.
  const std::uint32_t len = t.depth(v);
  for (std::size_t k = 0; k < kids; ++k) {
    for (std::size_t l = k + 1; l < kids; ++l) {
      for (std::size_t c1 = 0; c1 < class_.size(); ++c1) {
        for (std::size_t c2 = 0; c2 < class_.size(); ++c2) {
          if (c1 == c2 && c1 != bio::kLambdaCode) continue;
          cross_product(survivors(k, c1), survivors(l, c2), len);
        }
      }
    }
  }

  // Step 3: the survivors, class by class, are v's lsets. Only a parent of
  // depth >= psi reads them again; for a bucket root or a node under a
  // shallower parent they end here.
  std::uint32_t& slot = slot_of_[base + v];
  if (slot == kWantsSlot) slot = keep_block();
}

std::uint32_t PairGenerator::keep_block() {
  std::uint32_t s = 0;
  if (free_slots_.empty()) {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  Block& block = slots_[s];
  std::uint32_t n = 0;
  for (std::size_t c = 0; c < class_.size(); ++c) {
    block.begin[c] = n;
    n += static_cast<std::uint32_t>(class_[c].size());
  }
  block.begin[class_.size()] = n;
  block.entries.reserve(n);
  for (const auto& set : class_) {
    block.entries.insert(block.entries.end(), set.begin(), set.end());
  }
  live_entries_ += n;
  return s;
}

void PairGenerator::cross_product(std::span<const LsetEntry> s1,
                                  std::span<const LsetEntry> s2,
                                  std::uint32_t len) {
  if (s2.empty()) return;
  for (const LsetEntry& e1 : s1) {
    for (const LsetEntry& e2 : s2) emit(e1, e2, len);
  }
}

void PairGenerator::self_product(std::span<const LsetEntry> s,
                                 std::uint32_t len) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j) emit(s[i], s[j], len);
  }
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
