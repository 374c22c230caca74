#include "pairgen/kmer.hpp"

#include <algorithm>

#include "bio/alphabet.hpp"
#include "gst/builder.hpp"
#include "mpr/clock.hpp"
#include "util/check.hpp"

namespace estclust::pairgen {

namespace {

/// Packs s[pos, pos+k) into a 2-bit-coded word (A=0..T=3, MSB-first so
/// numeric order matches lexicographic order). Returns false if any of
/// the k characters is not ACGT.
bool pack_seed(std::string_view s, std::uint32_t pos, std::uint32_t k,
               std::uint64_t& key) {
  std::uint64_t packed = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    const int code = bio::encode_base(s[pos + i]);
    if (code < 0) return false;
    packed = (packed << 2) | static_cast<std::uint64_t>(code);
  }
  key = packed;
  return true;
}

}  // namespace

KmerPairSource::KmerPairSource(const bio::EstSet& ests,
                               std::vector<std::uint64_t> owned_buckets,
                               std::uint32_t window, std::uint32_t psi)
    : ests_(ests),
      owned_(std::move(owned_buckets)),
      window_(window),
      psi_(psi),
      k_(std::min<std::uint32_t>(psi, 32)) {
  ESTCLUST_CHECK(psi >= window);
  ESTCLUST_CHECK(std::is_sorted(owned_.begin(), owned_.end()));
  std::vector<Entry> entries;
  for (bio::StringId sid = 0; sid < ests_.num_strings(); ++sid) {
    const auto s = ests_.str(sid);
    if (s.size() < k_) continue;
    construction_units_ += s.size();
    for (std::uint32_t pos = 0; pos + k_ <= s.size(); ++pos) {
      // A seed at a maximal match's start shares the anchor's w-prefix
      // (k >= psi >= w), so owned-bucket seeds cover exactly the owned
      // anchors and groups never straddle ranks.
      if (!owns_bucket(gst::bucket_of(s, pos, window_))) continue;
      std::uint64_t key = 0;
      if (!pack_seed(s, pos, k_, key)) continue;
      entries.push_back({key, {sid, pos}});
    }
  }
  entries_indexed_ = entries.size();
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.occ.sid != b.occ.sid) return a.occ.sid < b.occ.sid;
              return a.occ.pos < b.occ.pos;
            });
  construction_units_ += mpr::sort_model_units(entries.size());

  std::vector<gst::SuffixOcc> group;
  std::size_t i = 0;
  while (i < entries.size()) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].key == entries[i].key) ++j;
    if (j - i >= 2) {
      group.clear();
      for (std::size_t g = i; g < j; ++g) group.push_back(entries[g].occ);
      process_group(group);
    }
    i = j;
  }

  std::sort(records_.begin(), records_.end(),
            [](const PromisingPair& x, const PromisingPair& y) {
              if (x.match_len != y.match_len) return x.match_len > y.match_len;
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              if (x.b_rc != y.b_rc) return x.b_rc < y.b_rc;
              if (x.a_pos != y.a_pos) return x.a_pos < y.a_pos;
              return x.b_pos < y.b_pos;
            });
  construction_units_ += mpr::sort_model_units(records_.size());
}

bool KmerPairSource::owns_bucket(std::uint64_t bucket) const {
  return std::binary_search(owned_.begin(), owned_.end(), bucket);
}

void KmerPairSource::process_group(std::span<const gst::SuffixOcc> occs) {
  ++stats_.nodes_processed;
  stats_.lset_work += occs.size();
  construction_units_ += occs.size();
  for (std::size_t i = 0; i < occs.size(); ++i) {
    const auto s1 = ests_.str(occs[i].sid);
    for (std::size_t j = i + 1; j < occs.size(); ++j) {
      const auto s2 = ests_.str(occs[j].sid);
      ++construction_units_;
      // Maximal left extension; if it moves, the match starts before this
      // seed, so the group at the match-start seed owns the record.
      std::uint32_t l1 = occs[i].pos;
      std::uint32_t l2 = occs[j].pos;
      while (l1 > 0 && l2 > 0 && s1[l1 - 1] == s2[l2 - 1]) {
        ++construction_units_;
        --l1;
        --l2;
      }
      if (l1 != occs[i].pos) continue;
      std::uint32_t e1 = occs[i].pos + k_;
      std::uint32_t e2 = occs[j].pos + k_;
      while (e1 < s1.size() && e2 < s2.size() && s1[e1] == s2[e2]) {
        ++construction_units_;
        ++e1;
        ++e2;
      }
      const std::uint32_t len = e1 - l1;
      if (len < psi_) continue;

      // §3.2 normalization and discards, identical to the GST emit rule.
      gst::SuffixOcc lo{occs[i].sid, l1};
      gst::SuffixOcc hi{occs[j].sid, l2};
      if (bio::EstSet::est_of(lo.sid) > bio::EstSet::est_of(hi.sid)) {
        std::swap(lo, hi);
      }
      const bio::EstId a = bio::EstSet::est_of(lo.sid);
      const bio::EstId b = bio::EstSet::est_of(hi.sid);
      if (a == b) {
        ++stats_.discarded_self;
        continue;
      }
      if (bio::EstSet::is_rc(lo.sid)) {
        ++stats_.discarded_orientation;
        continue;
      }
      PromisingPair p;
      p.a = a;
      p.b = b;
      p.b_rc = bio::EstSet::is_rc(hi.sid);
      p.match_len = len;
      p.a_pos = lo.pos;
      p.b_pos = hi.pos;
      records_.push_back(p);
      ++stats_.pairs_emitted;
    }
  }
}

std::size_t KmerPairSource::next_batch(std::size_t max_pairs,
                                       std::vector<PromisingPair>& out) {
  const std::size_t n = std::min(max_pairs, records_.size() - served_);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(records_[served_ + i]);
  }
  served_ += n;
  // One serving unit per pair keeps per-batch pair_op charges flowing at
  // the same per-pair granularity as the GST walk's emission work.
  work_since_take_ += n;
  return n;
}

std::uint64_t KmerPairSource::take_work_units() {
  const std::uint64_t w = work_since_take_;
  work_since_take_ = 0;
  return w;
}

std::uint64_t KmerPairSource::index_bytes() const {
  return entries_indexed_ * sizeof(Entry) +
         records_.capacity() * sizeof(PromisingPair);
}

}  // namespace estclust::pairgen
