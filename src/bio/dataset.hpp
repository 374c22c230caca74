// EstSet: the input universe for clustering.
//
// Following §3.1, the set S = {s_0, ..., s_{2n-1}} contains each EST e_i and
// its reverse complement ē_i, because a gene may lie on either DNA strand.
// We use 0-based string ids (sid): sid 2i is e_i, sid 2i+1 is ē_i.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bio/sequence.hpp"
#include "util/check.hpp"

namespace estclust::bio {

using EstId = std::uint32_t;     ///< index of an EST, 0..n-1
using StringId = std::uint32_t;  ///< index into S, 0..2n-1

/// Immutable collection of n ESTs plus materialized reverse complements.
class EstSet {
 public:
  EstSet() = default;
  explicit EstSet(std::vector<Sequence> ests);

  std::size_t num_ests() const { return ests_.size(); }        ///< n
  std::size_t num_strings() const { return 2 * ests_.size(); }  ///< 2n

  /// Total characters over all ESTs (N in the paper; excludes the
  /// materialized reverse complements).
  std::size_t total_est_chars() const { return total_chars_; }

  /// Total characters over S (2N).
  std::size_t total_string_chars() const { return 2 * total_chars_; }

  /// Average EST length l = N/n (0 when empty).
  double average_length() const;

  const Sequence& est(EstId i) const { return ests_[i]; }

  /// The string s_sid: forward EST for even sid, reverse complement for odd.
  std::string_view str(StringId sid) const;

  /// s_sid as 2-bit codes. Every string starts on a word boundary and a
  /// zero word follows the last one, so PackedView::word_at is valid at
  /// every position of every string.
  PackedView packed(StringId sid) const {
    ESTCLUST_DCHECK(sid < num_strings());
    return PackedView(packed_words_.data() + packed_[sid].word,
                      packed_[sid].size);
  }

  /// EST that string sid derives from.
  static EstId est_of(StringId sid) { return sid / 2; }

  /// True when sid refers to the reverse-complemented form.
  static bool is_rc(StringId sid) { return (sid & 1u) != 0; }

  /// sid of the opposite-orientation string of the same EST.
  static StringId mate(StringId sid) { return sid ^ 1u; }

  static StringId forward_sid(EstId i) { return 2 * i; }
  static StringId rc_sid(EstId i) { return 2 * i + 1; }

 private:
  std::vector<Sequence> ests_;
  std::vector<std::string> rc_;  // rc_[i] = reverse complement of est i
  std::size_t total_chars_ = 0;

  // One 2-bit copy of all 2n strings, read by the GST build (a word at a
  // time) and the pair walk; packed_[sid] locates s_sid in it.
  struct PackedRef {
    std::size_t word = 0;
    std::size_t size = 0;
  };
  std::vector<std::uint64_t> packed_words_;
  std::vector<PackedRef> packed_;
};

}  // namespace estclust::bio
