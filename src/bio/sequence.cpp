#include "bio/sequence.hpp"

#include <algorithm>

#include "bio/alphabet.hpp"
#include "util/check.hpp"

namespace estclust::bio {

std::string reverse_complement(std::string_view s) {
  std::string out;
  out.resize(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = complement_base(s[s.size() - 1 - i]);
  }
  return out;
}

bool all_valid_bases(std::string_view s) {
  for (char c : s) {
    if (!is_valid_base(c)) return false;
  }
  return true;
}

void append_2bit(std::string_view bases, std::vector<std::uint64_t>& words) {
  const std::size_t first = words.size();
  words.resize(first + (bases.size() + 31) / 32);
  // Accumulate each word in a register and store it once instead of
  // re-reading and re-writing the vector element per base.
  for (std::size_t w = first; w < words.size(); ++w) {
    const std::size_t base = (w - first) * 32;
    const std::size_t count = std::min<std::size_t>(32, bases.size() - base);
    std::uint64_t acc = 0;
    for (std::size_t l = 0; l < count; ++l) {
      const int code = encode_base(bases[base + l]);
      ESTCLUST_CHECK_MSG(code >= 0, "invalid base at " << (base + l));
      acc |= static_cast<std::uint64_t>(code) << (l * 2);
    }
    words[w] = acc;
  }
}

PackedSeq::PackedSeq(std::string_view bases) : size_(bases.size()) {
  words_.resize((size_ + 31) / 32, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    int code = encode_base(bases[i]);
    ESTCLUST_CHECK_MSG(code >= 0, "invalid base at " << i);
    words_[i / 32] |= static_cast<std::uint64_t>(code) << ((i % 32) * 2);
  }
}

char PackedSeq::at(std::size_t i) const { return decode_base(code_at(i)); }

int PackedSeq::code_at(std::size_t i) const {
  ESTCLUST_DCHECK(i < size_);
  return static_cast<int>((words_[i / 32] >> ((i % 32) * 2)) & 3);
}

std::string PackedSeq::unpack() const {
  std::string out;
  out.resize(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = at(i);
  return out;
}

}  // namespace estclust::bio
