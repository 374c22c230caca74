#include "bio/sequence.hpp"

#include <algorithm>
#include <cstring>

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

namespace {

// Packed byte -> its four 2-bit codes as four output bytes, little-endian.
// One table lookup replaces a four-deep serial shift chain per byte; this
// sits on the per-alignment fixed cost of the SIMD kernels, where the
// shift-chain version was measurable against short reads.
struct UnpackTable {
  std::uint32_t quad[256];
  constexpr UnpackTable() : quad{} {
    for (unsigned b = 0; b < 256; ++b) {
      quad[b] = (b & 3u) | ((b >> 2) & 3u) << 8 | ((b >> 4) & 3u) << 16 |
                ((b >> 6) & 3u) << 24;
    }
  }
};
constexpr UnpackTable kUnpack;

}  // namespace

void PackedView::unpack_codes(std::uint8_t* dst) const {
  const std::size_t full_words = size_ / 32;
  std::size_t i = 0;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t word = words_[w];
    for (int q = 0; q < 8; ++q) {
      const std::uint32_t four =
          kUnpack.quad[(word >> (q * 8)) & 0xFF];
      std::memcpy(dst + i, &four, 4);
      i += 4;
    }
  }
  if (i < size_) {
    std::uint64_t word = words_[full_words];
    word >>= (i % 32) * 2;
    for (; i < size_; ++i) {
      dst[i] = static_cast<std::uint8_t>(word & 3);
      word >>= 2;
    }
  }
}

PackedView pack_2bit(std::string_view bases, std::vector<std::uint64_t>& words) {
  words.clear();
  append_2bit(bases, words);
  return PackedView(words.data(), bases.size());
}

void append_2bit(std::string_view bases, std::vector<std::uint64_t>& words) {
  const std::size_t first = words.size();
  words.resize(first + (bases.size() + 31) / 32);
  // Accumulate each word in a register and store it once: the obvious
  // `words[i / 32] |= ...` form re-reads and re-writes the vector element
  // per base, which shows up on the SIMD kernels' per-alignment setup.
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
