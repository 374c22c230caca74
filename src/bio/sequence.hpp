// DNA sequence value type, reverse complementation and 2-bit packing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace estclust::bio {

/// A named DNA sequence. Bases are stored uppercase; construction validates
/// the alphabet.
struct Sequence {
  std::string id;
  std::string bases;
};

/// Returns the reverse complement of `s` (uppercase ACGT in, uppercase out).
std::string reverse_complement(std::string_view s);

/// True iff every character is one of ACGTacgt.
bool all_valid_bases(std::string_view s);

/// Non-owning view over 2-bit-packed bases (32 per word, LSB-first). The
/// GST refinement compares suffixes through it, 32 bases per word.
class PackedView {
 public:
  PackedView() = default;
  PackedView(const std::uint64_t* words, std::size_t size)
      : words_(words), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Code 0..3 at position i.
  int code_at(std::size_t i) const {
    return static_cast<int>((words_[i / 32] >> ((i % 32) * 2)) & 3);
  }

  /// The 32 codes starting at position i < size(), base i in the low two
  /// bits. Codes past size() are unspecified. Reads the word after i's, so
  /// a readable word must follow the view's last one (EstSet::packed
  /// guarantees it).
  std::uint64_t word_at(std::size_t i) const {
    const std::size_t k = i / 32;
    const unsigned shift = static_cast<unsigned>(i % 32) * 2;
    // The split shift keeps shift == 0 defined: the high word drops out.
    return (words_[k] >> shift) | ((words_[k + 1] << 1) << (63 - shift));
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

/// Appends the 2-bit words of `bases` to `words`, starting a fresh word.
void append_2bit(std::string_view bases, std::vector<std::uint64_t>& words);

/// Space-efficient 2-bit/base storage. Used by the GST layer's space
/// accounting and by tests that check the O(N) memory contract.
class PackedSeq {
 public:
  PackedSeq() = default;
  explicit PackedSeq(std::string_view bases);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Base character at position i (decoded).
  char at(std::size_t i) const;

  /// Code 0..3 at position i.
  int code_at(std::size_t i) const;

  /// Decode the whole sequence.
  std::string unpack() const;

  /// Kernel-facing view over the packed words.
  PackedView view() const { return PackedView(words_.data(), size_); }

  /// Bytes of heap storage used.
  std::size_t storage_bytes() const { return words_.capacity() * 8; }

 private:
  std::vector<std::uint64_t> words_;  // 32 bases per word
  std::size_t size_ = 0;
};

}  // namespace estclust::bio
