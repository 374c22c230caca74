#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "bio/fasta.hpp"
#include "bio/sequence.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace estclust::bio {
namespace {

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

TEST(Alphabet, EncodeDecodeRoundTrip) {
  for (int c = 0; c < kSigma; ++c) {
    EXPECT_EQ(encode_base(decode_base(c)), c);
  }
}

TEST(Alphabet, CodesAreLexicographic) {
  EXPECT_LT(encode_base('A'), encode_base('C'));
  EXPECT_LT(encode_base('C'), encode_base('G'));
  EXPECT_LT(encode_base('G'), encode_base('T'));
}

TEST(Alphabet, LowercaseAccepted) {
  EXPECT_EQ(encode_base('a'), encode_base('A'));
  EXPECT_EQ(encode_base('t'), encode_base('T'));
}

TEST(Alphabet, InvalidCharactersRejected) {
  EXPECT_EQ(encode_base('N'), -1);
  EXPECT_EQ(encode_base('$'), -1);
  EXPECT_FALSE(is_valid_base('x'));
}

TEST(Alphabet, ComplementIsWatsonCrick) {
  EXPECT_EQ(complement_base('A'), 'T');
  EXPECT_EQ(complement_base('T'), 'A');
  EXPECT_EQ(complement_base('C'), 'G');
  EXPECT_EQ(complement_base('G'), 'C');
}

TEST(Alphabet, LambdaCodeIsOutsideSigma) {
  EXPECT_EQ(kLambdaCode, kSigma);
  EXPECT_EQ(kNumLsetCodes, 5);
}

TEST(ReverseComplement, KnownExample) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(reverse_complement("AACG"), "CGTT");
  EXPECT_EQ(reverse_complement("A"), "T");
}

TEST(ReverseComplement, EmptyString) {
  EXPECT_EQ(reverse_complement(""), "");
}

TEST(ReverseComplement, IsAnInvolution) {
  Prng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::string s = random_dna(rng, 1 + rng.uniform(200));
    EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
  }
}

TEST(ReverseComplement, PreservesLength) {
  Prng rng(2);
  std::string s = random_dna(rng, 137);
  EXPECT_EQ(reverse_complement(s).size(), s.size());
}

TEST(PackedSeq, RoundTripsArbitrarySequences) {
  Prng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::string s = random_dna(rng, rng.uniform(300));
    PackedSeq p(s);
    EXPECT_EQ(p.size(), s.size());
    EXPECT_EQ(p.unpack(), s);
  }
}

TEST(PackedSeq, PerBaseAccess) {
  PackedSeq p("GATTACA");
  EXPECT_EQ(p.at(0), 'G');
  EXPECT_EQ(p.at(3), 'T');
  EXPECT_EQ(p.at(6), 'A');
  EXPECT_EQ(p.code_at(1), encode_base('A'));
}

TEST(PackedSeq, UsesQuarterByteStorage) {
  std::string s(1024, 'C');
  PackedSeq p(s);
  EXPECT_LE(p.storage_bytes(), 1024 / 4 + 16);
}

TEST(PackedSeq, CrossesWordBoundaries) {
  Prng rng(4);
  std::string s = random_dna(rng, 67);  // spans three 32-base words
  PackedSeq p(s);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(p.at(i), s[i]);
}

TEST(PackedSeq, ViewAgreesWithPerBaseAccess) {
  Prng rng(7);
  const std::string s = random_dna(rng, 75);
  PackedSeq p(s);
  PackedView v = p.view();
  ASSERT_EQ(v.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(v.code_at(i), p.code_at(i)) << i;
  }
}

TEST(PackedView, WordAtMatchesPerBaseCodes) {
  // word_at(i) holds the codes from i on, base i lowest; only the first
  // min(32, size - i) of them are specified.
  Prng rng(8);
  std::vector<std::uint64_t> words;
  for (std::size_t len : {std::size_t{1}, std::size_t{31}, std::size_t{32},
                          std::size_t{33}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{400}}) {
    const std::string s = random_dna(rng, len);
    words.clear();
    append_2bit(s, words);
    words.push_back(0);  // the readable word word_at requires
    const PackedView v(words.data(), s.size());
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t n = std::min<std::size_t>(32, len - i);
      std::uint64_t expected = 0;
      for (std::size_t k = 0; k < n; ++k) {
        expected |= static_cast<std::uint64_t>(v.code_at(i + k)) << (2 * k);
      }
      const std::uint64_t mask = n == 32 ? ~0ULL : (1ULL << (2 * n)) - 1;
      ASSERT_EQ(v.word_at(i) & mask, expected) << "len " << len << " pos " << i;
    }
  }
}

TEST(EstSet, PackedCopyMatchesStrings) {
  // Forward and reverse-complement strings of awkward lengths; the last
  // string's last word_at reads reach the pad word.
  Prng rng(9);
  std::vector<Sequence> seqs;
  for (std::size_t len : {std::size_t{1}, std::size_t{32}, std::size_t{33},
                          std::size_t{70}, std::size_t{64}}) {
    seqs.push_back({"e" + std::to_string(len), random_dna(rng, len)});
  }
  const EstSet set(std::move(seqs));
  for (StringId sid = 0; sid < set.num_strings(); ++sid) {
    const std::string_view s = set.str(sid);
    const PackedView v = set.packed(sid);
    ASSERT_EQ(v.size(), s.size()) << "sid " << sid;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::size_t n = std::min<std::size_t>(32, s.size() - i);
      std::uint64_t expected = 0;
      for (std::size_t k = 0; k < n; ++k) {
        expected |= static_cast<std::uint64_t>(encode_base(s[i + k]))
                    << (2 * k);
      }
      const std::uint64_t mask = n == 32 ? ~0ULL : (1ULL << (2 * n)) - 1;
      ASSERT_EQ(v.word_at(i) & mask, expected)
          << "sid " << sid << " pos " << i;
    }
  }
}

TEST(Fasta, ParsesMultiRecordInput) {
  std::istringstream in(">e1 desc ignored\nACGT\nACGT\n>e2\nTTTT\n");
  auto seqs = read_fasta(in);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0].id, "e1");
  EXPECT_EQ(seqs[0].bases, "ACGTACGT");
  EXPECT_EQ(seqs[1].id, "e2");
  EXPECT_EQ(seqs[1].bases, "TTTT");
}

TEST(Fasta, HandlesCrLfAndBlankLines) {
  std::istringstream in(">a\r\nAC\r\n\r\nGT\r\n");
  auto seqs = read_fasta(in);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0].bases, "ACGT");
}

TEST(Fasta, LowercaseNormalized) {
  std::istringstream in(">a\nacgt\n");
  auto seqs = read_fasta(in);
  EXPECT_EQ(seqs[0].bases, "ACGT");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  std::istringstream in("ACGT\n>a\nACGT\n");
  EXPECT_THROW(read_fasta(in), CheckError);
}

TEST(Fasta, RejectsInvalidBases) {
  std::istringstream in(">a\nACGT\n>est_17 clone\nACGT\nACNT\n");
  try {
    read_fasta(in);
    FAIL() << "an invalid base was accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'est_17'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  }
}

TEST(Fasta, RejectsEmptyRecord) {
  std::istringstream in(">a\nACGT\n>est_9 clone\n\n>b\nACGT\n");
  try {
    read_fasta(in);
    FAIL() << "a record without bases was accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'est_9'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
}

TEST(Fasta, RejectsDuplicateIds) {
  // Clusters are written as record ids, so two records named est_4 would
  // make the output ambiguous: the error names the id and both headers.
  std::istringstream in(">est_4 clone\nACGT\n>b\nACGT\n>est_4\nGGCC\n");
  try {
    read_fasta(in);
    FAIL() << "a repeated record id was accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'est_4'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lines 1 and 5"), std::string::npos) << msg;
  }
}

TEST(Fasta, EmptyInputYieldsNoRecords) {
  std::istringstream in("");
  EXPECT_TRUE(read_fasta(in).empty());
}

TEST(Fasta, WriteReadRoundTrip) {
  std::vector<Sequence> seqs = {{"x", "ACGTACGTACGT"}, {"y", "TT"}};
  std::ostringstream out;
  write_fasta(out, seqs, 5);  // force wrapping
  std::istringstream in(out.str());
  auto back = read_fasta(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, seqs[0].id);
  EXPECT_EQ(back[0].bases, seqs[0].bases);
  EXPECT_EQ(back[1].bases, seqs[1].bases);
}

TEST(Fasta, FileRoundTrip) {
  std::string path = testing::TempDir() + "/estclust_fasta_test.fa";
  std::vector<Sequence> seqs = {{"r1", "GATTACA"}};
  write_fasta_file(path, seqs);
  auto back = read_fasta_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].bases, "GATTACA");
}

TEST(Fasta, MissingFileThrows) {
  EXPECT_THROW(read_fasta_file("/nonexistent/path/foo.fa"), CheckError);
}

TEST(EstSet, BasicAccounting) {
  EstSet set({{"a", "ACGT"}, {"b", "GG"}});
  EXPECT_EQ(set.num_ests(), 2u);
  EXPECT_EQ(set.num_strings(), 4u);
  EXPECT_EQ(set.total_est_chars(), 6u);
  EXPECT_EQ(set.total_string_chars(), 12u);
  EXPECT_DOUBLE_EQ(set.average_length(), 3.0);
}

TEST(EstSet, EmptySet) {
  EstSet set;
  EXPECT_EQ(set.num_ests(), 0u);
  EXPECT_DOUBLE_EQ(set.average_length(), 0.0);
}

TEST(EstSet, StringIdsInterleaveForwardAndRc) {
  EstSet set(std::vector<Sequence>{{"a", "AACG"}});
  EXPECT_EQ(set.str(0), "AACG");
  EXPECT_EQ(set.str(1), "CGTT");
  EXPECT_FALSE(EstSet::is_rc(0));
  EXPECT_TRUE(EstSet::is_rc(1));
  EXPECT_EQ(EstSet::est_of(0), 0u);
  EXPECT_EQ(EstSet::est_of(1), 0u);
  EXPECT_EQ(EstSet::mate(0), 1u);
  EXPECT_EQ(EstSet::mate(1), 0u);
  EXPECT_EQ(EstSet::forward_sid(0), 0u);
  EXPECT_EQ(EstSet::rc_sid(0), 1u);
}

TEST(EstSet, SecondEstSids) {
  EstSet set({{"a", "AAAA"}, {"b", "ACGG"}});
  EXPECT_EQ(set.str(2), "ACGG");
  EXPECT_EQ(set.str(3), "CCGT");
  EXPECT_EQ(EstSet::est_of(3), 1u);
}

TEST(EstSet, RejectsEmptyEst) {
  EXPECT_THROW(EstSet(std::vector<Sequence>{{"a", ""}}), CheckError);
}

TEST(EstSet, RejectsInvalidBases) {
  EXPECT_THROW(EstSet(std::vector<Sequence>{{"a", "ACNT"}}), CheckError);
}

}  // namespace
}  // namespace estclust::bio
