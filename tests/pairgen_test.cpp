// Pair-stream contract tests, instantiated once per PairSource backend by
// tests/CMakeLists.txt (add_pairsource_test): the same binary compiles
// with ESTCLUST_PAIRSOURCE_BACKEND set to "gst" or "kmer" and every
// interface-level property below must hold for both. A handful of
// GST-internal guarantees (lset space bounds, Corollary 2, the pinned
// record stream) skip on kmer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "bio/alphabet.hpp"
#include "bio/dataset.hpp"
#include "bio/fasta.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "pairgen/generator.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#ifndef ESTCLUST_PAIRSOURCE_BACKEND
#define ESTCLUST_PAIRSOURCE_BACKEND "gst"
#endif

#ifndef ESTCLUST_TEST_DATA_DIR
#error "ESTCLUST_TEST_DATA_DIR must be defined by the build"
#endif

namespace estclust::pairgen {
namespace {

using bio::EstSet;
using bio::Sequence;

Backend test_backend() {
  auto b = parse_backend(ESTCLUST_PAIRSOURCE_BACKEND);
  EXPECT_TRUE(b.has_value());
  return b.value_or(Backend::kGst);
}

bool gst_backend() { return test_backend() == Backend::kGst; }

/// The backend under test over the buckets `rank` owns when ranks
/// [first_owner_rank, p) share them at window w (by default one rank that
/// owns them all): the GST walk over the rank's forest, kmer over its
/// bucket ids alone. The walk borrows its forest, so the forest lives
/// beside the source, and the pair is neither copied nor moved.
class TestSource {
 public:
  TestSource(const EstSet& ests, std::uint32_t w, std::uint32_t psi,
             int p = 1, int first_owner_rank = 0, int rank = 0) {
    const gst::GstConfig cfg{w};
    if (gst_backend()) {
      forest_ = gst::rebuild_rank_forest(ests, cfg, p, first_owner_rank, rank);
      source_ = make_pair_source(Backend::kGst, ests, forest_, w, psi);
    } else {
      source_ = make_pair_source_for_buckets(
          test_backend(), ests,
          gst::owned_bucket_ids(ests, cfg, p, first_owner_rank, rank), w,
          psi);
    }
  }
  TestSource(const TestSource&) = delete;
  TestSource& operator=(const TestSource&) = delete;

  PairSource& operator*() const { return *source_; }
  PairSource* operator->() const { return source_.get(); }

 private:
  std::vector<gst::Tree> forest_;
  std::unique_ptr<PairSource> source_;
};

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

/// Longest common substring length (reference DP).
std::size_t lcs_len(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      cur[j] = (a[i - 1] == b[j - 1]) ? prev[j - 1] + 1 : 0;
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

/// All *distinct* maximal common substrings of length >= minlen.
std::set<std::string> maximal_common_substrings(std::string_view a,
                                                std::string_view b,
                                                std::size_t minlen) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (a[i] != b[j]) continue;
      // Left-maximal start?
      if (i > 0 && j > 0 && a[i - 1] == b[j - 1]) continue;
      std::size_t len = 0;
      while (i + len < a.size() && j + len < b.size() &&
             a[i + len] == b[j + len]) {
        ++len;
      }
      if (len >= minlen) out.insert(std::string(a.substr(i, len)));
    }
  }
  return out;
}

/// Generates ESTs with deliberate overlap structure: windows of a shared
/// "gene" string, some reverse complemented, plus unrelated noise ESTs.
EstSet overlap_ests(Prng& rng, std::size_t n_related, std::size_t n_noise,
                    std::size_t gene_len = 220, std::size_t est_len = 80) {
  std::string gene = random_dna(rng, gene_len);
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < n_related; ++i) {
    std::size_t start = rng.uniform(gene_len - est_len);
    std::string est = gene.substr(start, est_len);
    if (rng.bernoulli(0.4)) est = bio::reverse_complement(est);
    seqs.push_back({"r" + std::to_string(i), est});
  }
  for (std::size_t i = 0; i < n_noise; ++i) {
    seqs.push_back({"n" + std::to_string(i), random_dna(rng, est_len)});
  }
  return EstSet(std::move(seqs));
}

/// `ests` with a poly-A tail of 20-50 bases on about half the ESTs and a
/// poly-T head on a quarter, as in real EST reads. A tail longer than psi
/// puts one string below a node many times over, so the GST walk's
/// duplicate elimination drops entries.
EstSet with_poly_a(Prng& rng, const EstSet& ests) {
  std::vector<Sequence> seqs;
  for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
    Sequence s = ests.est(i);
    if (rng.bernoulli(0.5)) s.bases += std::string(20 + rng.uniform(31), 'A');
    if (rng.bernoulli(0.25)) {
      s.bases = std::string(20 + rng.uniform(31), 'T') + s.bases;
    }
    seqs.push_back(std::move(s));
  }
  return EstSet(std::move(seqs));
}

std::vector<PromisingPair> drain(PairSource& gen,
                                 std::size_t batch = 1000000) {
  std::vector<PromisingPair> out;
  while (gen.next_batch(batch, out) > 0) {
  }
  return out;
}

TEST(PairSource, RequiresPsiAtLeastWindow) {
  EstSet ests(std::vector<Sequence>{{"a", "ACGTACGTACGT"}});
  EXPECT_THROW(TestSource(ests, 4, 3), CheckError);
}

TEST(PairSource, EmitsSharedSubstringPair) {
  // Two ESTs overlap in a 20-base core.
  Prng rng(1);
  std::string core = random_dna(rng, 20);
  EstSet ests({{"a", random_dna(rng, 30) + core},
               {"b", core + random_dna(rng, 30)}});
  TestSource gen(ests, 4, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  bool found = false;
  for (const auto& p : pairs) {
    if (p.a == 0 && p.b == 1 && !p.b_rc) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PairSource, NoPairsWithoutSharedSubstrings) {
  // Disjoint alphab1et usage guarantees no common 8-mer.
  EstSet ests({{"a", std::string(40, 'A') + std::string(40, 'C')},
               {"b", std::string(40, 'G') + std::string(40, 'T')}});
  // NB: revcomp of b is AAAA..CCCC-like; "b" rc = AAAA(40)CCCC? No:
  // revcomp("G^40 T^40") = "A^40 C^40", which matches EST a exactly!
  // That is intentional: the pair must be found in rc orientation.
  TestSource gen(ests, 4, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_EQ(p.a, 0u);
    EXPECT_EQ(p.b, 1u);
    EXPECT_TRUE(p.b_rc);
  }
}

TEST(PairSource, TrulyDisjointYieldsNothing) {
  EstSet ests({{"a", std::string(60, 'A')},
               {"b", std::string(60, 'C')}});
  // rc(b) = G^60; no common 4-mer with A^60 in any orientation.
  TestSource gen(ests, 4, 8);
  auto pairs = drain(*gen);
  EXPECT_TRUE(pairs.empty());
}

TEST(PairSource, ReverseComplementOverlapDetected) {
  Prng rng(2);
  std::string core = random_dna(rng, 24);
  EstSet ests({{"a", random_dna(rng, 20) + core + random_dna(rng, 20)},
               {"b", random_dna(rng, 15) + bio::reverse_complement(core) +
                         random_dna(rng, 15)}});
  TestSource gen(ests, 4, 12);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_TRUE(p.b_rc);
  }
}

TEST(PairSource, AnchorsAreValidMaximalMatches) {
  Prng rng(3);
  EstSet ests = overlap_ests(rng, 8, 3);
  TestSource gen(ests, 4, 12);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    auto a = ests.str(bio::EstSet::forward_sid(p.a));
    auto b = ests.str(p.b_rc ? bio::EstSet::rc_sid(p.b)
                             : bio::EstSet::forward_sid(p.b));
    ASSERT_LE(p.a_pos + p.match_len, a.size());
    ASSERT_LE(p.b_pos + p.match_len, b.size());
    // Lemma 1: the anchor is a common substring...
    EXPECT_EQ(a.substr(p.a_pos, p.match_len), b.substr(p.b_pos, p.match_len));
    // ...that is left-maximal...
    if (p.a_pos > 0 && p.b_pos > 0) {
      EXPECT_NE(a[p.a_pos - 1], b[p.b_pos - 1]);
    }
    // ...and right-maximal.
    if (p.a_pos + p.match_len < a.size() &&
        p.b_pos + p.match_len < b.size()) {
      EXPECT_NE(a[p.a_pos + p.match_len], b[p.b_pos + p.match_len]);
    }
  }
}

TEST(PairSource, MatchesBruteForcePromisingPairs) {
  // Lemma 3 both directions at EST granularity: the set of generated
  // (a, b) pairs equals the set of pairs with LCS >= psi in some
  // orientation — for every backend.
  for (std::uint64_t seed : {10, 11, 12, 13}) {
    Prng rng(seed);
    EstSet ests = overlap_ests(rng, 7, 4);
    const std::uint32_t psi = 14;
    TestSource gen(ests, 4, psi);
    auto pairs = drain(*gen);

    std::set<std::pair<bio::EstId, bio::EstId>> generated;
    for (const auto& p : pairs) generated.insert({p.a, p.b});

    std::set<std::pair<bio::EstId, bio::EstId>> expected;
    for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
      for (bio::EstId j = i + 1; j < ests.num_ests(); ++j) {
        auto ei = ests.str(bio::EstSet::forward_sid(i));
        auto ej = ests.str(bio::EstSet::forward_sid(j));
        auto ej_rc = ests.str(bio::EstSet::rc_sid(j));
        if (lcs_len(ei, ej) >= psi || lcs_len(ei, ej_rc) >= psi) {
          expected.insert({i, j});
        }
      }
    }
    EXPECT_EQ(generated, expected) << "seed " << seed;
  }
}

TEST(PairSource, PairsStreamInDecreasingMatchLength) {
  Prng rng(20);
  EstSet ests = overlap_ests(rng, 10, 2);
  TestSource gen(ests, 3, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i].match_len, pairs[i - 1].match_len);
  }
}

TEST(PairSource, FirstPairHasGloballyLongestMatch) {
  Prng rng(21);
  EstSet ests = overlap_ests(rng, 8, 2);
  const std::uint32_t psi = 10;
  TestSource gen(ests, 3, psi);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());

  std::size_t best = 0;
  for (bio::EstId i = 0; i < ests.num_ests(); ++i) {
    for (bio::EstId j = i + 1; j < ests.num_ests(); ++j) {
      auto ei = ests.str(bio::EstSet::forward_sid(i));
      best = std::max(best,
                      lcs_len(ei, ests.str(bio::EstSet::forward_sid(j))));
      best = std::max(best, lcs_len(ei, ests.str(bio::EstSet::rc_sid(j))));
    }
  }
  EXPECT_EQ(pairs.front().match_len, best);
}

TEST(PairGenerator, EmissionCountBoundedByDistinctMaximalSubstrings) {
  // Corollary 2 is a guarantee of the GST walk's per-node duplicate
  // elimination; kmer emits one record per occurrence pair,
  // which a repeated substring can push past the distinct-string bound.
  // The poly-A library is the one where duplicate elimination drops
  // strings.
  if (!gst_backend()) GTEST_SKIP() << "GST-specific bound";
  Prng rng(22);
  const EstSet plain = overlap_ests(rng, 6, 2, 150, 60);
  for (const EstSet& ests : {plain, with_poly_a(rng, plain)}) {
    const std::uint32_t psi = 12;
    auto forest = gst::build_forest_sequential(ests, 4);
    PairGenerator gen(ests, forest, psi);
    auto pairs = drain(gen);

    std::map<std::tuple<bio::EstId, bio::EstId, bool>, std::size_t> counts;
    for (const auto& p : pairs) ++counts[{p.a, p.b, p.b_rc}];
    for (const auto& [key, count] : counts) {
      auto [a, b, rc] = key;
      auto sa = ests.str(bio::EstSet::forward_sid(a));
      auto sb = ests.str(rc ? bio::EstSet::rc_sid(b)
                            : bio::EstSet::forward_sid(b));
      auto maximal = maximal_common_substrings(sa, sb, psi);
      EXPECT_LE(count, maximal.size())
          << "pair (" << a << "," << b << ",rc=" << rc << ")";
    }
  }
}

TEST(PairSource, BatchingIsEquivalentToDraining) {
  Prng rng(23);
  EstSet ests = overlap_ests(rng, 9, 2);
  TestSource big(ests, 3, 10);
  auto all = drain(*big);

  TestSource small(ests, 3, 10);
  std::vector<PromisingPair> collected;
  while (small->next_batch(7, collected) > 0) {
  }
  ASSERT_EQ(collected.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(collected[i].a, all[i].a);
    EXPECT_EQ(collected[i].b, all[i].b);
    EXPECT_EQ(collected[i].b_rc, all[i].b_rc);
    EXPECT_EQ(collected[i].match_len, all[i].match_len);
  }
}

/// Seed-parameterized stream properties. The master's flow control may
/// slice the stream arbitrarily, so these invariants must hold for every
/// batch size, not just the defaults the other tests use — and for every
/// backend, since the drivers are backend-agnostic.
class PairStreamProperty : public testing::TestWithParam<std::uint64_t> {
 protected:
  void check_stream(const EstSet& ests, std::uint32_t psi) {
    TestSource ref_gen(ests, 3, psi);
    auto reference = drain(*ref_gen);

    // Non-increasing match length: the on-demand stream honours the
    // decreasing-overlap-strength order of §3.2.
    for (std::size_t i = 1; i < reference.size(); ++i) {
      EXPECT_LE(reference[i].match_len, reference[i - 1].match_len)
          << "seed " << GetParam() << " index " << i;
    }

    // Duplicate-free: one emission per (pair, orientation, anchor) record.
    std::set<std::tuple<bio::EstId, bio::EstId, bool, std::uint32_t,
                        std::uint32_t, std::uint32_t>>
        seen;
    for (const auto& p : reference) {
      EXPECT_TRUE(
          seen.insert({p.a, p.b, p.b_rc, p.a_pos, p.b_pos, p.match_len})
              .second)
          << "seed " << GetParam() << ": duplicate record (" << p.a << ","
          << p.b << ")";
    }

    // Batch-size invariance: any slicing yields the identical record
    // sequence.
    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{17}, std::size_t{256}}) {
      TestSource gen(ests, 3, psi);
      std::vector<PromisingPair> got;
      while (gen->next_batch(batch, got) > 0) {
      }
      ASSERT_EQ(got.size(), reference.size())
          << "seed " << GetParam() << " batch " << batch;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].a == reference[i].a &&
                    got[i].b == reference[i].b &&
                    got[i].b_rc == reference[i].b_rc &&
                    got[i].match_len == reference[i].match_len &&
                    got[i].a_pos == reference[i].a_pos &&
                    got[i].b_pos == reference[i].b_pos)
            << "seed " << GetParam() << " batch " << batch << " index "
            << i;
      }
    }
  }
};

TEST_P(PairStreamProperty, StreamIsSortedDuplicateFreeAndBatchInvariant) {
  Prng rng(GetParam());
  EstSet ests = overlap_ests(rng, 6 + rng.uniform(8), rng.uniform(4),
                             180 + rng.uniform(120), 70 + rng.uniform(40));
  const std::uint32_t psi = 10 + static_cast<std::uint32_t>(rng.uniform(8));
  check_stream(ests, psi);
}

TEST_P(PairStreamProperty,
       PolyATailedStreamIsSortedDuplicateFreeAndBatchInvariant) {
  // The same libraries with poly-A tails: duplicate elimination drops
  // entries.
  Prng rng(GetParam());
  const EstSet plain =
      overlap_ests(rng, 6 + rng.uniform(8), rng.uniform(4),
                   180 + rng.uniform(120), 70 + rng.uniform(40));
  const std::uint32_t psi = 10 + static_cast<std::uint32_t>(rng.uniform(8));
  check_stream(with_poly_a(rng, plain), psi);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairStreamProperty,
                         testing::Range<std::uint64_t>(40, 52));

TEST(PairSource, NextBatchRespectsLimit) {
  Prng rng(24);
  EstSet ests = overlap_ests(rng, 10, 0);
  TestSource gen(ests, 3, 10);
  std::vector<PromisingPair> out;
  std::size_t got = gen->next_batch(3, out);
  EXPECT_LE(got, 3u);
  EXPECT_EQ(out.size(), got);
}

TEST(PairSource, ExhaustedAfterDrain) {
  Prng rng(25);
  EstSet ests = overlap_ests(rng, 5, 1);
  TestSource gen(ests, 3, 10);
  EXPECT_FALSE(gen->exhausted());
  drain(*gen);
  EXPECT_TRUE(gen->exhausted());
  std::vector<PromisingPair> out;
  EXPECT_EQ(gen->next_batch(10, out), 0u);
}

TEST(PairSource, NoSelfPairsEverEmitted) {
  // An EST with an inverted repeat: its forward and rc strings share the
  // repeat, producing raw (e_i, ē_i) pairs that must be discarded as self
  // pairs. (A direct repeat would not do: duplicate elimination keeps one
  // occurrence per string, so a string never pairs with itself.)
  Prng rng(26);
  std::string repeat = random_dna(rng, 30);
  EstSet ests({{"a", repeat + random_dna(rng, 10) +
                         bio::reverse_complement(repeat)},
               {"b", random_dna(rng, 70)}});
  TestSource gen(ests, 4, 10);
  auto pairs = drain(*gen);
  for (const auto& p : pairs) EXPECT_NE(p.a, p.b);
  EXPECT_GT(gen->stats().discarded_self, 0u);
}

TEST(PairSource, OrientationRuleKeepsForwardFirstString) {
  Prng rng(27);
  EstSet ests = overlap_ests(rng, 10, 0);
  TestSource gen(ests, 3, 10);
  auto pairs = drain(*gen);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) EXPECT_LT(p.a, p.b);
  // Roughly half of all raw pairs get discarded by the orientation rule.
  EXPECT_GT(gen->stats().discarded_orientation, 0u);
}

TEST(PairSource, StatsAddUp) {
  Prng rng(28);
  EstSet ests = overlap_ests(rng, 8, 2);
  TestSource gen(ests, 3, 10);
  auto pairs = drain(*gen);
  EXPECT_EQ(gen->stats().pairs_emitted, pairs.size());
  EXPECT_GT(gen->stats().nodes_processed, 0u);
  EXPECT_GT(gen->stats().lset_work, 0u);
}

TEST(PairSource, WorkUnitsAreConsumedByTake) {
  Prng rng(29);
  EstSet ests = overlap_ests(rng, 6, 1);
  TestSource gen(ests, 3, 10);
  drain(*gen);
  EXPECT_GT(gen->take_work_units(), 0u);
  EXPECT_EQ(gen->take_work_units(), 0u);  // second take: nothing new
}

TEST(PairSource, ConstructionUnitsAndIndexBytesAreStable) {
  // The driver charges construction_sort_units to the virtual clock right
  // after building the source, so the value must be deterministic and
  // must not drain away with the stream.
  Prng rng(31);
  EstSet ests = overlap_ests(rng, 8, 2);
  TestSource gen(ests, 3, 10);
  const std::uint64_t units = gen->construction_sort_units();
  EXPECT_GT(units, 0u);
  TestSource again(ests, 3, 10);
  EXPECT_EQ(again->construction_sort_units(), units);
  drain(*gen);
  EXPECT_EQ(gen->construction_sort_units(), units);
  EXPECT_GT(gen->index_bytes(), 0u);
}

TEST(PairGenerator, HeapIsLinearInOccurrencesAtAnyCoverage) {
  // The walk keeps no lsets: besides the borrowed forest it holds the
  // class masks (a byte per occurrence), the walk order (12 bytes per node
  // of depth >= psi but one-occurrence leaves), per-tree offsets, the
  // removals and the lists of the node at hand. Lset copies would grow
  // with coverage; two libraries of one gene, at coverage 2 and 8, must
  // fit the same bound per occurrence and per node of depth >= psi.
  if (!gst_backend()) GTEST_SKIP() << "GST walk storage";
  constexpr std::uint32_t kPsi = 12;
  constexpr std::size_t kBytesPerOccurrence = 4;
  for (std::size_t ests_per_gene : {8, 32}) {
    Prng rng(60);
    const EstSet ests = overlap_ests(rng, ests_per_gene, 0, 400, 100);
    const auto forest = gst::build_forest_sequential(ests, 4);
    std::size_t occurrences = 0;
    std::size_t ordered = 0;
    for (const auto& t : forest) {
      occurrences += t.occs.size();
      for (std::uint32_t v = 0; v < t.size(); ++v) {
        if (t.depth(v) >= kPsi) ++ordered;
      }
    }
    PairGenerator gen(ests, forest, kPsi);
    std::vector<PromisingPair> out;
    std::size_t peak = gen.heap_bytes();
    while (gen.next_batch(1, out) > 0) {
      peak = std::max(peak, gen.heap_bytes());
      out.clear();
    }
    EXPECT_GT(gen.stats().pairs_emitted, 0u);
    EXPECT_LE(peak, kBytesPerOccurrence * occurrences + 8 * ordered)
        << ests_per_gene << " ESTs per gene: " << occurrences
        << " occurrences, " << ordered << " ordered nodes";
  }
}

/// FNV-1a over 64-bit words.
void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool update_golden() {
  const char* v = std::getenv("ESTCLUST_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

TEST(PairGenerator, GoldenPairStream) {
  // Pins the GST walk's exact record stream — every field of every pair,
  // in emission order, including ties at equal match length — plus its
  // GenStats and charged work, at the cluster goldens' w = 6, psi = 24.
  // The cluster goldens only see the order through union-find skips.
  // golden_repeats (poly-A tails, microsatellites, duplicated segments;
  // make_golden_repeats.py) is the fixture in which duplicate elimination
  // drops strings: 1,876 of its occurrences leave the lsets below a node
  // of depth >= psi, where the other two fixtures drop none.
  if (!gst_backend()) GTEST_SKIP() << "pins the GST walk";
  const std::string data_dir = ESTCLUST_TEST_DATA_DIR;
  const std::string golden_path = data_dir + "/golden_pairstream.gst.txt";
  std::ostringstream actual;
  for (const char* fixture :
       {"golden_small", "golden_noisy", "golden_repeats"}) {
    EstSet ests(bio::read_fasta_file(data_dir + "/" + fixture + ".fasta"));
    auto forest = gst::build_forest_sequential(ests, 6);
    PairGenerator gen(ests, forest, 24);
    std::vector<PromisingPair> out;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::uint64_t pairs = 0;
    std::uint64_t work = 0;
    while (gen.next_batch(20, out) > 0) {
      work += gen.take_work_units();
      for (const auto& p : out) {
        for (std::uint64_t field :
             {std::uint64_t{p.a}, std::uint64_t{p.b}, std::uint64_t{p.b_rc},
              std::uint64_t{p.match_len}, std::uint64_t{p.a_pos},
              std::uint64_t{p.b_pos}}) {
          fnv1a(digest, field);
        }
      }
      pairs += out.size();
      out.clear();
    }
    work += gen.take_work_units();
    const GenStats& s = gen.stats();
    actual << fixture << " pairs=" << pairs << " digest=" << std::hex
           << std::setw(16) << std::setfill('0') << digest << std::dec
           << " pairs_emitted=" << s.pairs_emitted
           << " discarded_orientation=" << s.discarded_orientation
           << " discarded_self=" << s.discarded_self
           << " nodes_processed=" << s.nodes_processed
           << " lset_work=" << s.lset_work << " work_units=" << work << '\n';
  }
  if (update_golden()) {
    std::ofstream file(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << golden_path;
    file << actual.str();
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  EXPECT_EQ(actual.str(), read_text(golden_path))
      << "GST pair stream drifted (ESTCLUST_UPDATE_GOLDEN=1 regenerates "
         "after an intended change)";
}

TEST(PairSource, EmptyForest) {
  // A rank that owns no bucket: an empty forest for the GST walk, an empty
  // bucket list for kmer.
  EstSet ests(std::vector<Sequence>{{"a", "ACGT"}});
  const std::vector<gst::Tree> forest;
  auto gen = gst_backend()
                 ? make_pair_source(Backend::kGst, ests, forest, 4, 8)
                 : make_pair_source_for_buckets(test_backend(), ests, {}, 4, 8);
  EXPECT_TRUE(gen->exhausted());
}

TEST(PairSource, IdenticalEstsPairViaLambdaLeaf) {
  // Two identical ESTs: the whole-string suffix of each is the same string,
  // coalescing into one leaf whose l_λ has both -> λ×λ product emits them
  // (kmer finds the same anchor by whole-string extension).
  EstSet ests({{"a", "ACGTACGTACGTACGT"}, {"b", "ACGTACGTACGTACGT"}});
  TestSource gen(ests, 4, 16);
  auto pairs = drain(*gen);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.a == 0 && p.b == 1 && !p.b_rc && p.match_len == 16) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PairSource, RankSharesPartitionTheStream) {
  // Contract (d): a rank emits exactly the records whose anchor's bucket
  // it owns. So for any p, and whichever ranks own buckets, the rank
  // shares are pairwise disjoint and together make up the one-rank
  // stream.
  const std::string data_dir = ESTCLUST_TEST_DATA_DIR;
  const EstSet ests(bio::read_fasta_file(data_dir + "/golden_small.fasta"));
  using Record = std::tuple<bio::EstId, bio::EstId, bool, std::uint32_t,
                            std::uint32_t, std::uint32_t>;
  const auto records = [](PairSource& gen) {
    std::set<Record> out;
    for (const auto& p : drain(gen)) {
      out.insert({p.a, p.b, p.b_rc, p.match_len, p.a_pos, p.b_pos});
    }
    return out;
  };
  TestSource whole(ests, 6, 24);
  const std::set<Record> expected = records(*whole);
  ASSERT_FALSE(expected.empty());
  for (int p : {2, 3, 4}) {
    for (int first_owner : {0, 1}) {
      std::set<Record> united;
      std::uint64_t emitted = 0;
      for (int rank = first_owner; rank < p; ++rank) {
        TestSource share(ests, 6, 24, p, first_owner, rank);
        std::size_t shared = 0;
        for (const Record& r : records(*share)) {
          shared += united.insert(r).second ? 0 : 1;
        }
        EXPECT_EQ(shared, 0u)
            << "p=" << p << " first_owner=" << first_owner << ": rank "
            << rank << " emits records a lower rank emits";
        emitted += share->stats().pairs_emitted;
      }
      EXPECT_TRUE(united == expected)
          << "p=" << p << " first_owner=" << first_owner << ": "
          << united.size() << " records across ranks, " << expected.size()
          << " at p = 1";
      EXPECT_EQ(emitted, whole->stats().pairs_emitted)
          << "p=" << p << " first_owner=" << first_owner;
    }
  }
}

}  // namespace
}  // namespace estclust::pairgen
