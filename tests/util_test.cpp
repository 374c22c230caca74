#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace estclust {
namespace {

TEST(Check, PassingCheckDoesNothing) { ESTCLUST_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(ESTCLUST_CHECK(false), CheckError);
}

TEST(Check, MessageIncludesExpressionAndDetail) {
  try {
    ESTCLUST_CHECK_MSG(2 > 3, "two is not greater, got " << 2);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("two is not greater, got 2"), std::string::npos);
  }
}

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Prng, UniformRespectsBound) {
  Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
  }
}

TEST(Prng, UniformCoversAllResidues) {
  Prng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, UniformOfOneIsZero) {
  Prng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Prng, UniformZeroBoundThrows) {
  Prng rng(5);
  EXPECT_THROW(rng.uniform(0), CheckError);
}

TEST(Prng, UniformRangeInclusive) {
  Prng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    auto v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, Uniform01InHalfOpenInterval) {
  Prng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, Uniform01MeanNearHalf) {
  Prng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, BernoulliEdges) {
  Prng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Prng, BernoulliRate) {
  Prng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Prng, NormalMomentsRoughlyCorrect) {
  Prng rng(23);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Prng, GeometricMeanMatchesTheory) {
  Prng rng(29);
  RunningStats st;
  const double p = 0.25;
  for (int i = 0; i < 20000; ++i)
    st.add(static_cast<double>(rng.geometric(p)));
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(st.mean(), 3.0, 0.15);
}

TEST(Prng, GeometricOfOneIsZero) {
  Prng rng(31);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Prng, ZipfInRangeAndSkewed) {
  Prng rng(37);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) {
    auto k = rng.zipf(20, 0.8);
    ASSERT_LT(k, 20u);
    ++counts[k];
  }
  // Rank-0 must dominate rank-10 heavily under theta=0.8.
  EXPECT_GT(counts[0], 3 * counts[10]);
}

TEST(Prng, ZipfThetaZeroIsUniformish) {
  Prng rng(41);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Prng, WeightedPickFollowsWeights) {
  Prng rng(43);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_pick(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Prng, WeightedPickRejectsAllZero) {
  Prng rng(47);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_pick(w), CheckError);
}

TEST(Prng, ShufflePreservesMultiset) {
  Prng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Prng, SplitProducesIndependentStream) {
  Prng a(59);
  Prng child = a.split();
  // The child stream should not reproduce the parent's next outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == child.next());
  EXPECT_LT(same, 2);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(st.min(), 2.0);
  EXPECT_EQ(st.max(), 9.0);
  EXPECT_EQ(st.sum(), 40.0);
}

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, MedianInterpolatesEvenCount) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v = {5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 0.5), CheckError);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[4], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BucketBoundaries) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 5.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"n", "time"});
  t.add_row({"10", "1.5"});
  t.add_row({"10000", "123.25"});
  std::ostringstream os;
  t.print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("123.25"), std::string::npos);
  // All data lines equal length (aligned columns).
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);
  std::size_t len = line.size();
  std::getline(is, line);  // separator
  while (std::getline(is, line)) EXPECT_EQ(line.size(), len);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt(std::uint64_t{42}), "42");
}

TEST(Cli, ParsesNameValuePairs) {
  const char* argv[] = {"prog", "--n", "100", "--rate", "0.5"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=7"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_int("n", 0), 7);
}

TEST(Cli, FlagsWithoutValues) {
  const char* argv[] = {"prog", "--verbose", "--n", "3"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.has_flag("verbose"));
  EXPECT_FALSE(args.has_flag("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(Cli, NegativeNumberIsValueNotFlag) {
  const char* argv[] = {"prog", "--offset", "-3"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(Cli, BadNumberNamesFlagAndValue) {
  // A value that is not wholly a number is an error naming the flag and
  // the value, never a bare "stoll" or a silently truncated "12x" -> 12.
  const char* argv[] = {"prog", "--batchsize", "abc", "--n", "12x",
                        "--rate", "fast"};
  CliArgs args(7, argv);
  const auto message = [](auto&& get) {
    try {
      get();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message([&] { args.get_int("batchsize", 0); })
                .find("--batchsize expects an integer (got 'abc')"),
            std::string::npos);
  EXPECT_NE(message([&] { args.get_int("n", 0); })
                .find("--n expects an integer (got '12x')"),
            std::string::npos);
  EXPECT_NE(message([&] { args.get_double("rate", 0.0); })
                .find("--rate expects a number (got 'fast')"),
            std::string::npos);
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 11), 11);
  EXPECT_EQ(args.get_string("mode", "fast"), "fast");
}

TEST(Cli, Positionals) {
  const char* argv[] = {"prog", "input.fa", "--n", "2", "more"};
  CliArgs args(5, argv);
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "input.fa");
  EXPECT_EQ(args.positionals()[1], "more");
}

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(PhaseTimer, AccumulatesAcrossIntervals) {
  PhaseTimer t;
  t.start();
  t.stop();
  double first = t.total_seconds();
  t.start();
  t.stop();
  EXPECT_GE(t.total_seconds(), first);
}

}  // namespace
}  // namespace estclust
