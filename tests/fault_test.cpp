// Fault-injection layer tests: FaultPlan determinism, --faults spec
// parsing, reliable-mode codec hardening, the mailbox primitives the
// retransmission protocol leans on, and end-to-end cluster equivalence
// between faulted and fault-free runs (including degenerate inputs and
// the single-rank routing the p = 1 crash fix pinned down).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "bio/dataset.hpp"
#include "mpr/fault.hpp"
#include "mpr/mailbox.hpp"
#include "mpr/runtime.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pairgen/source.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace estclust {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: seeded determinism.

mpr::FaultSpec heavy_spec() {
  mpr::FaultSpec spec;
  spec.enabled = true;
  spec.seed = 99;
  spec.drop = 0.3;
  spec.dup = 0.3;
  spec.delay = 0.3;
  return spec;
}

TEST(FaultPlan, SameSeedSameFateSequence) {
  mpr::FaultPlan a(heavy_spec(), 4);
  mpr::FaultPlan b(heavy_spec(), 4);
  for (int i = 0; i < 200; ++i) {
    for (int src = 0; src < 4; ++src) {
      const mpr::SendFate fa = a.fate(src);
      const mpr::SendFate fb = b.fate(src);
      EXPECT_EQ(fa.attempts, fb.attempts);
      EXPECT_EQ(fa.copies, fb.copies);
      EXPECT_EQ(fa.delayed, fb.delayed);
      EXPECT_EQ(fa.extra_delay, fb.extra_delay);
      EXPECT_EQ(fa.dup_delay, fb.dup_delay);
    }
  }
}

TEST(FaultPlan, SendersOwnIndependentStreams) {
  // Fates drawn for one sender must not depend on how often other
  // senders draw (ranks run concurrently; interleaving is arbitrary).
  mpr::FaultPlan a(heavy_spec(), 3);
  mpr::FaultPlan b(heavy_spec(), 3);
  std::vector<mpr::SendFate> from_a;
  for (int i = 0; i < 50; ++i) from_a.push_back(a.fate(1));
  for (int i = 0; i < 50; ++i) {
    (void)b.fate(0);
    (void)b.fate(2);
    const mpr::SendFate f = b.fate(1);
    EXPECT_EQ(f.attempts, from_a[static_cast<std::size_t>(i)].attempts);
    EXPECT_EQ(f.copies, from_a[static_cast<std::size_t>(i)].copies);
    EXPECT_EQ(f.extra_delay,
              from_a[static_cast<std::size_t>(i)].extra_delay);
  }
}

TEST(FaultPlan, DeathSchedule) {
  mpr::FaultSpec spec = heavy_spec();
  spec.deaths.push_back({2, 0.5});
  mpr::FaultPlan plan(spec, 4);
  EXPECT_FALSE(plan.death_scheduled(1));
  EXPECT_TRUE(plan.death_scheduled(2));
  EXPECT_EQ(plan.death_vtime(2), 0.5);
  EXPECT_TRUE(std::isinf(plan.death_vtime(1)));
  EXPECT_FALSE(plan.dead_at(2, 0.49));
  EXPECT_TRUE(plan.dead_at(2, 0.5));
  EXPECT_FALSE(plan.dead_at(1, 1e9));
}

// ---------------------------------------------------------------------------
// Spec parsing / formatting / validation.

TEST(FaultSpec, OffAndEmptyDisable) {
  EXPECT_FALSE(mpr::parse_fault_spec("off").enabled);
  EXPECT_FALSE(mpr::parse_fault_spec("").enabled);
}

TEST(FaultSpec, ParsesFullGrammar) {
  const mpr::FaultSpec s = mpr::parse_fault_spec(
      "seed=7,drop=0.1,dup=0.2,delay=0.3,delay-mean=0.001,rto=0.002,"
      "backoff=1.5,max-attempts=8,deadline=0.01,kill=2@0.5,kill=3@0.75");
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.seed, 7u);
  EXPECT_EQ(s.drop, 0.1);
  EXPECT_EQ(s.dup, 0.2);
  EXPECT_EQ(s.delay, 0.3);
  EXPECT_EQ(s.delay_mean, 0.001);
  EXPECT_EQ(s.rto, 0.002);
  EXPECT_EQ(s.backoff, 1.5);
  EXPECT_EQ(s.max_attempts, 8);
  EXPECT_EQ(s.deadline, 0.01);
  ASSERT_EQ(s.deaths.size(), 2u);
  EXPECT_EQ(s.deaths[0].rank, 2);
  EXPECT_EQ(s.deaths[0].vtime, 0.5);
  EXPECT_EQ(s.deaths[1].rank, 3);
  s.validate();
}

TEST(FaultSpec, FormatRoundTrips) {
  const mpr::FaultSpec s =
      mpr::parse_fault_spec("seed=11,drop=0.25,kill=1@0.125");
  const mpr::FaultSpec again =
      mpr::parse_fault_spec(mpr::format_fault_spec(s));
  EXPECT_EQ(again.seed, s.seed);
  EXPECT_EQ(again.drop, s.drop);
  ASSERT_EQ(again.deaths.size(), 1u);
  EXPECT_EQ(again.deaths[0].rank, 1);
  EXPECT_EQ(again.deaths[0].vtime, 0.125);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(mpr::parse_fault_spec("bogus-key=1"), CheckError);
  EXPECT_THROW(mpr::parse_fault_spec("drop"), CheckError);
  EXPECT_THROW(mpr::parse_fault_spec("kill=2"), CheckError);
  EXPECT_THROW(mpr::parse_fault_spec("drop=1.0").validate(), CheckError);
  EXPECT_THROW(mpr::parse_fault_spec("dup=-0.1").validate(), CheckError);
  // Rank 0 is the master: its death is unrecoverable by design.
  EXPECT_THROW(mpr::parse_fault_spec("kill=0@0.5").validate(), CheckError);
}

// ---------------------------------------------------------------------------
// Codec hardening: truncated or over-long payloads must CHECK-fail at the
// decode site, never read out of bounds or silently succeed.

pace::ReportMsg sample_report() {
  pace::ReportMsg m;
  pace::WireResult r;
  r.a = 3;
  r.b = 7;
  r.accepted = 1;
  m.results.push_back(r);
  pairgen::PromisingPair p;
  p.a = 1;
  p.b = 2;
  p.match_len = 30;
  m.pairs.push_back(p);
  m.out_of_pairs = true;
  m.memo_lookups = 5;
  m.memo_hits = 2;
  m.seq = 9;
  m.results_for_seq = 4;
  m.ack_assign_seq = 4;
  return m;
}

pace::AssignMsg sample_assign() {
  pace::AssignMsg m;
  pairgen::PromisingPair p;
  p.a = 5;
  p.b = 6;
  m.work.push_back(p);
  m.request = 40;
  m.stop = 0;
  m.seq = 3;
  return m;
}

template <typename Decode>
void expect_rejects_mutations(const mpr::Buffer& good, Decode decode) {
  // Every strict prefix must be rejected...
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    mpr::Buffer truncated(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode(truncated), CheckError) << "prefix of " << cut;
  }
  // ...and so must trailing garbage (expect_exhausted).
  mpr::Buffer extended = good;
  extended.push_back(0xAB);
  EXPECT_THROW(decode(extended), CheckError);
}

TEST(Codec, ReportRejectsTruncationBothModes) {
  for (bool reliable : {false, true}) {
    const mpr::Buffer good = pace::encode_report(sample_report(), reliable);
    expect_rejects_mutations(good, [&](const mpr::Buffer& b) {
      return pace::decode_report(b, reliable);
    });
  }
}

TEST(Codec, AssignRejectsTruncationBothModes) {
  for (bool reliable : {false, true}) {
    const mpr::Buffer good = pace::encode_assign(sample_assign(), reliable);
    expect_rejects_mutations(good, [&](const mpr::Buffer& b) {
      return pace::decode_assign(b, reliable);
    });
  }
}

TEST(Codec, AckAndHeartbeatRejectTruncation) {
  expect_rejects_mutations(pace::encode_ack({42}), [](const mpr::Buffer& b) {
    return pace::decode_ack(b);
  });
  expect_rejects_mutations(pace::encode_heartbeat({7}),
                           [](const mpr::Buffer& b) {
                             return pace::decode_heartbeat(b);
                           });
}

TEST(Codec, ReliableFieldsRoundTrip) {
  const pace::ReportMsg r =
      pace::decode_report(pace::encode_report(sample_report(), true), true);
  EXPECT_EQ(r.seq, 9u);
  EXPECT_EQ(r.results_for_seq, 4u);
  EXPECT_EQ(r.ack_assign_seq, 4u);
  const pace::AssignMsg a =
      pace::decode_assign(pace::encode_assign(sample_assign(), true), true);
  EXPECT_EQ(a.seq, 3u);
}

TEST(Codec, FaultFreeWireBytesUnchangedByReliableFields) {
  // The reliable-mode fields must not leak into the fault-free format.
  pace::ReportMsg plain = sample_report();
  pace::ReportMsg stamped = plain;
  stamped.seq = 1234;
  stamped.results_for_seq = 99;
  stamped.ack_assign_seq = 77;
  EXPECT_EQ(pace::encode_report(plain, false),
            pace::encode_report(stamped, false));
}

// ---------------------------------------------------------------------------
// Mailbox primitives backing the retransmission protocol.

mpr::Message make_msg(int src, int tag, std::uint8_t byte) {
  mpr::Message m;
  m.src = src;
  m.tag = tag;
  m.payload = {byte};
  return m;
}

TEST(Mailbox, Pop2DeliversFifoAcrossBothTags) {
  mpr::Mailbox mb;
  mb.push(make_msg(1, 10, 1));
  mb.push(make_msg(1, 20, 2));
  mb.push(make_msg(1, 10, 3));
  EXPECT_EQ(mb.pop2(1, 10, 20).payload[0], 1);
  EXPECT_EQ(mb.pop2(1, 10, 20).payload[0], 2);
  EXPECT_EQ(mb.pop2(1, 10, 20).payload[0], 3);
}

TEST(Mailbox, Pop2SkipsNonMatchingTags) {
  mpr::Mailbox mb;
  mb.push(make_msg(1, 30, 1));  // neither tag: must stay queued
  mb.push(make_msg(1, 20, 2));
  EXPECT_EQ(mb.pop2(1, 10, 20).payload[0], 2);
  EXPECT_EQ(mb.pop(1, 30).payload[0], 1);
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, TryPop2AndProbe2) {
  mpr::Mailbox mb;
  EXPECT_FALSE(mb.probe2(1, 10, 20));
  EXPECT_FALSE(mb.try_pop2(1, 10, 20).has_value());
  mb.push(make_msg(1, 20, 5));
  EXPECT_TRUE(mb.probe2(1, 10, 20));
  auto m = mb.try_pop2(1, 10, 20);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], 5);
  EXPECT_FALSE(mb.try_pop2(1, 10, 20).has_value());
}

TEST(Mailbox, PushPairKeepsCopiesAdjacent) {
  // The fault layer's duplicate delivery: a consumer that saw the first
  // copy is guaranteed to find the second already queued.
  mpr::Mailbox mb;
  mb.push_pair(make_msg(1, 10, 1), make_msg(1, 10, 2));
  EXPECT_EQ(mb.pop(1, 10).payload[0], 1);
  auto dup = mb.try_pop(1, 10);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->payload[0], 2);
}

// ---------------------------------------------------------------------------
// End-to-end: faulted runs must reproduce fault-free clusters exactly.

bio::EstSet test_workload(int num_genes, int num_ests, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.num_genes = num_genes;
  cfg.num_ests = num_ests;
  cfg.est_len_mean = 180;
  cfg.est_len_stddev = 30;
  cfg.est_len_min = 80;
  cfg.seed = seed;
  return sim::generate(cfg).ests;
}

std::vector<std::uint32_t> run_parallel(
    const bio::EstSet& ests, int ranks, const mpr::FaultSpec* faults,
    pairgen::Backend backend = pairgen::Backend::kGst) {
  pace::PaceConfig cfg;
  cfg.gst.window = 6;
  cfg.psi = 20;
  cfg.batchsize = 10;
  cfg.pair_source = backend;
  std::vector<std::uint32_t> labels;
  std::mutex mu;
  mpr::Runtime rt(ranks, mpr::CostModel{});
  if (faults != nullptr) {
    rt.set_fault_plan(std::make_shared<mpr::FaultPlan>(*faults, ranks));
  }
  rt.run([&](mpr::Communicator& comm) {
    auto res = pace::cluster_parallel(comm, ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      labels = std::move(res.labels);
    }
  });
  return labels;
}

TEST(FaultEquivalence, DropDupDelayPreserveClustersExactly) {
  const bio::EstSet ests = test_workload(5, 60, 71);
  const std::vector<std::uint32_t> base = run_parallel(ests, 4, nullptr);
  mpr::FaultSpec spec = heavy_spec();
  EXPECT_EQ(run_parallel(ests, 4, &spec), base);
}

TEST(FaultEquivalence, SlaveDeathPreservesClustersExactly) {
  const bio::EstSet ests = test_workload(5, 60, 71);
  const std::vector<std::uint32_t> base = run_parallel(ests, 4, nullptr);
  mpr::FaultSpec spec;
  spec.enabled = true;
  spec.seed = 5;
  spec.deaths.push_back({2, 0.01});
  EXPECT_EQ(run_parallel(ests, 4, &spec), base);
}

TEST(FaultEquivalence, FaultedRunsReplayBitIdentically) {
  const bio::EstSet ests = test_workload(4, 40, 13);
  mpr::FaultSpec spec = heavy_spec();
  spec.deaths.push_back({3, 0.02});
  const std::vector<std::uint32_t> first = run_parallel(ests, 4, &spec);
  EXPECT_EQ(run_parallel(ests, 4, &spec), first);
}

// ---------------------------------------------------------------------------
// Degenerate inputs (gst/builder.cpp audit) and single-rank routing, on
// every pair-source backend: kmer builds its share from bucket ids, not
// from a forest, so empty and tiny inputs take a path of their own there.

class Degenerate : public testing::TestWithParam<pairgen::Backend> {};

TEST_P(Degenerate, EmptyEstSet) {
  const bio::EstSet empty{std::vector<bio::Sequence>{}};
  EXPECT_TRUE(run_parallel(empty, 4, nullptr, GetParam()).empty());
  pace::PaceConfig cfg;
  cfg.pair_source = GetParam();
  auto seq = pace::cluster_sequential(empty, cfg);
  EXPECT_TRUE(seq.clusters.labels().empty());
}

TEST_P(Degenerate, SingleEst) {
  const bio::EstSet ests = test_workload(1, 1, 3);
  const auto labels = run_parallel(ests, 4, nullptr, GetParam());
  ASSERT_EQ(labels.size(), 1u);
  mpr::FaultSpec spec = heavy_spec();
  EXPECT_EQ(run_parallel(ests, 4, &spec, GetParam()), labels);
}

TEST_P(Degenerate, MoreRanksThanEsts) {
  const bio::EstSet ests = test_workload(2, 3, 17);
  const auto base = run_parallel(ests, 2, nullptr, GetParam());
  EXPECT_EQ(run_parallel(ests, 8, nullptr, GetParam()), base);
  mpr::FaultSpec spec = heavy_spec();
  spec.deaths.push_back({7, 0.005});
  EXPECT_EQ(run_parallel(ests, 8, &spec, GetParam()), base);
}

TEST_P(Degenerate, SingleRankRoutesToLocalPipeline) {
  // Regression for the p = 1 crash: a 1-rank communicator must run the
  // whole pipeline locally instead of CHECK-failing in the Master ctor.
  const bio::EstSet ests = test_workload(3, 20, 29);
  const auto one = run_parallel(ests, 1, nullptr, GetParam());
  ASSERT_EQ(one.size(), ests.num_ests());
  EXPECT_EQ(run_parallel(ests, 2, nullptr, GetParam()), one);
}

INSTANTIATE_TEST_SUITE_P(, Degenerate,
                         testing::ValuesIn(pairgen::kAllBackends));

}  // namespace

namespace pairgen {

// Prints a backend parameter by name, so ctest registers the Degenerate
// cases as Degenerate.<Test>/gst and Degenerate.<Test>/kmer.
void PrintTo(Backend b, std::ostream* os) { *os << backend_name(b); }

}  // namespace pairgen
}  // namespace estclust
