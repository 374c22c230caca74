// Tests for the observability layer: span validation, deterministic
// virtual timestamps, Chrome-JSON well-formedness, metrics merging, and
// the guarantee that tracing never changes the modeled run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "mpr/mailbox.hpp"
#include "mpr/runtime.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace {

using namespace estclust;

sim::Workload small_workload() {
  sim::SimConfig cfg = sim::scaled_config(80, 20020811);
  return sim::generate(cfg);
}

pace::PaceConfig small_pace_config() {
  pace::PaceConfig cfg;
  cfg.gst.window = 6;
  return cfg;
}

struct TracedRun {
  std::vector<std::uint32_t> labels;
  pace::PaceStats stats;
  double elapsed_vtime = 0.0;
};

TracedRun run_pace(const bio::EstSet& ests, const pace::PaceConfig& cfg,
                   int p, bool traced, mpr::Runtime* keep = nullptr) {
  mpr::Runtime local(p, mpr::CostModel{});
  mpr::Runtime& rt = keep ? *keep : local;
  if (traced) rt.enable_tracing();
  auto res = pace::cluster_parallel(rt, ests, cfg);
  return {std::move(res.labels), res.stats, rt.elapsed_vtime()};
}

TEST(TraceRecorderTest, ValidatesMatchedSpans) {
  obs::TraceRecorder rec(2);
  double clock = 0.0;
  rec.rank(0).bind(0, &clock, rec.epoch());
  rec.rank(0).begin("outer", "phase");
  clock = 1.0;
  rec.rank(0).begin("inner", "phase");
  clock = 2.0;
  rec.rank(0).end("inner");
  rec.rank(0).end("outer");
  EXPECT_NO_THROW(rec.validate());
  EXPECT_EQ(rec.total_events(), 4u);
}

TEST(TraceRecorderTest, DetectsMismatchedSpanName) {
  obs::TraceRecorder rec(1);
  double clock = 0.0;
  rec.rank(0).bind(0, &clock, rec.epoch());
  rec.rank(0).begin("outer", "phase");
  rec.rank(0).end("wrong");
  EXPECT_THROW(rec.validate(), CheckError);
}

TEST(TraceRecorderTest, DetectsUnclosedSpan) {
  obs::TraceRecorder rec(1);
  double clock = 0.0;
  rec.rank(0).bind(0, &clock, rec.epoch());
  rec.rank(0).begin("outer", "phase");
  EXPECT_THROW(rec.validate(), CheckError);
}

TEST(TraceRecorderTest, DetectsEndWithoutBegin) {
  obs::TraceRecorder rec(1);
  double clock = 0.0;
  rec.rank(0).bind(0, &clock, rec.epoch());
  rec.rank(0).end("phantom");
  EXPECT_THROW(rec.validate(), CheckError);
}

TEST(TraceRecorderTest, ScopedSpanIsNullSafe) {
  obs::ScopedSpan span(nullptr, "nothing", "phase");
  ESTCLUST_TRACE_SPAN(nullptr, "nothing_either", "phase");
  ESTCLUST_TRACE_INSTANT(nullptr, "still_nothing", "phase", 0);
}

TEST(VirtualClockTest, SplitsBusyCommIdle) {
  mpr::VirtualClock clk;
  clk.advance(2.0);
  clk.advance_comm(0.5);
  clk.sync_to(4.0);     // 1.5 s idle jump
  clk.sync_to(3.0);     // in the past: no-op
  clk.advance(1.0);
  EXPECT_DOUBLE_EQ(clk.busy_time(), 3.0);
  EXPECT_DOUBLE_EQ(clk.comm_time(), 0.5);
  EXPECT_DOUBLE_EQ(clk.idle_time(), 1.5);
  EXPECT_DOUBLE_EQ(clk.active_time(), 3.5);
  EXPECT_DOUBLE_EQ(clk.time(),
                   clk.busy_time() + clk.comm_time() + clk.idle_time());
}

TEST(MetricsRegistryTest, CountersSumOnMerge) {
  obs::MetricsRegistry a, b;
  a.counter("pairs").add(3);
  b.counter("pairs").add(4);
  b.counter("only_b").add(1);
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("pairs"), 7u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_EQ(a.counter_value("absent"), 0u);
}

TEST(MetricsRegistryTest, GaugesMergeByOp) {
  obs::MetricsRegistry a, b;
  a.gauge("t_max", obs::MergeOp::kMax).set(1.0);
  b.gauge("t_max", obs::MergeOp::kMax).set(2.5);
  a.gauge("t_min", obs::MergeOp::kMin).set(1.0);
  b.gauge("t_min", obs::MergeOp::kMin).set(0.25);
  a.gauge("t_sum", obs::MergeOp::kSum).set(1.0);
  b.gauge("t_sum", obs::MergeOp::kSum).set(2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.gauge_value("t_max"), 2.5);
  EXPECT_DOUBLE_EQ(a.gauge_value("t_min"), 0.25);
  EXPECT_DOUBLE_EQ(a.gauge_value("t_sum"), 3.0);
}

TEST(MetricsRegistryTest, StatsAndHistogramsMerge) {
  obs::MetricsRegistry a, b;
  a.stats("len").add(1.0);
  a.stats("len").add(3.0);
  b.stats("len").add(5.0);
  a.histogram("h", 0.0, 10.0, 5).add(1.0);
  b.histogram("h", 0.0, 10.0, 5).add(9.0);
  a.merge_from(b);
  const RunningStats* s = a.find_stats("len");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count(), 3u);
  EXPECT_DOUBLE_EQ(s->mean(), 3.0);
  EXPECT_DOUBLE_EQ(s->max(), 5.0);
}

TEST(MetricsRegistryTest, ReportAndJsonAreDeterministic) {
  obs::MetricsRegistry m;
  m.counter("z.last").add(2);
  m.counter("a.first").add(1);
  m.gauge("m.gauge").set(0.5);
  std::ostringstream r1, r2, j;
  m.write_report(r1);
  m.write_report(r2);
  m.write_json(j);
  EXPECT_EQ(r1.str(), r2.str());
  // Sorted name order: a.first before z.last in both formats.
  EXPECT_LT(r1.str().find("a.first"), r1.str().find("z.last"));
  EXPECT_LT(j.str().find("a.first"), j.str().find("z.last"));
  EXPECT_EQ(j.str().front(), '{');
}

// The pipeline tests below run at p = 1 (cluster_sequential on the rank's
// virtual clock: no master, no pairgen phase, no message) and at p = 3
// (one master, two slaves).
class ObsPipelineRanksTest : public testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, ObsPipelineRanksTest,
                         testing::Values(1, 3));

// A traced run produces identical virtual timestamps every time: the
// trace is a function of the input, not the schedule.
TEST_P(ObsPipelineRanksTest, DeterministicVirtualTimestamps) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = GetParam();

  mpr::Runtime rt1(p, mpr::CostModel{});
  mpr::Runtime rt2(p, mpr::CostModel{});
  auto run1 = run_pace(wl.ests, cfg, p, true, &rt1);
  auto run2 = run_pace(wl.ests, cfg, p, true, &rt2);

  ASSERT_NE(rt1.tracer(), nullptr);
  ASSERT_NE(rt2.tracer(), nullptr);
  rt1.tracer()->validate();
  EXPECT_EQ(run1.labels, run2.labels);
  EXPECT_EQ(run1.elapsed_vtime, run2.elapsed_vtime);
  ASSERT_EQ(rt1.tracer()->total_events(), rt2.tracer()->total_events());
  for (int r = 0; r < p; ++r) {
    const auto& e1 = rt1.tracer()->rank(r).events();
    const auto& e2 = rt2.tracer()->rank(r).events();
    ASSERT_EQ(e1.size(), e2.size()) << "rank " << r;
    for (std::size_t i = 0; i < e1.size(); ++i) {
      EXPECT_EQ(e1[i].kind, e2[i].kind) << "rank " << r << " event " << i;
      EXPECT_STREQ(e1[i].name, e2[i].name) << "rank " << r << " event " << i;
      EXPECT_EQ(e1[i].vtime, e2[i].vtime) << "rank " << r << " event " << i;
      EXPECT_EQ(e1[i].id, e2[i].id) << "rank " << r << " event " << i;
    }
  }

  // Byte-identical Chrome export (wall time excluded by default).
  std::ostringstream j1, j2;
  obs::write_chrome_trace(j1, *rt1.tracer());
  obs::write_chrome_trace(j2, *rt2.tracer());
  EXPECT_EQ(j1.str(), j2.str());
}

TEST(ObsPipelineTest, ChromeTraceWellFormed) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = 3;
  mpr::Runtime rt(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, true, &rt);

  std::ostringstream os;
  obs::write_chrome_trace(os, *rt.tracer());
  const std::string json = os.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // Flow events recorded on both sides.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Wall time stays out of the default export (determinism).
  EXPECT_EQ(json.find("wall_us"), std::string::npos);

  // Per rank: every begin has an end and vtimes never decrease.
  for (int r = 0; r < p; ++r) {
    const auto& events = rt.tracer()->rank(r).events();
    int depth = 0;
    double last = 0.0;
    for (const auto& e : events) {
      if (e.kind == obs::EventKind::kBegin) ++depth;
      if (e.kind == obs::EventKind::kEnd) --depth;
      ASSERT_GE(depth, 0);
      EXPECT_GE(e.vtime, last);
      last = e.vtime;
    }
    EXPECT_EQ(depth, 0) << "rank " << r;
  }
}

TEST_P(ObsPipelineRanksTest, BreakdownReportCoversPipelinePhases) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = GetParam();
  mpr::Runtime rt(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, true, &rt);

  // Table 3's components on every path; pair generation and master
  // service are phases of the master/slave protocol only.
  auto agg = obs::aggregate_phases(*rt.tracer());
  EXPECT_GE(agg.size(), 5u);
  for (const char* phase :
       {"partitioning", "gst_build", "node_sorting", "alignment"}) {
    EXPECT_TRUE(agg.count(phase)) << phase;
  }
  for (const char* phase : {"pairgen", "master_service"}) {
    EXPECT_EQ(agg.count(phase), p > 1 ? 1u : 0u) << phase;
  }

  std::ostringstream os;
  obs::write_breakdown_report(os, *rt.tracer(), rt.rank_times());
  const std::string report = os.str();
  for (const char* phase :
       {"partitioning", "gst_build", "node_sorting", "alignment"}) {
    EXPECT_NE(report.find(phase), std::string::npos) << phase;
  }
  EXPECT_EQ(report.find("master busy") != std::string::npos, p > 1);
}

// Registry round-trip: the counters published by the pipeline agree with
// the aggregated PaceStats rank 0 reports.
TEST_P(ObsPipelineRanksTest, RegistryMatchesPaceStats) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = GetParam();
  mpr::Runtime rt(p, mpr::CostModel{});
  auto run = run_pace(wl.ests, cfg, p, false, &rt);

  auto merged = rt.merged_metrics();
  EXPECT_EQ(merged.counter_value("pace.pairs_generated"),
            run.stats.pairs_generated);
  EXPECT_EQ(merged.counter_value("pace.pairs_aligned"),
            run.stats.pairs_processed);
  EXPECT_EQ(merged.counter_value("pace.pairs_accepted"),
            run.stats.pairs_accepted);
  EXPECT_DOUBLE_EQ(merged.gauge_value("pace.t_total"), run.stats.t_total);
  EXPECT_GT(merged.counter_value("gst.suffixes_owned"), 0u);
  // One rank runs without a single message.
  EXPECT_EQ(merged.counter_value("mpr.messages_sent") > 0, p > 1);
  EXPECT_EQ(merged.counter_value("mpr.bytes_sent") > 0, p > 1);
}

// Tracing must be free in virtual time: same clusters, same modeled
// runtime, whether or not a recorder is attached.
TEST_P(ObsPipelineRanksTest, TracingDoesNotPerturbTheRun) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = GetParam();
  auto traced = run_pace(wl.ests, cfg, p, true);
  auto untraced = run_pace(wl.ests, cfg, p, false);
  EXPECT_EQ(traced.labels, untraced.labels);
  EXPECT_EQ(traced.elapsed_vtime, untraced.elapsed_vtime);
  EXPECT_EQ(traced.stats.pairs_generated, untraced.stats.pairs_generated);
  EXPECT_EQ(traced.stats.pairs_processed, untraced.stats.pairs_processed);
}

TEST(MetricsRegistryTest, HistogramQuantilesAreExact) {
  obs::MetricsRegistry m;
  auto& h = m.histogram("latency", 0.0, 100.0, 10);
  // Odd count and a median position that lands on a sample: exact values.
  for (double v : {30.0, 10.0, 50.0, 20.0, 40.0}) h.add(v);
  EXPECT_DOUBLE_EQ(h.p50(), 30.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
  // Interpolated positions: pos = q * (n-1) between sorted neighbors.
  EXPECT_NEAR(h.quantile(0.25), 20.0, 1e-9);
  EXPECT_NEAR(h.p95(), 48.0, 1e-9);
  EXPECT_NEAR(h.p99(), 49.6, 1e-9);
  // Out-of-range samples clamp into edge *bins* but quantiles stay exact.
  h.add(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  // The registry accessor finds it; an empty histogram reports 0.
  ASSERT_NE(m.find_histogram("latency"), nullptr);
  obs::MetricsRegistry empty;
  EXPECT_DOUBLE_EQ(empty.histogram("none", 0.0, 1.0, 4).p99(), 0.0);
}

// Quantiles after merging depend only on the combined sample multiset:
// any merge order gives bit-identical p50/p95/p99, and both equal the
// quantiles of one histogram fed every sample directly.
TEST(MetricsRegistryTest, HistogramQuantilesMergeStable) {
  auto fill = [](obs::MetricsRegistry& m, std::initializer_list<double> vs) {
    auto& h = m.histogram("h", 0.0, 64.0, 8);
    for (double v : vs) h.add(v);
  };
  obs::MetricsRegistry a1, b1, a2, b2, c1, c2, flat;
  fill(a1, {3.0, 61.0, 17.0});
  fill(a2, {3.0, 61.0, 17.0});
  fill(b1, {29.0, 5.0});
  fill(b2, {29.0, 5.0});
  fill(c1, {44.0, 8.0, 23.0});
  fill(c2, {44.0, 8.0, 23.0});
  fill(flat, {3.0, 61.0, 17.0, 29.0, 5.0, 44.0, 8.0, 23.0});

  a1.merge_from(b1);
  a1.merge_from(c1);  // a <- b <- c
  c2.merge_from(b2);
  c2.merge_from(a2);  // c <- b <- a
  const Histogram* h1 = a1.find_histogram("h");
  const Histogram* h2 = c2.find_histogram("h");
  const Histogram* hf = flat.find_histogram("h");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  ASSERT_NE(hf, nullptr);
  EXPECT_EQ(h1->total(), 8u);
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h1->quantile(q), h2->quantile(q)) << "q=" << q;
    EXPECT_EQ(h1->quantile(q), hf->quantile(q)) << "q=" << q;
  }
  // Quantiles reach the text formats the registry emits.
  std::ostringstream json;
  a1.write_json(json);
  EXPECT_NE(json.str().find("h.p50"), std::string::npos);
  EXPECT_NE(json.str().find("h.p99"), std::string::npos);
}

// The tentpole invariant: the critical path computed from the trace tiles
// [0, makespan] contiguously, so its length equals the makespan bitwise —
// not merely within a tolerance.
TEST(CritPathTest, PathLengthEqualsMakespanExactly) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = 4;
  mpr::Runtime rt(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, true, &rt);

  const auto times = rt.rank_times();
  double makespan = 0.0;
  for (const auto& t : times) makespan = std::max(makespan, t.total);

  auto path = obs::compute_critical_path(*rt.tracer(), times);
  EXPECT_EQ(path.makespan, makespan);
  ASSERT_FALSE(path.segments.empty());
  EXPECT_EQ(path.length(), makespan);  // bitwise, by telescoping
  EXPECT_EQ(path.segments.front().begin, 0.0);
  EXPECT_EQ(path.segments.back().end, makespan);
  bool any_wire = false;
  for (std::size_t i = 0; i < path.segments.size(); ++i) {
    const auto& s = path.segments[i];
    EXPECT_LE(s.begin, s.end);
    if (i + 1 < path.segments.size()) {
      EXPECT_EQ(s.end, path.segments[i + 1].begin) << "segment " << i;
    }
    if (s.wire) {
      any_wire = true;
      EXPECT_NE(s.src, s.rank);
      EXPECT_GE(s.src, 0);
      EXPECT_NE(s.flow_id, 0u);
    }
  }
  // A 4-rank run cannot be critical on one rank alone: the path must
  // cross the wire at least once.
  EXPECT_TRUE(any_wire);
}

// Per-rank attribution: slack is defined against busy+comm with the same
// IEEE subtraction the JSON validator uses, so it must hold bit-exactly;
// it decomposes into measured waiting plus the post-finish tail to fp
// rounding, and the waiting side itself reproduces the clock's idle split.
TEST(CritPathTest, SlackAndIdleAttributionAddUp) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = 3;
  mpr::Runtime rt(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, true, &rt);

  const auto opts = pace::profile_options();
  auto prof = obs::build_profile(*rt.tracer(), rt.rank_times(), opts);
  ASSERT_EQ(prof.ranks, p);
  ASSERT_EQ(prof.rank_rows.size(), static_cast<std::size_t>(p));
  for (const auto& row : prof.rank_rows) {
    EXPECT_EQ(row.slack, prof.makespan - (row.busy + row.comm));
    EXPECT_NEAR(row.slack, row.idle + row.tail, 1e-9);
    EXPECT_GE(row.slack, -1e-12);
    EXPECT_GE(row.tail, 0.0);  // makespan is the max of the rank totals
  }

  // Idle intervals re-derived from the trace match the clocks' idle split.
  auto idles = obs::collect_idle_intervals(*rt.tracer(), opts.recv_overhead);
  std::vector<double> idle_sum(p, 0.0);
  for (const auto& iv : idles) {
    ASSERT_GE(iv.rank, 0);
    ASSERT_LT(iv.rank, p);
    EXPECT_LE(iv.begin, iv.end);
    idle_sum[iv.rank] += iv.end - iv.begin;
  }
  const auto times = rt.rank_times();
  for (int r = 0; r < p; ++r) {
    EXPECT_NEAR(idle_sum[r], times[r].idle, 1e-9) << "rank " << r;
  }

  // The by-op shares partition the path: their sum is the makespan.
  double share_sum = 0.0;
  for (const auto& s : prof.by_op) share_sum += s.vtime;
  EXPECT_NEAR(share_sum, prof.makespan, 1e-9);

  // Wait-by-tag covers the same waiting time, keyed by the arriving tag.
  ASSERT_FALSE(prof.wait_by_tag.empty());
  double wait_sum = 0.0, idle_total = 0.0;
  for (const auto& w : prof.wait_by_tag) {
    EXPECT_GT(w.count, 0u);
    EXPECT_EQ(w.name, obs::tag_label(w.tag, opts));
    wait_sum += w.vtime;
  }
  for (const auto& t : times) idle_total += t.idle;
  EXPECT_NEAR(wait_sum, idle_total, 1e-9);

  // Utilization timelines: one per rank, bounded fractions.
  ASSERT_EQ(prof.utilization.size(), static_cast<std::size_t>(p));
  for (const auto& tl : prof.utilization) {
    ASSERT_EQ(tl.size(),
              static_cast<std::size_t>(opts.timeline_buckets));
    for (double u : tl) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
  // Fig 8's measure: the master does real but small protocol work.
  EXPECT_GT(prof.master_span_vtime, 0.0);
  EXPECT_GT(prof.master_utilization, 0.0);
  EXPECT_LT(prof.master_utilization, 1.0);
}

// Profiles are a pure function of the seeded input: two independent runs
// produce byte-identical JSON and reports.
TEST(CritPathTest, ProfileOutputsAreDeterministic) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = 3;
  mpr::Runtime rt1(p, mpr::CostModel{});
  mpr::Runtime rt2(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, true, &rt1);
  run_pace(wl.ests, cfg, p, true, &rt2);

  const auto opts = pace::profile_options();
  auto prof1 = obs::build_profile(*rt1.tracer(), rt1.rank_times(), opts);
  auto prof2 = obs::build_profile(*rt2.tracer(), rt2.rank_times(), opts);
  std::ostringstream j1, j2, r1, r2;
  obs::write_profile_json(j1, prof1);
  obs::write_profile_json(j2, prof2);
  EXPECT_EQ(j1.str(), j2.str());
  obs::write_profile_report(r1, prof1, opts);
  obs::write_profile_report(r2, prof2, opts);
  EXPECT_EQ(r1.str(), r2.str());

  // Well-formedness spot checks on the JSON artifact.
  const std::string& js = j1.str();
  EXPECT_NE(js.find("\"schema\":\"estclust-profile-v1\""),
            std::string::npos);
  EXPECT_NE(js.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(js.find("\"wait_by_tag\""), std::string::npos);
  EXPECT_NE(js.find("\"master_utilization\""), std::string::npos);
}

TEST(CritPathTest, TagLabelsFollowTheNamingScheme) {
  const auto opts = pace::profile_options();
  EXPECT_EQ(obs::tag_label(pace::kTagReport, opts), "REPORT");
  EXPECT_EQ(obs::tag_label(pace::kTagAssign, opts), "ASSIGN");
  EXPECT_EQ(obs::tag_label(-1, opts), "untagged");
  EXPECT_EQ(obs::tag_label(12345, opts), "tag12345");
  EXPECT_EQ(obs::tag_label(mpr::kInternalTagBase + 7, opts), "collective");
}

TEST(ObsPipelineTest, RankTimesSplitAddsUp) {
  auto wl = small_workload();
  auto cfg = small_pace_config();
  const int p = 3;
  mpr::Runtime rt(p, mpr::CostModel{});
  run_pace(wl.ests, cfg, p, false, &rt);
  auto times = rt.rank_times();
  ASSERT_EQ(times.size(), static_cast<std::size_t>(p));
  for (const auto& t : times) {
    EXPECT_NEAR(t.total, t.busy + t.comm + t.idle, 1e-9);
    EXPECT_GE(t.busy, 0.0);
    EXPECT_GE(t.comm, 0.0);
    EXPECT_GE(t.idle, 0.0);
  }
}

}  // namespace
