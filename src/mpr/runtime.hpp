// Runtime: owns the mailboxes, clocks, threads and observability state
// backing a rank group.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mpr/check_sink.hpp"
#include "mpr/clock.hpp"
#include "mpr/communicator.hpp"
#include "mpr/fault.hpp"
#include "mpr/mailbox.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace estclust::mpr {

class Runtime {
 public:
  Runtime(int nranks, CostModel cm);

  int size() const { return static_cast<int>(mailboxes_.size()); }
  const CostModel& cost_model() const { return cm_; }

  Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }
  VirtualClock& clock(int rank) { return clocks_[rank]; }
  RankStats& stats(int rank) { return stats_[rank]; }

  /// Attaches a TraceRecorder (one RankTracer per rank, stamped by that
  /// rank's virtual clock) that records spans, instants and a flow event
  /// pair per point-to-point message. Call before run(); no-op cost when
  /// never called.
  void enable_tracing();
  bool tracing() const { return tracer_ != nullptr; }
  obs::TraceRecorder* tracer() { return tracer_.get(); }
  const obs::TraceRecorder* tracer() const { return tracer_.get(); }

  /// Installs a correctness checker (see src/check/). All blocking
  /// receives then route through the sink's deadlock detector, and
  /// Runtime::run finishes with the sink's finalize audits. Call before
  /// run(); with no sink installed every hook is a skipped null check.
  void set_check_sink(std::shared_ptr<CheckSink> sink) {
    check_ = std::move(sink);
  }
  CheckSink* check_sink() { return check_.get(); }

  /// Installs a deterministic fault plan (see mpr/fault.hpp). Protocol
  /// sends then route through the plan's drop/duplicate/delay/death model.
  /// Call before run(); with no plan installed every hook is a skipped
  /// null check and the runs are byte-for-byte the seed's.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    fault_ = std::move(plan);
  }
  FaultPlan* fault_plan() { return fault_.get(); }
  const FaultPlan* fault_plan() const { return fault_.get(); }

  /// Per-rank metrics registry (written by the rank's thread during run).
  obs::MetricsRegistry& metrics(int rank) { return metrics_[rank]; }

  /// Cross-rank view: counters summed, gauges by their MergeOp, stats and
  /// histograms merged. Includes the runtime's own "mpr.*" counters
  /// (messages/bytes sent, messages received) after run().
  obs::MetricsRegistry merged_metrics() const;

  /// Runs rank_main on every rank (rank 0..n-1), one std::thread each.
  /// Blocks until all ranks return; rethrows the first rank exception.
  void run(const std::function<void(Communicator&)>& rank_main);

  /// Max final virtual clock over ranks after run().
  double elapsed_vtime() const;

  /// Sum of per-rank active (busy + comm) virtual time (for utilization
  /// metrics).
  double total_busy_vtime() const;

  /// Per-rank busy/comm/idle/total split after run(), indexed by rank.
  std::vector<obs::RankTime> rank_times() const;

 private:
  CostModel cm_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<VirtualClock> clocks_;
  std::vector<RankStats> stats_;
  std::vector<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::shared_ptr<CheckSink> check_;
  std::shared_ptr<FaultPlan> fault_;
};

}  // namespace estclust::mpr
