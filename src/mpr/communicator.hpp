// Per-rank handle into the message-passing runtime.
//
// Mirrors the dozen MPI calls the paper's software needs: point-to-point
// send/recv/probe, barrier, reductions, gather and all-to-all-v. Collectives
// are implemented with real point-to-point messages over a binomial tree so
// their virtual-time cost is the genuine O(log p) of the algorithm, not a
// formula.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mpr/check_sink.hpp"
#include "mpr/clock.hpp"
#include "mpr/mailbox.hpp"
#include "mpr/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace estclust::mpr {

class FaultPlan;
class Runtime;

/// Per-rank communication statistics (for benchmark reporting).
struct RankStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
};

class Communicator {
 public:
  Communicator(Runtime& rt, int rank);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int rank() const { return rank_; }
  int size() const;

  /// Sends `payload` to `dest` with user tag `tag` (0 <= tag <
  /// kInternalTagBase). Advances the sender's clock by the send overhead.
  void send(int dest, int tag, Buffer payload);

  /// Blocking receive; src/tag may be kAnySource / kAnyTag. On return the
  /// receiver's clock has been synced to the message arrival time.
  Message recv(int src = kAnySource, int tag = kAnyTag);

  /// Two-tag blocking receive: the first queued message from `src`
  /// carrying either tag, in FIFO (per-sender program) order. The pace
  /// master uses it to wait for a slave's REPORT while staying responsive
  /// to its death notice. Wildcards are not supported.
  Message recv2(int src, int tag_a, int tag_b);

  /// Sends with an extra modeled delivery delay on top of the normal
  /// message cost, bypassing fault injection. The pace death notice rides
  /// it: arrival at death time + deadline models the master noticing a
  /// missed heartbeat deadline. Fault-free runs never call this.
  void send_delayed(int dest, int tag, Buffer payload, double extra_delay);

  /// Non-blocking receive. Only returns a message whose modeled arrival time
  /// is <= the receiver's current clock *or* any queued message if the
  /// receiver is idle-polling (we sync the clock forward in that case).
  std::optional<Message> try_recv(int src = kAnySource, int tag = kAnyTag);

  /// True iff a matching message is queued.
  bool probe(int src = kAnySource, int tag = kAnyTag);

  /// Synchronizes all ranks; clocks advance to the common release time.
  void barrier();

  /// Reductions over all ranks (every rank gets the result).
  std::uint64_t allreduce_sum(std::uint64_t v);
  double allreduce_sum(double v);
  double allreduce_max(double v);
  std::uint64_t allreduce_max(std::uint64_t v);

  /// Element-wise sum of equal-length vectors across ranks.
  std::vector<std::uint64_t> allreduce_sum_vec(std::vector<std::uint64_t> v);

  /// Gather one value per rank to every rank, indexed by rank.
  std::vector<std::uint64_t> allgather(std::uint64_t v);

  /// Broadcasts rank 0's buffer to every rank over a binomial tree; the
  /// argument is ignored on non-root ranks.
  Buffer broadcast(Buffer from_root);

  /// Personalized all-to-all: sendbufs[r] goes to rank r; returns the
  /// buffers received, indexed by source rank. sendbufs.size() must be p.
  std::vector<Buffer> all_to_all(std::vector<Buffer> sendbufs);

  /// Virtual clock of this rank.
  VirtualClock& clock();
  const CostModel& cost_model() const;

  /// Charges `count` units of the given per-unit cost to this rank's clock.
  void charge(double unit_cost, std::uint64_t count);

  RankStats& stats();

  /// This rank's trace sink, or null when the runtime has tracing
  /// disabled. Pass to ESTCLUST_TRACE_SPAN / record phase events with it;
  /// recording never advances the virtual clock.
  obs::RankTracer* tracer() { return tracer_; }

  /// This rank's metrics registry (always available; merged across ranks
  /// by Runtime::merged_metrics after the run).
  obs::MetricsRegistry& metrics();

  /// Number of collectives this rank has entered (SPMD programs must agree
  /// across ranks; the checker audits the balance at finalize).
  std::uint64_t collective_count() const {
    return static_cast<std::uint64_t>(collective_seq_);
  }

  /// The runtime's fault plan, or null when fault injection is off.
  FaultPlan* fault_plan() { return fault_; }

 private:
  void send_internal(int dest, int tag, Buffer payload,
                     double extra_delay = 0.0);
  /// Protocol send under an installed fault plan: decides drop count,
  /// duplication and delay from the sender's fault stream and charges one
  /// send overhead per transmission attempt. Delivery is guaranteed even
  /// to dead ranks (see mpr/fault.hpp for why swallowing would deadlock).
  void send_faulted(int dest, int tag, Buffer payload);
  Message recv_internal(int src, int tag);
  /// Clock sync, overhead charge, stats and check/trace hooks shared by
  /// every receive path.
  Message finish_recv(Message m);

  /// Joins the active CheckOpScope labels ("outer/inner") for the
  /// checker's wait-for-graph reports; "recv" when no scope is active.
  std::string check_op_label() const;

  /// Binomial-tree reduce-to-0 + broadcast of a fixed-size payload.
  template <typename T>
  T allreduce_impl(T v, const std::function<T(T, T)>& op);

  friend class CheckOpScope;

  Runtime& rt_;
  int rank_;
  int collective_seq_ = 0;  // matches across ranks: SPMD collective order
  obs::RankTracer* tracer_ = nullptr;  // null when tracing is disabled
  std::uint64_t flow_seq_ = 0;  // per-rank message sequence for flow ids
  CheckSink* check_ = nullptr;  // null when checking is disabled
  FaultPlan* fault_ = nullptr;  // null when fault injection is disabled

  static constexpr int kMaxCheckOpDepth = 4;
  const char* check_ops_[kMaxCheckOpDepth] = {};
  int check_op_depth_ = 0;
};

/// Labels the enclosed communication for checker reports: a rank blocked
/// inside the scope shows up as "label/..." in the wait-for graph instead
/// of a bare "recv". Nests (outermost label first); the runtime's own
/// collectives push their "mpr.*" names so "pace.master.await_report" and
/// "gst.suffix_route/mpr.all_to_all" read as call paths. Two pointer
/// writes when checking is off.
class CheckOpScope {
 public:
  CheckOpScope(Communicator& comm, const char* label) : comm_(comm) {
    if (comm_.check_op_depth_ < Communicator::kMaxCheckOpDepth) {
      comm_.check_ops_[comm_.check_op_depth_] = label;
    }
    ++comm_.check_op_depth_;
  }
  ~CheckOpScope() { --comm_.check_op_depth_; }

  CheckOpScope(const CheckOpScope&) = delete;
  CheckOpScope& operator=(const CheckOpScope&) = delete;

 private:
  Communicator& comm_;
};

/// Runs `rank_main` on `nranks` ranks (one thread each) and returns the
/// parallel virtual run-time: the maximum final clock over all ranks.
/// Exceptions thrown by any rank are rethrown from the calling thread.
double run_ranks(int nranks, const CostModel& cm,
                 const std::function<void(Communicator&)>& rank_main);

}  // namespace estclust::mpr
