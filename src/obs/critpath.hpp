// Causal run graph and exact virtual-time critical path.
//
// The trace stream already contains a complete causal record of a run:
// per-rank events in clock order give the sequential edges, and the
// flow-out/flow-in pairs of every point-to-point message give the
// cross-rank edges (collectives are built from point-to-point sends, so
// they need no special casing). Because the only operation that ever
// *waits* in the simulator is a receive (VirtualClock::sync_to is called
// exclusively from Communicator::finish_recv), the critical path has a
// simple backward characterization: walk back from the rank that ends at
// the makespan; between binding receives the rank's time is locally
// determined, and at a binding receive (flow-in with wait > 0) the time
// was set by the sender's flow-out plus the wire cost — jump there and
// continue. The resulting segments tile [0, makespan] contiguously, so
// the path length equals the makespan *bitwise*, not just within
// floating-point tolerance.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace estclust::obs {

/// One interval of the critical path. Local segments carry the innermost
/// span name active over the interval; wire segments cover a message's
/// transit (network latency + bandwidth + any modeled delay + the
/// receiver's recv overhead) and carry the message tag.
struct PathSegment {
  int rank = -1;       ///< receiver rank (the rank whose clock the
                       ///< interval ends on)
  int src = -1;        ///< sender rank for wire segments, else -1
  double begin = 0.0;  ///< virtual seconds
  double end = 0.0;
  bool wire = false;
  const char* op = "";  ///< span name / "(untracked)" / "wire"
  int tag = -1;         ///< message tag for wire segments
  std::uint64_t flow_id = 0;

  double duration() const { return end - begin; }
};

struct CriticalPath {
  double makespan = 0.0;
  /// Forward time order; contiguous: segments[i].end ==
  /// segments[i+1].begin exactly, segments.front().begin == 0 and
  /// segments.back().end == makespan.
  std::vector<PathSegment> segments;

  /// Telescopes to the makespan exactly (last end minus first begin) —
  /// never a rounding-prone sum of durations.
  double length() const {
    return segments.empty() ? 0.0
                            : segments.back().end - segments.front().begin;
  }
};

/// One interval a rank spent waiting (the span sync_to skipped at a
/// receive), ending at the message's arrival. Everything outside these
/// intervals and before the rank's final clock is active time.
struct IdleInterval {
  int rank = -1;
  int src = -1;  ///< sender of the message that ended the wait
  double begin = 0.0;
  double end = 0.0;
  int tag = -1;
};

/// Computes the exact critical path of a traced run. `rank_times` is the
/// runtime's per-rank busy/comm/idle/total split (indexed by rank, same
/// count as the recorder); the makespan is the max total. Traces from
/// faulted runs work too — undelivered flow-outs are simply never
/// binding.
/// `recv_overhead` shifts the arrival estimate of wire segments; pass the
/// cost model's value for exact boundaries or 0 to fold the overhead into
/// the wire.
CriticalPath compute_critical_path(const TraceRecorder& rec,
                                   const std::vector<RankTime>& rank_times);

/// All waiting intervals of every rank, in (rank, time) order. `end` is
/// the message arrival (flow-in vtime minus `recv_overhead`); the sum of
/// durations per rank reproduces the clock's idle split up to fp rounding.
std::vector<IdleInterval> collect_idle_intervals(const TraceRecorder& rec,
                                                 double recv_overhead);

}  // namespace estclust::obs
