// Virtual-time tracing (Table 3 / Fig 8 evidence collection).
//
// Every rank owns a RankTracer: an event buffer written only by the rank's
// thread (no locking or atomics on the hot path) and merged rank-by-rank
// after Runtime::run joins. Events carry the rank's *virtual* clock as the
// primary timestamp — so traces are bit-identical across runs with the same
// seed — plus the real wall-clock as a secondary field for debugging the
// simulator itself. Recording never advances the virtual clock: tracing a
// run does not change its modeled time. Tracing is off unless a
// TraceRecorder is attached (a null RankTracer pointer), which costs one
// predictable branch per instrumentation site.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace estclust::obs {

enum class EventKind : std::uint8_t {
  kBegin,    ///< phase_begin: opens a named span
  kEnd,      ///< phase_end: closes the innermost span of the same name
  kInstant,  ///< point event
  kFlowOut,  ///< message handed to the runtime (sender side)
  kFlowIn,   ///< message delivered (receiver side); id matches the kFlowOut
};

/// One recorded event. `name` and `category` must point at static-storage
/// strings (phase names are literals); the buffer never copies them.
struct TraceEvent {
  EventKind kind;
  int peer = -1;            ///< other rank for flow events, else -1
  const char* name;
  const char* category;
  double vtime;             ///< virtual seconds (deterministic)
  double wtime;             ///< wall seconds since recorder creation
  std::uint64_t id = 0;     ///< flow id for kFlowOut/kFlowIn
  std::uint64_t arg = 0;    ///< payload bytes / user argument
  int tag = -1;             ///< message tag for flow events (-1 = none)
  /// kFlowIn only: virtual seconds the receiver's clock skipped waiting
  /// for this message (0 when it arrived before the receiver asked). The
  /// critical-path profiler reads this to tell a binding receive (the
  /// arrival set the clock) from a satisfied one.
  double wait = 0.0;
};

/// Per-rank event sink. Owned by TraceRecorder; written by exactly one
/// thread (the rank's), so record() is a plain vector append.
class RankTracer {
 public:
  RankTracer() = default;

  /// Binds the tracer to its rank's virtual clock (a pointer to the clock's
  /// time field, so obs stays independent of mpr) and the recorder's
  /// wall-clock epoch.
  void bind(int rank, const double* vclock,
            std::chrono::steady_clock::time_point epoch) {
    rank_ = rank;
    vclock_ = vclock;
    epoch_ = epoch;
    events_.reserve(1024);
  }

  int rank() const { return rank_; }

  void begin(const char* name, const char* category) {
    push(EventKind::kBegin, name, category, -1, 0, 0);
  }
  void end(const char* name) {
    push(EventKind::kEnd, name, nullptr, -1, 0, 0);
  }
  void instant(const char* name, const char* category,
               std::uint64_t arg = 0) {
    push(EventKind::kInstant, name, category, -1, 0, arg);
  }
  void flow_out(std::uint64_t id, int dest, std::uint64_t bytes,
                int tag = -1) {
    push(EventKind::kFlowOut, "msg", "comm", dest, id, bytes, tag, 0.0);
  }
  void flow_in(std::uint64_t id, int src, std::uint64_t bytes, int tag = -1,
               double wait = 0.0) {
    push(EventKind::kFlowIn, "msg", "comm", src, id, bytes, tag, wait);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  void push(EventKind kind, const char* name, const char* category, int peer,
            std::uint64_t id, std::uint64_t arg, int tag = -1,
            double wait = 0.0) {
    TraceEvent e;
    e.kind = kind;
    e.peer = peer;
    e.name = name;
    e.category = category;
    e.vtime = vclock_ ? *vclock_ : 0.0;
    e.wtime = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count();
    e.id = id;
    e.arg = arg;
    e.tag = tag;
    e.wait = wait;
    events_.push_back(e);
  }

  int rank_ = -1;
  const double* vclock_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
};

/// Owns one RankTracer per rank; the merged view is simply the per-rank
/// buffers visited in rank order (each already in causal per-rank order).
class TraceRecorder {
 public:
  explicit TraceRecorder(int nranks);

  int nranks() const { return static_cast<int>(tracers_.size()); }
  RankTracer& rank(int r) { return tracers_[r]; }
  const RankTracer& rank(int r) const { return tracers_[r]; }

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }
  std::size_t total_events() const;

  /// Checks every rank's spans: begin/end names pair up like brackets and
  /// no span is left open. Throws CheckError with the offending rank and
  /// name on mismatch.
  void validate() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<RankTracer> tracers_;
};

/// RAII span; safe on a null tracer (tracing disabled).
class ScopedSpan {
 public:
  ScopedSpan(RankTracer* t, const char* name, const char* category)
      : t_(t), name_(name) {
    if (t_) t_->begin(name_, category);
  }
  ~ScopedSpan() {
    if (t_) t_->end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RankTracer* t_;
  const char* name_;
};

}  // namespace estclust::obs

#define ESTCLUST_OBS_CONCAT2(a, b) a##b
#define ESTCLUST_OBS_CONCAT(a, b) ESTCLUST_OBS_CONCAT2(a, b)

/// Opens a span closed at end of scope. `tracer` is an obs::RankTracer*
/// (null => no-op).
#define ESTCLUST_TRACE_SPAN(tracer, name, category)                      \
  ::estclust::obs::ScopedSpan ESTCLUST_OBS_CONCAT(estclust_span_,        \
                                                  __LINE__)((tracer),    \
                                                            (name),      \
                                                            (category))
#define ESTCLUST_TRACE_INSTANT(tracer, name, category, arg)       \
  do {                                                            \
    ::estclust::obs::RankTracer* estclust_t_ = (tracer);          \
    if (estclust_t_) estclust_t_->instant((name), (category), (arg)); \
  } while (0)
