// Virtual time: LogP-style cost model and per-rank clocks.
//
// The paper reports wall-clock times on an IBM SP; this build runs all ranks
// as threads on one host, so scaling must be *modeled* rather than measured.
// Each rank advances a private virtual clock by charging accounted work
// (characters scanned, DP cells filled, pairs handled) at calibrated
// per-unit costs. A message sent at sender time t arrives at
//     t + send_overhead + latency + bytes / bandwidth
// and the receiver's clock jumps to max(receiver clock, arrival) on receipt.
// The reported run-time of a parallel phase is the max final clock.
//
// Default constants are calibrated so the Table 3 reproduction lands in the
// same order of magnitude as the paper's 375 MHz Power3 numbers; the *shape*
// of the curves is what the benchmarks check.
#pragma once

#include <cmath>
#include <cstdint>

namespace estclust::mpr {

/// Per-unit virtual costs (seconds).
struct CostModel {
  // Communication (LogP): o, L and 1/G, in the ballpark of a year-2002
  // IBM SP switch (MPI overhead ~10 us, latency ~25 us, ~100 MB/s).
  double send_overhead = 10.0e-6;  ///< sender-side per-message cost
  double recv_overhead = 10.0e-6;  ///< receiver-side per-message cost
  double latency = 25.0e-6;        ///< network latency per message
  double bandwidth = 100.0e6;      ///< payload bytes per second

  // Computation unit costs, roughly one cache-resident op each on a
  // 375 MHz Power3 (a handful of cycles plus memory traffic).
  double char_op = 60.0e-9;   ///< one character scan/bucket step in GST build
  double dp_cell = 30.0e-9;   ///< one dynamic-programming cell
  double pair_op = 120.0e-9;  ///< one generated-pair handling step (lsets)
  double sort_op = 15.0e-9;   ///< one comparison in node sorting
  double uf_op = 80.0e-9;     ///< one union-find find/union
  double byte_op = 2.0e-9;    ///< one byte of local copying/packing

  double message_cost(std::size_t payload_bytes) const {
    return latency + static_cast<double>(payload_bytes) / bandwidth;
  }
};

/// Comparisons charged to sort_op for sorting n items: the deterministic
/// n·(1 + ⌊log₂(n + 1)⌋) comparison-sort model, whatever sort the host
/// actually runs.
inline std::uint64_t sort_model_units(std::uint64_t n) {
  return n * (1 + static_cast<std::uint64_t>(
                      std::log2(static_cast<double>(n + 1))));
}

/// A rank's private virtual clock. Every second of virtual time is
/// attributed to exactly one of three buckets: busy (modeled local
/// computation), comm (per-message overheads charged by the communicator)
/// or idle (spans skipped by sync_to while waiting), so
/// time() == busy_time() + comm_time() + idle_time() always holds.
class VirtualClock {
 public:
  double time() const { return t_; }

  /// Advances by `seconds` of modeled local work.
  void advance(double seconds) {
    t_ += seconds;
    busy_ += seconds;
  }

  /// Advances by `seconds` of communication overhead (send/recv o of the
  /// LogP model). Kept separate from busy so per-rank breakdowns can show
  /// compute vs communication vs waiting.
  void advance_comm(double seconds) {
    t_ += seconds;
    comm_ += seconds;
  }

  /// Jumps forward to `t` if `t` is in the future (message arrival /
  /// barrier release). The skipped span counts as idle, not busy.
  void sync_to(double t) {
    if (t > t_) {
      idle_ += t - t_;
      t_ = t;
    }
  }

  /// Total virtual seconds spent in advance() (busy), as opposed to waiting.
  double busy_time() const { return busy_; }

  /// Virtual seconds of communication overhead (advance_comm).
  double comm_time() const { return comm_; }

  /// Virtual seconds skipped while waiting in sync_to.
  double idle_time() const { return idle_; }

  /// busy + comm: everything except waiting (the §4.2 utilization
  /// numerator).
  double active_time() const { return busy_ + comm_; }

  /// Read-only pointer to the clock's time field, for binding trace
  /// recorders without coupling obs to mpr.
  const double* time_ptr() const { return &t_; }

  void reset() {
    t_ = 0.0;
    busy_ = 0.0;
    comm_ = 0.0;
    idle_ = 0.0;
  }

 private:
  double t_ = 0.0;
  double busy_ = 0.0;
  double comm_ = 0.0;
  double idle_ = 0.0;
};

}  // namespace estclust::mpr
