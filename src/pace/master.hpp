// The master processor (§3.3): owns CLUSTERS (union-find) and WORKBUF,
// selects which promising pairs are worth aligning, grants each slave at
// most `batchsize` of them per interaction, and flow-controls the slaves'
// pair generation with the E = min(Δ·δ·batchsize, nfree/p) rule.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "bio/dataset.hpp"
#include "cluster/union_find.hpp"
#include "mpr/communicator.hpp"
#include "pace/config.hpp"
#include "pace/messages.hpp"
#include "pace/sequential.hpp"

namespace estclust::pace {

/// Master-side counters.
struct MasterCounters {
  std::uint64_t pairs_skipped = 0;   ///< dropped: already co-clustered
  std::uint64_t pairs_enqueued = 0;  ///< admitted to WORKBUF
  std::uint64_t pairs_accepted = 0;  ///< results with a passing alignment
  std::uint64_t merges = 0;
  std::uint64_t interactions = 0;    ///< slave messages processed
  std::uint64_t slave_deaths = 0;    ///< heartbeat notices handled
  std::uint64_t pairs_recovered = 0; ///< re-admitted after a slave death
};

class Master {
 public:
  Master(mpr::Communicator& comm, const bio::EstSet& ests,
         const PaceConfig& cfg);

  /// Runs the interaction loop until every slave is out of pairs and all
  /// in-flight work has been reported; sends STOP to all slaves.
  void run();

  cluster::UnionFind& clusters() { return clusters_; }
  const MasterCounters& counters() const { return counters_; }

  /// Accepted overlaps reported by the slaves (for downstream assembly).
  std::vector<AcceptedOverlap>& overlaps() { return overlaps_; }

 private:
  enum class SlaveState : std::uint8_t {
    kExpectingReport,  ///< an assignment is out; a report will come back
    kWaiting,          ///< parked on the wait-queue (no message owed)
    kStopped,
    kDead,             ///< heartbeat notice received; never contacted again
  };

  /// A copy of assigned work retained until the answering report arrives,
  /// so a slave death loses nothing (reliable mode only).
  struct InflightAssign {
    std::uint64_t seq = 0;
    std::vector<pairgen::PromisingPair> work;
  };

  void process_report(int slave, const ReportMsg& msg);
  void reply(int slave);
  void drain_wait_queue();
  std::uint64_t compute_request(int slave) const;
  std::vector<pairgen::PromisingPair> take_work();
  bool all_waiting() const;
  /// Stamps the reliable-mode sequence number, retains non-empty work as
  /// in-flight, sends, and marks the slave kExpectingReport.
  void send_assign(int slave, AssignMsg& assign);
  /// Records the virtual assign-to-report round trip of the slave's
  /// outstanding assignment (no-op for unsolicited initial reports).
  void sample_report_latency(int slave);
  /// Blocking receive of the next *fresh* report from `slave`, skipping
  /// duplicated deliveries and — in reliable mode — staying responsive to
  /// its death notice. A fresh report is acknowledged and its in-flight
  /// work released before returning. Returns false iff the slave died
  /// (the death has been fully handled). `flush` selects the check-op
  /// scope label (interaction loop vs final flush).
  bool await_report(int slave, bool flush, ReportMsg& out);
  /// Re-enqueues the dead slave's in-flight work and regenerates its
  /// entire promising-pair stream from a deterministic offline rebuild of
  /// its GST share, admitting pairs through the usual same() filter.
  void handle_death(int slave, const HeartbeatMsg& hb);
  /// Admits pairs to WORKBUF through the same() filter; returns the
  /// number admitted.
  std::uint64_t admit_pairs(const std::vector<pairgen::PromisingPair>& pairs);
  /// Flushes every still-parked slave with a stop assignment. Returns
  /// true iff a mid-flush death refilled WORKBUF and live parked slaves
  /// remain — the caller must resume the interaction loop.
  bool flush_parked(obs::RankTracer* tracer);

  mpr::Communicator& comm_;
  const bio::EstSet& ests_;
  const PaceConfig& cfg_;
  cluster::UnionFind clusters_;
  std::deque<pairgen::PromisingPair> workbuf_;
  MasterCounters counters_;

  int num_slaves_;
  bool reliable_ = false;  ///< fault plan installed: sequenced protocol on
  std::vector<SlaveState> state_;   ///< indexed by rank (entry 0 unused)
  std::vector<bool> passive_;      ///< slave has no more pairs to generate
  std::deque<int> wait_queue_;
  // Reliable-mode protocol state, indexed by rank (entry 0 unused).
  std::vector<std::uint64_t> last_report_seq_;  ///< highest fresh REPORT
  std::vector<std::uint64_t> assign_seq_;       ///< last ASSIGN seq sent
  std::vector<std::vector<InflightAssign>> inflight_;
  std::uint64_t dup_reports_ignored_ = 0;
  // Virtual send time of each slave's outstanding assignment (-1 = none);
  // the answering fresh report samples the assign-to-report latency
  // histogram. Metrics recording never advances clocks, so profiling the
  // exchange cannot perturb the run.
  std::vector<double> assign_sent_;
  // Per-slave P and P' of the latest report, for the Δ = P/P' factor.
  std::vector<std::uint64_t> last_reported_;
  std::vector<std::uint64_t> last_admitted_;
  std::uint64_t uf_ops_charged_ = 0;
  std::vector<AcceptedOverlap> overlaps_;
};

}  // namespace estclust::pace
