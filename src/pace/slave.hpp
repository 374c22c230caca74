// A slave processor (§3.3): generates promising pairs on demand from its
// local share of the workload — via the configured PairSource backend —
// and aligns the pair batches the master assigns, overlapping generation
// with the wait for the master's reply.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bio/dataset.hpp"
#include "gst/tree.hpp"
#include "mpr/communicator.hpp"
#include "pace/aligner.hpp"
#include "pace/config.hpp"
#include "pace/messages.hpp"
#include "pairgen/source.hpp"

namespace estclust::pace {

/// Slave-side counters.
struct SlaveCounters {
  std::uint64_t pairs_generated = 0;  ///< emitted by the local pair source
  std::uint64_t pairs_aligned = 0;    ///< evaluated (memo hits included)
  std::uint64_t dp_cells = 0;
  double sort_vtime = 0.0;   ///< node sorting / index build (source setup)
  double loop_vtime = 0.0;   ///< interaction loop (alignment-dominated)
};

/// The §3.3 startup split of the first generated batch into three
/// portions: [0] aligned immediately, [1] kept as NEXTWORK, [2] shipped
/// with the unsolicited initial report. Every portion is at least one
/// pair — with batchsize < 3 a naive batchsize/3 split would leave
/// NEXTWORK empty and stall the compute/communication overlap — and the
/// portions sum to max(batchsize, 3), remainder spread front-first.
std::array<std::size_t, 3> startup_split(std::size_t batchsize);

class Slave {
 public:
  /// `forest` is this rank's share of the distributed GST, read only by
  /// the gst backend (empty for kmer, which builds its own share).
  Slave(mpr::Communicator& comm, const bio::EstSet& ests,
        const PaceConfig& cfg, const std::vector<gst::Tree>& forest);

  /// Runs until the master's final assignment (stop flag) arrives, or —
  /// under a fault plan — until this rank's scheduled death checkpoint.
  SlaveCounters run();

 private:
  std::vector<WireResult> align_all(
      const std::vector<pairgen::PromisingPair>& work);
  void top_up_pairbuf(std::size_t target);
  std::vector<pairgen::PromisingPair> take_pairs(std::size_t count);
  bool out_of_pairs() const;
  /// Stamps the memo counters accumulated since the previous report.
  void attach_memo_counters(ReportMsg& m);
  /// Sends `m` (reliable mode stamps seq / results_for_seq / ack fields).
  void send_report(ReportMsg& m, std::uint64_t results_for_seq);
  /// Blocking receive of the next *fresh* assignment, skipping duplicated
  /// deliveries by sequence number.
  AssignMsg await_assign();
  /// Consumes the master's ack of report `expected`, skipping stale
  /// duplicate acks. The master acks before it replies with an ASSIGN, so
  /// by the time the fresh ASSIGN arrived the ack is already queued.
  void consume_ack(std::uint64_t expected);
  /// True iff this rank's scheduled death time has passed: announce the
  /// failure (one fault-exempt heartbeat the master receives `deadline`
  /// later) and tell the caller to abandon the protocol loop.
  bool maybe_die();
  /// Consumes any still-queued duplicate deliveries after the final ack,
  /// so the checker's mailbox-hygiene audit sees a clean exit.
  void drain_duplicates();
  SlaveCounters finish(double loop_start);

  mpr::Communicator& comm_;
  const bio::EstSet& ests_;
  const PaceConfig& cfg_;
  std::unique_ptr<pairgen::PairSource> source_;
  PairAligner aligner_;
  std::deque<pairgen::PromisingPair> pairbuf_;
  SlaveCounters counters_;
  std::uint64_t memo_lookups_reported_ = 0;
  std::uint64_t memo_hits_reported_ = 0;
  // Reliable-mode protocol state (see messages.hpp): unused when no fault
  // plan is installed.
  bool reliable_ = false;
  std::uint64_t report_seq_ = 0;       ///< seq of the last report sent
  std::uint64_t last_assign_seq_ = 0;  ///< highest fresh ASSIGN received
  std::uint64_t nextwork_seq_ = 0;     ///< ASSIGN seq that NEXTWORK came from
};

}  // namespace estclust::pace
