// Wire formats of the master/slave protocol (§3.3).
//
// One interaction is: slave -> master REPORT {R results, P promising
// pairs, out-of-pairs flag, memo-cache counters}; master -> slave ASSIGN
// {W pairs to align, E pairs to bring next time, stop flag}. Everything a
// peer owes rides one coalesced, explicitly-serialized message per
// direction — there is no separate STOP message: the final ASSIGN carries
// stop = 1 and the slave answers with its final (possibly empty) REPORT.
//
// Reliable mode (active iff a FaultPlan is installed — see mpr/fault.hpp
// and DESIGN.md §8): REPORT and ASSIGN additionally carry sequence
// numbers so duplicated deliveries are idempotent, the master
// acknowledges each fresh REPORT on kTagAck, and a dying slave announces
// itself on kTagHeartbeat. The extra fields are serialized only in
// reliable mode, so fault-free wire bytes are identical to the seed's.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/dataset.hpp"
#include "mpr/message.hpp"
#include "obs/profile.hpp"
#include "pairgen/generator.hpp"

namespace estclust::pace {

// Model-checked configurations of the protocol (tools/analyze family
// `proto`): the annotated master/slave automata are composed with the
// DESIGN.md §8 fault alphabet and every reachable global state is
// enumerated, proving deadlock-freedom, no-unhandled-message, sequence-
// number safety and termination for these topologies. `supply` is the
// per-slave stream of promising-pair batches in abstract units.
// ESTCLUST-PROTO-MODEL(name=pace_base_1x2, slaves=2, mode=base, supply=2)
// ESTCLUST-PROTO-MODEL(name=pace_rel_1x2, slaves=2, mode=reliable, faults=drop+dup+kill, supply=2, kills=1)
// ESTCLUST-PROTO-MODEL(name=pace_rel_1x3, slaves=3, mode=reliable, faults=drop+dup+kill, supply=1, kills=1)

inline constexpr int kTagReport = 1;
inline constexpr int kTagAssign = 2;
/// Master -> slave acknowledgement of a fresh REPORT (reliable mode only).
inline constexpr int kTagAck = 3;
/// Slave -> master death notice (reliable mode only). Sent once, fault-
/// exempt, delivered deadline seconds after the death: its arrival models
/// the master noticing the slave's heartbeat went silent.
inline constexpr int kTagHeartbeat = 4;

/// Critical-path profile options for a pace run on a default-cost
/// runtime: the tag names above, the runtime's internal-tag base and its
/// receive overhead.
obs::ProfileOptions profile_options();

/// Result of one pairwise alignment, as shipped to the master. The master
/// only needs the identity of the pair and the verdict; score/quality ride
/// along for logging and tests.
struct WireResult {
  bio::EstId a = 0;
  bio::EstId b = 0;
  std::uint8_t b_rc = 0;
  std::uint8_t accepted = 0;
  std::uint8_t kind = 0;  ///< align::OverlapKind
  float quality = 0.0f;
  // Aligned spans (for downstream layout/assembly).
  std::uint32_t a_begin = 0, a_end = 0;
  std::uint32_t b_begin = 0, b_end = 0;
};
static_assert(std::is_trivially_copyable_v<WireResult>);
static_assert(std::is_trivially_copyable_v<pairgen::PromisingPair>);

struct ReportMsg {
  std::vector<WireResult> results;           ///< R
  std::vector<pairgen::PromisingPair> pairs; ///< P
  bool out_of_pairs = false;
  // Memo-cache activity since the previous report; the master's adaptive
  // batching reads these as its redundancy signal.
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
  // Reliable-mode fields (serialized only when `reliable` is passed to the
  // codec; fault-free wire bytes are unchanged).
  std::uint64_t seq = 0;  ///< per-slave report number, from 1; dedup key
  /// Seq of the ASSIGN whose work produced `results` (0 = the slave's own
  /// startup portion). The master releases the matching retained in-flight
  /// copy when this report arrives.
  std::uint64_t results_for_seq = 0;
  /// Highest ASSIGN seq received — a piggybacked acknowledgement; the
  /// master audits it against the assignment it actually sent.
  std::uint64_t ack_assign_seq = 0;
};

struct AssignMsg {
  std::vector<pairgen::PromisingPair> work;  ///< W
  std::uint64_t request = 0;                 ///< E
  /// Final assignment: the slave reports once more (flushing any pending
  /// results) and exits its loop. Folding STOP into the last ASSIGN saves
  /// one message per slave per run.
  std::uint8_t stop = 0;
  /// Reliable-mode per-slave assignment number, from 1; dedup key.
  std::uint64_t seq = 0;
};

/// Master -> slave: acknowledges the fresh REPORT with this seq.
struct AckMsg {
  std::uint64_t seq = 0;
};

/// Slave -> master death notice (the slave's last message, ever).
struct HeartbeatMsg {
  std::uint64_t last_report_seq = 0;  ///< highest report seq sent before dying
};

mpr::Buffer encode_report(const ReportMsg& m, bool reliable = false);
ReportMsg decode_report(const mpr::Buffer& b, bool reliable = false);

mpr::Buffer encode_assign(const AssignMsg& m, bool reliable = false);
AssignMsg decode_assign(const mpr::Buffer& b, bool reliable = false);

mpr::Buffer encode_ack(const AckMsg& m);
AckMsg decode_ack(const mpr::Buffer& b);

mpr::Buffer encode_heartbeat(const HeartbeatMsg& m);
HeartbeatMsg decode_heartbeat(const mpr::Buffer& b);

}  // namespace estclust::pace
