#include "pace/slave.hpp"

#include "mpr/fault.hpp"
#include "obs/trace.hpp"
#include "pace/loop.hpp"
#include "util/check.hpp"

namespace estclust::pace {

// The slave's half of the §3.3 wire protocol as a communicating FSM,
// extracted and exhaustively checked by tools/analyze (family `proto`).
// ESTCLUST-PROTO-ROLE(role=slave, init=startup, final=done|dead)

std::array<std::size_t, 3> startup_split(std::size_t batchsize) {
  const std::size_t base = std::max<std::size_t>(batchsize, 3);
  const std::size_t q = base / 3;
  const std::size_t r = base % 3;
  return {q + (r > 0 ? 1 : 0), q + (r > 1 ? 1 : 0), q};
}

Slave::Slave(mpr::Communicator& comm, const bio::EstSet& ests,
             const PaceConfig& cfg, const std::vector<gst::Tree>& forest)
    : comm_(comm),
      ests_(ests),
      cfg_(cfg),
      aligner_(ests, cfg),
      reliable_(comm.fault_plan() != nullptr) {
  // The source's one-off setup — node sorting for the GST walk (Table 3's
  // "Sorting Nodes" column), or kmer's ownership scan and index
  // construction — is charged to this rank's clock.
  ESTCLUST_TRACE_SPAN(comm_.tracer(), "node_sorting", "phase");
  const double before = comm_.clock().time();
  if (cfg.pair_source == pairgen::Backend::kGst) {
    source_ = pairgen::make_pair_source(cfg.pair_source, ests, forest,
                                        cfg.gst.window, cfg.psi);
  } else {
    source_ = make_bucket_source(ests, cfg, comm.size(),
                                 /*first_owner_rank=*/1, comm.rank(), &comm);
  }
  comm_.charge(comm_.cost_model().sort_op, source_->construction_sort_units());
  counters_.sort_vtime = comm_.clock().time() - before;
}

bool Slave::out_of_pairs() const {
  return source_->exhausted() && pairbuf_.empty();
}

void Slave::top_up_pairbuf(std::size_t target) {
  if (pairbuf_.size() >= target || source_->exhausted()) return;
  ESTCLUST_TRACE_SPAN(comm_.tracer(), "pairgen", "phase");
  std::vector<pairgen::PromisingPair> tmp;
  source_->next_batch(target - pairbuf_.size(), tmp);
  for (const auto& p : tmp) pairbuf_.push_back(p);
  comm_.charge(comm_.cost_model().pair_op, source_->take_work_units());
}

std::vector<pairgen::PromisingPair> Slave::take_pairs(std::size_t count) {
  std::vector<pairgen::PromisingPair> out;
  const std::size_t k = std::min(count, pairbuf_.size());
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(pairbuf_.front());
    pairbuf_.pop_front();
  }
  return out;
}

std::vector<WireResult> Slave::align_all(
    const std::vector<pairgen::PromisingPair>& work) {
  ESTCLUST_TRACE_SPAN(comm_.tracer(), "alignment", "phase");
  std::vector<WireResult> results;
  results.reserve(work.size());
  for (const auto& p : work) {
    PairEvaluation ev = aligner_.evaluate(p);
    // Memo hits report 0 cells: no DP ran, so no virtual time is charged —
    // that saving is the cache's whole point.
    comm_.charge(comm_.cost_model().dp_cell, ev.overlap.cells);
    ++counters_.pairs_aligned;
    counters_.dp_cells += ev.overlap.cells;
    WireResult r;
    r.a = p.a;
    r.b = p.b;
    r.b_rc = p.b_rc ? 1 : 0;
    r.accepted = ev.accepted ? 1 : 0;
    r.kind = static_cast<std::uint8_t>(ev.overlap.kind);
    r.quality = static_cast<float>(ev.overlap.quality);
    r.a_begin = static_cast<std::uint32_t>(ev.overlap.a_begin);
    r.a_end = static_cast<std::uint32_t>(ev.overlap.a_end);
    r.b_begin = static_cast<std::uint32_t>(ev.overlap.b_begin);
    r.b_end = static_cast<std::uint32_t>(ev.overlap.b_end);
    results.push_back(r);
  }
  return results;
}

void Slave::attach_memo_counters(ReportMsg& m) {
  const MemoStats& s = aligner_.memo_stats();
  m.memo_lookups = s.lookups - memo_lookups_reported_;
  m.memo_hits = s.hits - memo_hits_reported_;
  memo_lookups_reported_ = s.lookups;
  memo_hits_reported_ = s.hits;
}

void Slave::send_report(ReportMsg& m, std::uint64_t results_for_seq) {
  if (reliable_) {
    m.seq = ++report_seq_;
    m.results_for_seq = results_for_seq;
    m.ack_assign_seq = last_assign_seq_;
  }
  // ESTCLUST-PROTO(state=startup, send=REPORT -> working)
  // ESTCLUST-PROTO(state=acked, send=REPORT -> working, when=!stop)
  // ESTCLUST-PROTO(state=acked, send=REPORT -> final_unacked, when=stop)
  comm_.send(0, kTagReport, encode_report(m, reliable_));
}

AssignMsg Slave::await_assign() {
  for (;;) {
    mpr::Message m = [&] {
      mpr::CheckOpScope check_scope(comm_, "pace.slave.await_assign");
      // ESTCLUST-PROTO(state=working, on=ASSIGN -> got_assign, when=fresh)
      // ESTCLUST-PROTO(state=working, on=ASSIGN -> ., when=dup, mode=reliable)
      return comm_.recv(0, kTagAssign);
    }();
    AssignMsg assign = decode_assign(m.payload, reliable_);
    if (!reliable_) return assign;
    if (assign.seq <= last_assign_seq_) {
      // Duplicated delivery of an assignment already honoured.
      comm_.metrics().counter("pace.dup_assigns_ignored").add(1);
      continue;
    }
    // The mailbox preserves the master's program order, so fresh
    // assignments can never arrive out of order.
    ESTCLUST_CHECK_MSG(assign.seq == last_assign_seq_ + 1,
                       "assignment sequence gap: got " << assign.seq
                                                       << " after "
                                                       << last_assign_seq_);
    last_assign_seq_ = assign.seq;
    return assign;
  }
}

void Slave::consume_ack(std::uint64_t expected) {
  for (;;) {
    mpr::Message m = [&] {
      mpr::CheckOpScope check_scope(comm_, "pace.slave.await_ack");
      // ESTCLUST-PROTO(state=got_assign, on=ACK -> acked, when=match, mode=reliable)
      // ESTCLUST-PROTO(state=got_assign, on=ACK -> ., when=dup, mode=reliable)
      // ESTCLUST-PROTO(state=final_unacked, on=ACK -> done, when=match, mode=reliable)
      // ESTCLUST-PROTO(state=final_unacked, on=ACK -> ., when=dup, mode=reliable)
      return comm_.recv(0, kTagAck);
    }();
    const AckMsg ack = decode_ack(m.payload);
    if (ack.seq == expected) return;
    // The master acks each report exactly once, in order, so anything
    // below `expected` is a duplicated delivery of an older ack.
    ESTCLUST_CHECK_MSG(ack.seq < expected,
                       "ack " << ack.seq << " for a report not yet sent");
    comm_.metrics().counter("pace.dup_acks_ignored").add(1);
  }
}

bool Slave::maybe_die() {
  if (!reliable_) return false;
  mpr::FaultPlan* plan = comm_.fault_plan();
  const int r = comm_.rank();
  if (!plan->death_scheduled(r)) return false;
  if (comm_.clock().time() < plan->death_vtime(r)) return false;
  // Announce the failure once and abandon the protocol. The notice is
  // fault-exempt and delivered `deadline` later: that is the master
  // noticing the heartbeat went silent, not a message the dead rank
  // actually managed to send.
  HeartbeatMsg hb;
  hb.last_report_seq = report_seq_;
  // ESTCLUST-PROTO(state=startup|got_assign, send=HEARTBEAT -> dead, when=kill, mode=reliable)
  comm_.send_delayed(0, kTagHeartbeat, encode_heartbeat(hb),
                     plan->deadline());
  comm_.metrics().counter("pace.slave_deaths").add(1);
  if (comm_.tracer()) {
    comm_.tracer()->instant("pace.death", "fault",
                            static_cast<std::uint64_t>(r));
  }
  return true;
}

void Slave::drain_duplicates() {
  // After the final ack every message the master will ever send on the
  // protocol tags is already queued (the mailbox preserves its program
  // order), so what remains is exactly the duplicated deliveries.
  std::uint64_t drained = 0;
  // ESTCLUST-PROTO(state=done, on=ASSIGN -> ., when=dup, mode=reliable, op=try_recv)
  // ESTCLUST-PROTO(state=done, on=ACK -> ., when=dup, mode=reliable, op=try_recv)
  while (comm_.try_recv(0, kTagAssign)) ++drained;
  while (comm_.try_recv(0, kTagAck)) ++drained;
  if (drained > 0) {
    comm_.metrics().counter("pace.dup_drained").add(drained);
  }
}

SlaveCounters Slave::run() {
  // Inclusive loop span (covers waiting too); the nested "alignment" /
  // "pairgen" spans carry the busy breakdown.
  ESTCLUST_TRACE_SPAN(comm_.tracer(), "slave_loop", "phase");
  const double loop_start = comm_.clock().time();

  // Death checkpoint C1: a rank scheduled to die at (virtual) time zero
  // fails before contributing anything at all.
  if (maybe_die()) return finish(loop_start);

  // Startup (§3.3): generate one batch split three ways. Align the first
  // portion; ship its results with the third; keep the second as NEXTWORK.
  // From then on the slave always has a batch in hand while a report is in
  // flight, overlapping communication with computation. (These startup
  // alignments bypass the master's filter, so the portions are
  // deliberately small.)
  const auto portions = startup_split(cfg_.batchsize);
  top_up_pairbuf(portions[0] + portions[1] + portions[2]);
  std::vector<pairgen::PromisingPair> portion1 = take_pairs(portions[0]);
  std::vector<pairgen::PromisingPair> nextwork = take_pairs(portions[1]);
  std::vector<pairgen::PromisingPair> portion3 = take_pairs(portions[2]);

  ReportMsg initial;
  initial.results = align_all(portion1);
  initial.pairs = std::move(portion3);
  initial.out_of_pairs = out_of_pairs();
  attach_memo_counters(initial);
  // Death checkpoint C1b: the startup work pushed the clock past the
  // death time — the initial report never ships.
  if (maybe_die()) return finish(loop_start);
  send_report(initial, 0);

  for (;;) {
    // Compute on the batch in hand before blocking on the master.
    std::vector<WireResult> results = align_all(nextwork);
    const std::uint64_t results_seq = nextwork_seq_;
    nextwork.clear();

    // "While waiting, generate more promising pairs" — performed here,
    // before the blocking receive, so the overlap is deterministic.
    top_up_pairbuf(cfg_.pairbuf_capacity);

    AssignMsg assign = await_assign();

    // Death checkpoint C2: the assignment was received but never
    // acknowledged or answered — the master re-enqueues its retained
    // in-flight copy when the heartbeat notice lands.
    if (maybe_die()) return finish(loop_start);
    // The master acked our previous report before replying with this
    // assignment, so the ack is already queued behind us. (Base mode has
    // no acks: the assignment alone advances the conversation.)
    // ESTCLUST-PROTO(state=got_assign -> acked, mode=base)
    if (reliable_) consume_ack(report_seq_);

    // Honour the master's request E, generating on the fly if PAIRBUF
    // cannot cover it.
    if (pairbuf_.size() < assign.request) top_up_pairbuf(assign.request);

    // One coalesced report answers every assignment — including the final
    // one, whose stop flag rides the assignment instead of a separate
    // STOP message. The final report flushes the results computed above.
    ReportMsg report;
    report.results = std::move(results);
    report.pairs = take_pairs(assign.request);
    report.out_of_pairs = out_of_pairs();
    attach_memo_counters(report);
    send_report(report, results_seq);

    if (assign.stop) {
      ESTCLUST_CHECK_MSG(assign.work.empty(),
                         "final assignment carried work");
      // ESTCLUST-PROTO(state=final_unacked -> done, mode=base)
      if (reliable_) {
        consume_ack(report_seq_);
        drain_duplicates();
      }
      break;
    }
    nextwork = std::move(assign.work);
    nextwork_seq_ = assign.seq;
  }

  return finish(loop_start);
}

SlaveCounters Slave::finish(double loop_start) {
  counters_.pairs_generated = source_->stats().pairs_emitted;
  counters_.loop_vtime = comm_.clock().time() - loop_start;

  auto& metrics = comm_.metrics();
  metrics.counter("pace.pairs_generated").add(counters_.pairs_generated);
  metrics.counter("pace.pairs_aligned").add(counters_.pairs_aligned);
  metrics.counter("pace.dp_cells").add(counters_.dp_cells);
  metrics.gauge("pace.t_sort", obs::MergeOp::kMax).set(counters_.sort_vtime);
  metrics.gauge("pace.t_align", obs::MergeOp::kMax)
      .set(counters_.loop_vtime);

  publish_aligner_metrics(comm_, aligner_, counters_.pairs_aligned);
  return counters_;
}

}  // namespace estclust::pace
