#include "pace/master.hpp"

#include <algorithm>
#include <memory>

#include "gst/parallel.hpp"
#include "mpr/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace estclust::pace {

// The master keeps one protocol conversation per slave; each is an
// instance of this automaton (extracted and exhaustively checked by
// tools/analyze, family `proto`).
// ESTCLUST-PROTO-ROLE(role=master, init=expect_report, final=stopped|dead)

Master::Master(mpr::Communicator& comm, const bio::EstSet& ests,
               const PaceConfig& cfg)
    : comm_(comm),
      ests_(ests),
      cfg_(cfg),
      clusters_(ests.num_ests()),
      num_slaves_(comm.size() - 1),
      reliable_(comm.fault_plan() != nullptr),
      state_(comm.size(), SlaveState::kExpectingReport),
      passive_(comm.size(), false),
      last_report_seq_(comm.size(), 0),
      assign_seq_(comm.size(), 0),
      inflight_(comm.size()),
      assign_sent_(comm.size(), -1.0),
      last_reported_(comm.size(), 0),
      last_admitted_(comm.size(), 0),
      multiplier_(comm.size(), 1) {
  ESTCLUST_CHECK_MSG(num_slaves_ >= 1, "master requires at least one slave");
}

bool Master::all_waiting() const {
  for (int s = 1; s <= num_slaves_; ++s) {
    if (state_[s] == SlaveState::kExpectingReport) return false;
  }
  return true;
}

void Master::process_report(int slave, const ReportMsg& msg) {
  ++counters_.interactions;
  // Incorporate alignment results: merge clusters for accepted overlaps.
  for (const auto& r : msg.results) {
    if (r.accepted) {
      ++counters_.pairs_accepted;
      if (clusters_.unite(r.a, r.b)) ++counters_.merges;
      overlaps_.push_back({r.a, r.b, r.b_rc != 0,
                           static_cast<align::OverlapKind>(r.kind),
                           r.a_begin, r.a_end, r.b_begin, r.b_end,
                           static_cast<double>(r.quality)});
    }
  }
  // Admit reported pairs whose ESTs are still in different clusters.
  const std::uint64_t admitted = admit_pairs(msg.pairs);
  last_reported_[slave] = msg.pairs.size();
  last_admitted_[slave] = admitted;
  passive_[slave] = msg.out_of_pairs;

  // Adaptive batching: while a slave's recent traffic shows little
  // redundancy (few pairs filtered here, few memo hits there), larger
  // grants are safe — the staleness cost of acting on old cluster state is
  // evidently low — and each interaction saved is two messages saved.
  // High redundancy walks the multiplier back toward the paper's
  // batchsize.
  if (cfg_.adaptive_batch) {
    const std::uint64_t skipped = msg.pairs.size() - admitted;
    const std::uint64_t redundant = skipped + msg.memo_hits;
    const std::uint64_t denom = msg.pairs.size() + msg.memo_lookups;
    std::size_t& mul = multiplier_[slave];
    if (denom > 0) {
      if (redundant * 4 <= denom) {  // < 25% redundant: double the grant
        mul = std::min(mul * 2, cfg_.batch_growth_limit);
      } else if (redundant * 2 >= denom) {  // > 50% redundant: walk back
        mul = mul > 1 ? mul / 2 : 1;
      }
    }
  }

  // Charge union-find work incurred since the last report.
  std::uint64_t ops = clusters_.operations();
  comm_.charge(comm_.cost_model().uf_op, ops - uf_ops_charged_);
  uf_ops_charged_ = ops;
}

std::uint64_t Master::admit_pairs(
    const std::vector<pairgen::PromisingPair>& pairs) {
  std::uint64_t admitted = 0;
  for (const auto& p : pairs) {
    if (clusters_.same(p.a, p.b)) {
      ++counters_.pairs_skipped;
    } else {
      // The E rule keeps the buffer under capacity in steady state; the
      // unsolicited initial batches may nudge past it, so the capacity is
      // soft (compute_request sees nfree = 0 and throttles).
      workbuf_.push_back(p);
      ++counters_.pairs_enqueued;
      ++admitted;
    }
  }
  return admitted;
}

std::size_t Master::effective_batch(int slave) const {
  return cfg_.batchsize * multiplier_[slave];
}

std::uint64_t Master::compute_request(int slave) const {
  if (passive_[slave]) return 0;
  const double reported = static_cast<double>(last_reported_[slave]);
  const double admitted =
      static_cast<double>(std::max<std::uint64_t>(1, last_admitted_[slave]));
  const double delta_ratio = std::max(1.0, reported / admitted);  // Δ
  int active = 0;
  for (int s = 1; s <= num_slaves_; ++s) active += passive_[s] ? 0 : 1;
  const double delta_factor =
      static_cast<double>(num_slaves_) / std::max(1, active);  // δ
  const double nfree = static_cast<double>(
      cfg_.workbuf_capacity > workbuf_.size()
          ? cfg_.workbuf_capacity - workbuf_.size()
          : 0);
  const double e = std::min(
      delta_ratio * delta_factor *
          static_cast<double>(effective_batch(slave)),
      nfree / static_cast<double>(num_slaves_));
  return static_cast<std::uint64_t>(std::max(0.0, e));
}

std::vector<pairgen::PromisingPair> Master::take_work(int slave) {
  std::vector<pairgen::PromisingPair> work;
  const std::size_t w = std::min(effective_batch(slave), workbuf_.size());
  work.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    work.push_back(workbuf_.front());
    workbuf_.pop_front();
  }
  return work;
}

void Master::send_assign(int slave, AssignMsg& assign) {
  if (reliable_) {
    assign.seq = ++assign_seq_[slave];
    if (!assign.work.empty()) {
      // Retain a copy until the answering report's results_for_seq
      // releases it; a slave death re-enqueues whatever is still here.
      inflight_[slave].push_back({assign.seq, assign.work});
    }
  }
  // ESTCLUST-PROTO(state=served, send=ASSIGN -> expect_report, when=have_work)
  // ESTCLUST-PROTO(state=waiting, send=ASSIGN -> expect_report, when=have_work)
  // ESTCLUST-PROTO(state=waiting, send=ASSIGN -> flushing, when=flush)
  comm_.send(slave, kTagAssign, encode_assign(assign, reliable_));
  assign_sent_[slave] = comm_.clock().time();
  state_[slave] = SlaveState::kExpectingReport;
}

void Master::sample_report_latency(int slave) {
  if (assign_sent_[slave] < 0.0) return;
  comm_.metrics()
      .histogram("pace.assign_to_report_latency", 0.0, 1.0, 50)
      .add(comm_.clock().time() - assign_sent_[slave]);
  assign_sent_[slave] = -1.0;
}

void Master::reply(int slave) {
  AssignMsg assign;
  assign.work = take_work(slave);
  assign.request = compute_request(slave);
  if (assign.work.empty() && assign.request == 0) {
    // Nothing to do and nothing to ask for: park the slave (§3.3 wait
    // queue) instead of ping-ponging empty messages.
    // ESTCLUST-PROTO(state=served -> waiting, when=idle)
    state_[slave] = SlaveState::kWaiting;
    wait_queue_.push_back(slave);
    return;
  }
  send_assign(slave, assign);
}

void Master::drain_wait_queue() {
  while (!wait_queue_.empty() && !workbuf_.empty()) {
    int slave = wait_queue_.front();
    wait_queue_.pop_front();
    AssignMsg assign;
    assign.work = take_work(slave);
    assign.request = compute_request(slave);
    send_assign(slave, assign);
  }
}

bool Master::await_report(int slave, bool flush, ReportMsg& out) {
  for (;;) {
    mpr::Message m = [&] {
      mpr::CheckOpScope check_scope(comm_, flush ? "pace.master.await_flush"
                                                 : "pace.master.await_report");
      // Reliable mode stays responsive to the death notice; mailbox FIFO
      // order consumes every report the slave managed to send first.
      // ESTCLUST-PROTO(state=expect_report, on=REPORT -> got_report, when=fresh, mode=reliable, op=recv2)
      // ESTCLUST-PROTO(state=flushing, on=REPORT -> flush_got, when=fresh, mode=reliable, op=recv2)
      // ESTCLUST-PROTO(state=expect_report|flushing, on=REPORT -> ., when=dup, mode=reliable, op=recv2)
      // ESTCLUST-PROTO(state=expect_report|flushing, on=HEARTBEAT -> dead, mode=reliable, op=recv2)
      // ESTCLUST-PROTO(state=expect_report, on=REPORT -> got_report, mode=base, op=recv)
      // ESTCLUST-PROTO(state=flushing, on=REPORT -> flush_got, mode=base, op=recv)
      return reliable_ ? comm_.recv2(slave, kTagReport, kTagHeartbeat)
                       : comm_.recv(slave, kTagReport);
    }();
    if (reliable_ && m.tag == kTagHeartbeat) {
      handle_death(slave, decode_heartbeat(m.payload));
      return false;
    }
    out = decode_report(m.payload, reliable_);
    if (!reliable_) {
      sample_report_latency(slave);
      // ESTCLUST-PROTO(state=got_report -> served, mode=base)
      // ESTCLUST-PROTO(state=flush_got -> stopped, mode=base)
      return true;
    }
    if (out.seq <= last_report_seq_[slave]) {
      // Duplicated delivery of a report already incorporated.
      ++dup_reports_ignored_;
      continue;
    }
    ESTCLUST_CHECK_MSG(out.seq == last_report_seq_[slave] + 1,
                       "report sequence gap from slave " << slave);
    last_report_seq_[slave] = out.seq;
    sample_report_latency(slave);
    // The protocol alternates strictly per slave, so a fresh report must
    // acknowledge exactly the latest assignment.
    ESTCLUST_CHECK_MSG(out.ack_assign_seq == assign_seq_[slave],
                       "report acks assignment " << out.ack_assign_seq
                                                 << ", expected "
                                                 << assign_seq_[slave]);
    auto& inflight = inflight_[slave];
    for (auto it = inflight.begin(); it != inflight.end(); ++it) {
      if (it->seq == out.results_for_seq) {
        inflight.erase(it);
        break;
      }
    }
    // Ack before replying: the slave consumes the ack right after the
    // next assignment arrives, relying on this order.
    // ESTCLUST-PROTO(state=got_report, send=ACK -> served, mode=reliable)
    // ESTCLUST-PROTO(state=flush_got, send=ACK -> stopped, mode=reliable)
    AckMsg ack;
    ack.seq = out.seq;
    comm_.send(slave, kTagAck, encode_ack(ack));
    return true;
  }
}

void Master::handle_death(int slave, const HeartbeatMsg& hb) {
  ++counters_.slave_deaths;
  state_[slave] = SlaveState::kDead;
  passive_[slave] = true;
  for (auto it = wait_queue_.begin(); it != wait_queue_.end();) {
    it = *it == slave ? wait_queue_.erase(it) : it + 1;
  }
  // Every report the slave sent precedes its heartbeat in mailbox order
  // and was consumed by the await loop, so the bookkeeping must agree.
  ESTCLUST_CHECK_MSG(hb.last_report_seq == last_report_seq_[slave],
                     "dead slave " << slave << " reported through seq "
                                   << hb.last_report_seq << " but only "
                                   << last_report_seq_[slave]
                                   << " were received");
  // Re-enqueue the retained copies of unanswered assignments.
  std::uint64_t recovered = 0;
  for (const auto& ia : inflight_[slave]) {
    recovered += admit_pairs(ia.work);
  }
  inflight_[slave].clear();

  // Regenerate the dead slave's entire promising-pair stream: recomputing
  // its share of the workload offline is deterministic — for the GST
  // backend by rebuilding its forest share, for kmer through the slave's
  // own make_bucket_source call — so the regenerated stream is identical
  // to the one the slave was producing. Pairs the dead slave already
  // delivered (or that resolved transitively) fall to the same() filter;
  // re-aligning a survivor of the filter is idempotent — the aligner's
  // verdicts are deterministic and unite() converges — so the final
  // clusters match the fault-free run exactly.
  std::vector<gst::Tree> forest;
  std::unique_ptr<pairgen::PairSource> gen;
  if (cfg_.pair_source == pairgen::Backend::kGst) {
    gst::BuildCounters bc;
    forest = gst::rebuild_rank_forest(ests_, cfg_.gst, comm_.size(),
                                      /*first_owner_rank=*/1, slave, &bc);
    comm_.charge(comm_.cost_model().char_op, bc.chars_scanned);
    gen = pairgen::make_pair_source(cfg_.pair_source, ests_, forest,
                                    cfg_.gst.window, cfg_.psi);
  } else {
    gen = make_bucket_source(ests_, cfg_, comm_.size(),
                             /*first_owner_rank=*/1, slave, &comm_);
  }
  comm_.charge(comm_.cost_model().sort_op, gen->construction_sort_units());
  std::vector<pairgen::PromisingPair> batch;
  while (gen->next_batch(cfg_.pairbuf_capacity, batch) > 0) {
    comm_.charge(comm_.cost_model().pair_op, gen->take_work_units());
    recovered += admit_pairs(batch);
    batch.clear();
  }
  const std::uint64_t ops = clusters_.operations();
  comm_.charge(comm_.cost_model().uf_op, ops - uf_ops_charged_);
  uf_ops_charged_ = ops;
  counters_.pairs_recovered += recovered;
  comm_.metrics().counter("pace.pairs_recovered").add(recovered);
  if (obs::RankTracer* tracer = comm_.tracer()) {
    tracer->instant("pace.recover", "fault",
                    static_cast<std::uint64_t>(slave));
  }
}

bool Master::flush_parked(obs::RankTracer* tracer) {
  // All live slaves are parked and the work buffer is drained. Slaves
  // parked on the wait-queue still hold the results of their final
  // alignments (a report is only sent in response to an assignment), so
  // flush each with a final assignment whose stop flag retires the slave —
  // one coalesced ASSIGN/REPORT exchange per slave instead of flush +
  // separate STOP.
  for (int s = 1; s <= num_slaves_; ++s) {
    if (state_[s] != SlaveState::kWaiting) {
      ESTCLUST_CHECK(state_[s] == SlaveState::kStopped ||
                     state_[s] == SlaveState::kDead);
      continue;
    }
    for (auto it = wait_queue_.begin(); it != wait_queue_.end();) {
      it = *it == s ? wait_queue_.erase(it) : it + 1;
    }
    AssignMsg final_assign;
    final_assign.stop = 1;
    send_assign(s, final_assign);
    ReportMsg report;
    if (!await_report(s, /*flush=*/true, report)) {
      // s died before flushing. Its regenerated stream may have refilled
      // WORKBUF — if so, hand the recovered work to the slaves still
      // parked before stopping them.
      if (!workbuf_.empty()) return true;
      continue;
    }
    ESTCLUST_TRACE_SPAN(tracer, "master_flush", "phase");
    ESTCLUST_CHECK_MSG(report.pairs.empty(),
                       "parked slave produced pairs during final flush");
    process_report(s, report);
    state_[s] = SlaveState::kStopped;
  }
  ESTCLUST_CHECK_MSG(workbuf_.empty(),
                     "recovered work remains but no slave survives to "
                     "process it");
  return false;
}

void Master::run() {
  obs::RankTracer* tracer = comm_.tracer();
  // Every slave owes an unsolicited initial report. Service reports in
  // deterministic round-robin order; the wait-queue keeps idle passive
  // slaves out of the rotation until work appears for them.
  //
  // The "master_service" spans open only after a report has arrived and
  // close before the next blocking receive, so their total is the
  // master's genuine busy time (the §4.2 utilization numerator in the
  // breakdown report) — never the waiting.
  int cursor = 1;
  for (;;) {
    for (;;) {
      if (all_waiting()) {
        if (workbuf_.empty()) break;
        // Work but nobody owes a report: someone must be parked to take
        // it. With every slave dead the run cannot finish — fail loudly
        // rather than deadlock.
        ESTCLUST_CHECK_MSG(!wait_queue_.empty(),
                           "work remains but no slave is available to "
                           "take it");
        drain_wait_queue();
        continue;
      }
      // Advance to the next slave owing a report.
      while (state_[cursor] != SlaveState::kExpectingReport) {
        cursor = cursor % num_slaves_ + 1;
      }
      const int slave = cursor;
      cursor = cursor % num_slaves_ + 1;

      ReportMsg report;
      if (!await_report(slave, /*flush=*/false, report)) {
        continue;  // the slave died; its work has been recovered
      }
      {
        ESTCLUST_TRACE_SPAN(tracer, "master_service", "phase");
        process_report(slave, report);
        reply(slave);
        drain_wait_queue();
      }
    }
    // A death during the flush can refill WORKBUF from the regenerated
    // stream; resume the interaction loop with the still-parked slaves.
    if (!flush_parked(tracer)) break;
  }

  // Publish the master's counters onto the runtime's registry; merged
  // across ranks these join the slave-side counts under one namespace.
  auto& metrics = comm_.metrics();
  metrics.counter("pace.pairs_accepted").add(counters_.pairs_accepted);
  metrics.counter("pace.pairs_skipped").add(counters_.pairs_skipped);
  metrics.counter("pace.pairs_enqueued").add(counters_.pairs_enqueued);
  metrics.counter("pace.merges").add(counters_.merges);
  metrics.counter("pace.master_interactions").add(counters_.interactions);
  if (dup_reports_ignored_ > 0) {
    metrics.counter("pace.dup_reports_ignored").add(dup_reports_ignored_);
  }
  std::size_t max_mul = 1;
  for (int s = 1; s <= num_slaves_; ++s) {
    max_mul = std::max(max_mul, multiplier_[s]);
  }
  metrics.gauge("pace.batch_multiplier_max", obs::MergeOp::kMax)
      .set(static_cast<double>(max_mul));
}

}  // namespace estclust::pace
