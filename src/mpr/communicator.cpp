#include "mpr/communicator.hpp"

#include <algorithm>

#include "mpr/fault.hpp"
#include "mpr/runtime.hpp"
#include "util/check.hpp"

namespace estclust::mpr {

Communicator::Communicator(Runtime& rt, int rank) : rt_(rt), rank_(rank) {
  if (rt_.tracing()) tracer_ = &rt_.tracer()->rank(rank_);
  check_ = rt_.check_sink();
  fault_ = rt_.fault_plan();
}

std::string Communicator::check_op_label() const {
  const int depth = std::min(check_op_depth_, kMaxCheckOpDepth);
  if (depth == 0) return "recv";
  std::string label = check_ops_[0];
  for (int i = 1; i < depth; ++i) {
    label += '/';
    label += check_ops_[i];
  }
  return label;
}

int Communicator::size() const { return rt_.size(); }

VirtualClock& Communicator::clock() { return rt_.clock(rank_); }

const CostModel& Communicator::cost_model() const { return rt_.cost_model(); }

RankStats& Communicator::stats() { return rt_.stats(rank_); }

obs::MetricsRegistry& Communicator::metrics() {
  if (check_) check_->guard_access(rank_, "metrics");
  return rt_.metrics(rank_);
}

void Communicator::charge(double unit_cost, std::uint64_t count) {
  clock().advance(unit_cost * static_cast<double>(count));
}

void Communicator::send_internal(int dest, int tag, Buffer payload,
                                 double extra_delay) {
  ESTCLUST_CHECK(dest >= 0 && dest < size());
  const CostModel& cm = cost_model();
  VirtualClock& clk = clock();
  clk.advance_comm(cm.send_overhead);
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.arrival_vtime = clk.time() + cm.message_cost(payload.size()) + extra_delay;
  auto& st = stats();
  ++st.messages_sent;
  st.bytes_sent += payload.size();
  if (tracer_) {
    // Flow ids are (rank+1) ## per-rank sequence, so they are globally
    // unique and identical across same-seed runs.
    m.flow_id = (static_cast<std::uint64_t>(rank_ + 1) << 40) | flow_seq_++;
    tracer_->flow_out(m.flow_id, dest, payload.size(), tag);
  }
  m.payload = std::move(payload);
  const std::size_t bytes = m.payload.size();
  rt_.mailbox(dest).push(std::move(m));
  if (check_) {
    check_->on_send(rank_, dest, tag, bytes);
    check_->message_pushed(dest);
  }
}

void Communicator::send_faulted(int dest, int tag, Buffer payload) {
  ESTCLUST_CHECK(dest >= 0 && dest < size());
  const CostModel& cm = cost_model();
  VirtualClock& clk = clock();
  const SendFate f = fault_->fate(rank_);
  // Each lost attempt burned one timeout and one retransmission: the
  // sender's clock pays per attempt, the delivery carries the full
  // backoff schedule in extra_delay.
  clk.advance_comm(cm.send_overhead * static_cast<double>(f.attempts));
  auto& mx = metrics();
  if (f.attempts > 1) {
    mx.counter("fault.drops").add(static_cast<std::uint64_t>(f.attempts - 1));
    if (tracer_) {
      tracer_->instant("fault.retransmit", "fault",
                       static_cast<std::uint64_t>(f.attempts - 1));
    }
  }
  if (f.delayed) {
    mx.counter("fault.delays").add(1);
    if (tracer_) {
      tracer_->instant("fault.delay", "fault",
                       static_cast<std::uint64_t>(dest));
    }
  }
  const double base = clk.time() + cm.message_cost(payload.size());
  auto& st = stats();
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.arrival_vtime = base + f.extra_delay;
  ++st.messages_sent;
  st.bytes_sent += payload.size();
  if (tracer_) {
    m.flow_id = (static_cast<std::uint64_t>(rank_ + 1) << 40) | flow_seq_++;
    tracer_->flow_out(m.flow_id, dest, payload.size(), tag);
  }
  Message dup;
  const bool duplicated = f.copies == 2;
  if (duplicated) {
    dup.src = rank_;
    dup.tag = tag;
    dup.payload = payload;  // copy before the primary takes the buffer
    dup.arrival_vtime = base + f.dup_delay;
    ++st.messages_sent;
    st.bytes_sent += dup.payload.size();
    if (tracer_) {
      dup.flow_id = (static_cast<std::uint64_t>(rank_ + 1) << 40) | flow_seq_++;
      tracer_->flow_out(dup.flow_id, dest, dup.payload.size(), tag);
    }
    mx.counter("fault.dups").add(1);
    if (tracer_) {
      tracer_->instant("fault.duplicate", "fault",
                       static_cast<std::uint64_t>(dest));
    }
  }
  m.payload = std::move(payload);
  const std::size_t bytes = m.payload.size();
  if (duplicated) {
    // One lock for both copies, primary first: any receiver that saw the
    // primary finds the duplicate already queued, so duplicate drains at
    // protocol exit points are race-free and deterministic.
    const std::size_t dup_bytes = dup.payload.size();
    rt_.mailbox(dest).push_pair(std::move(m), std::move(dup));
    if (check_) {
      check_->on_send(rank_, dest, tag, bytes);
      check_->on_send(rank_, dest, tag, dup_bytes);
      check_->message_pushed(dest);
    }
  } else {
    rt_.mailbox(dest).push(std::move(m));
    if (check_) {
      check_->on_send(rank_, dest, tag, bytes);
      check_->message_pushed(dest);
    }
  }
}

void Communicator::send(int dest, int tag, Buffer payload) {
  ESTCLUST_CHECK_MSG(tag >= 0 && tag < kInternalTagBase,
                     "user tags must be in [0, 2^24)");
  if (fault_) {
    send_faulted(dest, tag, std::move(payload));
    return;
  }
  send_internal(dest, tag, std::move(payload));
}

void Communicator::send_delayed(int dest, int tag, Buffer payload,
                                double extra_delay) {
  ESTCLUST_CHECK_MSG(tag >= 0 && tag < kInternalTagBase,
                     "user tags must be in [0, 2^24)");
  ESTCLUST_CHECK(extra_delay >= 0.0);
  send_internal(dest, tag, std::move(payload), extra_delay);
}

Message Communicator::finish_recv(Message m) {
  VirtualClock& clk = clock();
  // Idle skipped at this receive, captured before sync_to consumes it.
  // Recorded on the flow event (never charged), it lets the critical-path
  // profiler identify binding receives without replaying the clocks.
  const double wait = std::max(0.0, m.arrival_vtime - clk.time());
  clk.sync_to(m.arrival_vtime);
  clk.advance_comm(cost_model().recv_overhead);
  ++stats().messages_received;
  if (check_) {
    check_->on_receive(rank_, m.src, m.tag, m.payload.size());
    check_->audit_clock(rank_, clk);
  }
  if (tracer_) {
    tracer_->flow_in(m.flow_id, m.src, m.payload.size(), m.tag, wait);
  }
  return m;
}

Message Communicator::recv_internal(int src, int tag) {
  Message m = check_ ? check_->blocking_pop(rt_.mailbox(rank_), rank_, src,
                                            tag, check_op_label())
                     : rt_.mailbox(rank_).pop(src, tag);
  return finish_recv(std::move(m));
}

Message Communicator::recv(int src, int tag) { return recv_internal(src, tag); }

Message Communicator::recv2(int src, int tag_a, int tag_b) {
  ESTCLUST_CHECK_MSG(src != kAnySource && tag_a >= 0 && tag_b >= 0 &&
                         tag_a < kInternalTagBase && tag_b < kInternalTagBase,
                     "recv2 requires a concrete source and two user tags");
  Message m = check_ ? check_->blocking_pop2(rt_.mailbox(rank_), rank_, src,
                                             tag_a, tag_b, check_op_label())
                     : rt_.mailbox(rank_).pop2(src, tag_a, tag_b);
  return finish_recv(std::move(m));
}

std::optional<Message> Communicator::try_recv(int src, int tag) {
  if (check_) check_->guard_access(rank_, "mailbox.try_recv");
  auto m = rt_.mailbox(rank_).try_pop(src, tag);
  if (!m) return std::nullopt;
  return finish_recv(std::move(*m));
}

bool Communicator::probe(int src, int tag) {
  if (check_) check_->guard_access(rank_, "mailbox.probe");
  return rt_.mailbox(rank_).probe(src, tag);
}

template <typename T>
T Communicator::allreduce_impl(T v, const std::function<T(T, T)>& op) {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.allreduce", "comm");
  CheckOpScope check_scope(*this, "mpr.allreduce");
  const int p = size();
  const int reduce_tag = kInternalTagBase + 2 * collective_seq_;
  const int bcast_tag = reduce_tag + 1;
  ++collective_seq_;
  if (p == 1) return v;

  // Binomial-tree reduce toward rank 0.
  for (int k = 1; k < p; k <<= 1) {
    if (rank_ & k) {
      BufWriter w;
      w.put(v);
      send_internal(rank_ - k, reduce_tag, w.take());
      break;
    }
    if (rank_ + k < p) {
      Message m = recv_internal(rank_ + k, reduce_tag);
      BufReader r(m.payload);
      v = op(v, r.get<T>());
    }
  }

  // Binomial-tree broadcast from rank 0. Parent of r is r with its lowest
  // set bit cleared; children are r + 2^j for descending j below that bit.
  int top = 1;
  while (top < p) top <<= 1;
  int lsb = rank_ == 0 ? top : (rank_ & -rank_);
  if (rank_ != 0) {
    Message m = recv_internal(rank_ & (rank_ - 1), bcast_tag);
    BufReader r(m.payload);
    v = r.get<T>();
  }
  for (int k = lsb >> 1; k >= 1; k >>= 1) {
    if (rank_ + k < p) {
      BufWriter w;
      w.put(v);
      send_internal(rank_ + k, bcast_tag, w.take());
    }
  }
  return v;
}

void Communicator::barrier() {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.barrier", "comm");
  CheckOpScope check_scope(*this, "mpr.barrier");
  allreduce_impl<std::uint64_t>(
      0, [](std::uint64_t a, std::uint64_t b) { return a | b; });
}

std::uint64_t Communicator::allreduce_sum(std::uint64_t v) {
  return allreduce_impl<std::uint64_t>(
      v, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

double Communicator::allreduce_sum(double v) {
  return allreduce_impl<double>(v, [](double a, double b) { return a + b; });
}

double Communicator::allreduce_max(double v) {
  return allreduce_impl<double>(
      v, [](double a, double b) { return std::max(a, b); });
}

std::uint64_t Communicator::allreduce_max(std::uint64_t v) {
  return allreduce_impl<std::uint64_t>(
      v, [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
}

std::vector<std::uint64_t> Communicator::allreduce_sum_vec(
    std::vector<std::uint64_t> v) {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.allreduce", "comm");
  CheckOpScope check_scope(*this, "mpr.allreduce_vec");
  const int p = size();
  const int reduce_tag = kInternalTagBase + 2 * collective_seq_;
  const int bcast_tag = reduce_tag + 1;
  ++collective_seq_;
  if (p == 1) return v;

  for (int k = 1; k < p; k <<= 1) {
    if (rank_ & k) {
      BufWriter w;
      w.put_vec(v);
      send_internal(rank_ - k, reduce_tag, w.take());
      break;
    }
    if (rank_ + k < p) {
      Message m = recv_internal(rank_ + k, reduce_tag);
      BufReader r(m.payload);
      auto other = r.get_vec<std::uint64_t>();
      ESTCLUST_CHECK(other.size() == v.size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] += other[i];
      charge(cost_model().byte_op, v.size() * 8);
    }
  }

  int top = 1;
  while (top < p) top <<= 1;
  int lsb = rank_ == 0 ? top : (rank_ & -rank_);
  if (rank_ != 0) {
    Message m = recv_internal(rank_ & (rank_ - 1), bcast_tag);
    BufReader r(m.payload);
    v = r.get_vec<std::uint64_t>();
  }
  for (int k = lsb >> 1; k >= 1; k >>= 1) {
    if (rank_ + k < p) {
      BufWriter w;
      w.put_vec(v);
      send_internal(rank_ + k, bcast_tag, w.take());
    }
  }
  return v;
}

std::vector<std::uint64_t> Communicator::allgather(std::uint64_t v) {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.allgather", "comm");
  CheckOpScope check_scope(*this, "mpr.allgather");
  const int p = size();
  const int gather_tag = kInternalTagBase + 2 * collective_seq_;
  const int bcast_tag = gather_tag + 1;
  ++collective_seq_;
  std::vector<std::uint64_t> all(p, 0);
  all[rank_] = v;
  if (p == 1) return all;

  if (rank_ == 0) {
    for (int r = 1; r < p; ++r) {
      Message m = recv_internal(r, gather_tag);
      BufReader br(m.payload);
      all[r] = br.get<std::uint64_t>();
    }
  } else {
    BufWriter w;
    w.put(v);
    send_internal(0, gather_tag, w.take());
  }

  int top = 1;
  while (top < p) top <<= 1;
  int lsb = rank_ == 0 ? top : (rank_ & -rank_);
  if (rank_ != 0) {
    Message m = recv_internal(rank_ & (rank_ - 1), bcast_tag);
    BufReader br(m.payload);
    all = br.get_vec<std::uint64_t>();
  }
  for (int k = lsb >> 1; k >= 1; k >>= 1) {
    if (rank_ + k < p) {
      BufWriter w;
      w.put_vec(all);
      send_internal(rank_ + k, bcast_tag, w.take());
    }
  }
  return all;
}

Buffer Communicator::broadcast(Buffer from_root) {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.broadcast", "comm");
  CheckOpScope check_scope(*this, "mpr.broadcast");
  const int p = size();
  const int tag = kInternalTagBase + 2 * collective_seq_;
  ++collective_seq_;
  if (p == 1) return from_root;

  int top = 1;
  while (top < p) top <<= 1;
  int lsb = rank_ == 0 ? top : (rank_ & -rank_);
  Buffer data = std::move(from_root);
  if (rank_ != 0) {
    Message m = recv_internal(rank_ & (rank_ - 1), tag);
    data = std::move(m.payload);
  }
  for (int k = lsb >> 1; k >= 1; k >>= 1) {
    if (rank_ + k < p) {
      send_internal(rank_ + k, tag, data);  // copy: several children
    }
  }
  return data;
}

std::vector<Buffer> Communicator::all_to_all(std::vector<Buffer> sendbufs) {
  ESTCLUST_TRACE_SPAN(tracer_, "mpr.all_to_all", "comm");
  CheckOpScope check_scope(*this, "mpr.all_to_all");
  const int p = size();
  ESTCLUST_CHECK(static_cast<int>(sendbufs.size()) == p);
  const int tag = kInternalTagBase + 2 * collective_seq_;
  ++collective_seq_;

  std::vector<Buffer> result(p);
  // Local copy costs byte_op per byte; remote buffers pay the message cost.
  charge(cost_model().byte_op, sendbufs[rank_].size());
  result[rank_] = std::move(sendbufs[rank_]);
  for (int off = 1; off < p; ++off) {
    int dest = (rank_ + off) % p;
    send_internal(dest, tag, std::move(sendbufs[dest]));
  }
  for (int off = 1; off < p; ++off) {
    int src = (rank_ - off % p + p) % p;
    Message m = recv_internal(src, tag);
    result[src] = std::move(m.payload);
  }
  return result;
}

double run_ranks(int nranks, const CostModel& cm,
                 const std::function<void(Communicator&)>& rank_main) {
  Runtime rt(nranks, cm);
  rt.run(rank_main);
  return rt.elapsed_vtime();
}

}  // namespace estclust::mpr
