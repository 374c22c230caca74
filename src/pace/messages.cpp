#include "pace/messages.hpp"

#include "mpr/clock.hpp"
#include "mpr/mailbox.hpp"

namespace estclust::pace {

namespace {

// Exact wire size of a vector field: 8-byte length prefix plus payload.
template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}

}  // namespace

obs::ProfileOptions profile_options() {
  obs::ProfileOptions opts;
  opts.tag_names = {{kTagReport, "REPORT"},
                    {kTagAssign, "ASSIGN"},
                    {kTagAck, "ACK"},
                    {kTagHeartbeat, "HEARTBEAT"}};
  opts.internal_tag_base = mpr::kInternalTagBase;
  opts.recv_overhead = mpr::CostModel{}.recv_overhead;
  return opts;
}

mpr::Buffer encode_report(const ReportMsg& m, bool reliable) {
  mpr::BufWriter w;
  w.reserve(vec_bytes(m.results) + vec_bytes(m.pairs) + sizeof(std::uint8_t) +
            2 * sizeof(std::uint64_t) +
            (reliable ? 3 * sizeof(std::uint64_t) : 0));
  w.put_vec(m.results);
  w.put_vec(m.pairs);
  w.put<std::uint8_t>(m.out_of_pairs ? 1 : 0);
  w.put<std::uint64_t>(m.memo_lookups);
  w.put<std::uint64_t>(m.memo_hits);
  if (reliable) {
    w.put<std::uint64_t>(m.seq);
    w.put<std::uint64_t>(m.results_for_seq);
    w.put<std::uint64_t>(m.ack_assign_seq);
  }
  return w.take();
}

ReportMsg decode_report(const mpr::Buffer& b, bool reliable) {
  mpr::BufReader r(b);
  ReportMsg m;
  m.results = r.get_vec<WireResult>();
  m.pairs = r.get_vec<pairgen::PromisingPair>();
  m.out_of_pairs = r.get<std::uint8_t>() != 0;
  m.memo_lookups = r.get<std::uint64_t>();
  m.memo_hits = r.get<std::uint64_t>();
  if (reliable) {
    m.seq = r.get<std::uint64_t>();
    m.results_for_seq = r.get<std::uint64_t>();
    m.ack_assign_seq = r.get<std::uint64_t>();
  }
  r.expect_exhausted("report");
  return m;
}

mpr::Buffer encode_assign(const AssignMsg& m, bool reliable) {
  mpr::BufWriter w;
  w.reserve(vec_bytes(m.work) + sizeof(std::uint64_t) +
            sizeof(std::uint8_t) + (reliable ? sizeof(std::uint64_t) : 0));
  w.put_vec(m.work);
  w.put<std::uint64_t>(m.request);
  w.put<std::uint8_t>(m.stop);
  if (reliable) {
    w.put<std::uint64_t>(m.seq);
  }
  return w.take();
}

AssignMsg decode_assign(const mpr::Buffer& b, bool reliable) {
  mpr::BufReader r(b);
  AssignMsg m;
  m.work = r.get_vec<pairgen::PromisingPair>();
  m.request = r.get<std::uint64_t>();
  m.stop = r.get<std::uint8_t>();
  if (reliable) {
    m.seq = r.get<std::uint64_t>();
  }
  r.expect_exhausted("assign");
  return m;
}

mpr::Buffer encode_ack(const AckMsg& m) {
  mpr::BufWriter w;
  w.reserve(sizeof(std::uint64_t));
  w.put<std::uint64_t>(m.seq);
  return w.take();
}

AckMsg decode_ack(const mpr::Buffer& b) {
  mpr::BufReader r(b);
  AckMsg m;
  m.seq = r.get<std::uint64_t>();
  r.expect_exhausted("ack");
  return m;
}

mpr::Buffer encode_heartbeat(const HeartbeatMsg& m) {
  mpr::BufWriter w;
  w.reserve(sizeof(std::uint64_t));
  w.put<std::uint64_t>(m.last_report_seq);
  return w.take();
}

HeartbeatMsg decode_heartbeat(const mpr::Buffer& b) {
  mpr::BufReader r(b);
  HeartbeatMsg m;
  m.last_report_seq = r.get<std::uint64_t>();
  r.expect_exhausted("heartbeat");
  return m;
}

}  // namespace estclust::pace
