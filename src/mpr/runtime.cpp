#include "mpr/runtime.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.hpp"
#include "util/log.hpp"

namespace estclust::mpr {

Runtime::Runtime(int nranks, CostModel cm)
    : cm_(cm), clocks_(nranks), stats_(nranks), metrics_(nranks) {
  ESTCLUST_CHECK(nranks > 0);
  mailboxes_.reserve(nranks);
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void Runtime::enable_tracing() {
  tracer_ = std::make_unique<obs::TraceRecorder>(size());
  for (int r = 0; r < size(); ++r) {
    tracer_->rank(r).bind(r, clocks_[r].time_ptr(), tracer_->epoch());
  }
}

void Runtime::run(const std::function<void(Communicator&)>& rank_main) {
  const int p = size();
  std::vector<std::thread> threads;
  threads.reserve(p);
  std::exception_ptr first_error;
  std::mutex error_mutex;

  if (check_) check_->begin_run(p);
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      set_log_rank(r);
      if (check_) check_->rank_started(r);
      Communicator comm(*this, r);
      bool crashed = false;
      try {
        rank_main(comm);
      } catch (const CheckAbort&) {
        // Secondary abort: another rank already diagnosed the failure and
        // cancelled this rank's blocking receive. The primary report is
        // thrown from finalize() below, so this one carries no new
        // information and is dropped.
        crashed = true;
      } catch (...) {
        crashed = true;
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (check_) check_->rank_finished(r, comm.collective_count(), crashed);
      set_log_rank(-1);
    });
  }
  for (auto& t : threads) t.join();

  // Fold the runtime's own communication totals into each rank's registry
  // so merged_metrics() carries them alongside module metrics.
  for (int r = 0; r < p; ++r) {
    metrics_[r].counter("mpr.messages_sent").set(stats_[r].messages_sent);
    metrics_[r].counter("mpr.bytes_sent").set(stats_[r].bytes_sent);
    metrics_[r]
        .counter("mpr.messages_received")
        .set(stats_[r].messages_received);
  }

  // A genuine rank exception is the root cause (ranks blocked on the dead
  // rank abort via CheckAbort and were dropped above); otherwise let the
  // checker throw its deadlock report / strict-mode audit findings.
  if (first_error) std::rethrow_exception(first_error);
  if (check_) check_->finalize();
}

obs::MetricsRegistry Runtime::merged_metrics() const {
  obs::MetricsRegistry merged;
  for (const auto& m : metrics_) merged.merge_from(m);
  return merged;
}

double Runtime::elapsed_vtime() const {
  double t = 0.0;
  for (const auto& c : clocks_) t = std::max(t, c.time());
  return t;
}

double Runtime::total_busy_vtime() const {
  double t = 0.0;
  for (const auto& c : clocks_) t += c.active_time();
  return t;
}

std::vector<obs::RankTime> Runtime::rank_times() const {
  std::vector<obs::RankTime> out(clocks_.size());
  for (std::size_t r = 0; r < clocks_.size(); ++r) {
    out[r].busy = clocks_[r].busy_time();
    out[r].comm = clocks_[r].comm_time();
    out[r].idle = clocks_[r].idle_time();
    out[r].total = clocks_[r].time();
  }
  return out;
}

}  // namespace estclust::mpr
