// Shared helpers for the experiment-reproduction benches.
//
// Every bench accepts --scale S (or env ESTCLUST_BENCH_SCALE) to multiply
// the default problem sizes toward the paper's 81,414-EST runs; defaults
// finish in seconds on a 4-core machine. Sizes are reported in every table
// so the output is self-describing.
#pragma once

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "mpr/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pace/config.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace estclust::bench {

inline double parse_scale(const CliArgs& args) {
  double s = args.get_double("scale", 1.0);
  if (s == 1.0) {
    s = static_cast<double>(CliArgs::env_int("ESTCLUST_BENCH_SCALE", 1));
  }
  return s <= 0 ? 1.0 : s;
}

inline std::size_t scaled(std::size_t base, double scale) {
  return static_cast<std::size_t>(static_cast<double>(base) * scale);
}

/// Paper-typical pipeline parameters, shrunk to the bench EST length.
inline pace::PaceConfig bench_pace_config() {
  pace::PaceConfig cfg;
  // The paper uses w = 8 for 81k ESTs (4^8 = 65k buckets). The bench data
  // is ~40x smaller, so the proportionate window is w = 6 (4^6 = 4k
  // buckets) — with w = 8 the fixed histogram cost would swamp the
  // partitioning phase at these sizes.
  cfg.gst.window = 6;
  cfg.psi = 20;
  cfg.batchsize = 60;    // paper: "batchsize is chosen to be sixty pairs"
  // Overlap evidence must exceed the length of any repeat element in the
  // bench workload (70 bases, below): a pair whose only shared sequence
  // is a repeat then cannot clear the bar, the same defence assemblers
  // get from repeat masking.
  cfg.overlap.min_overlap = 100;
  return cfg;
}

inline sim::SimConfig bench_workload_config(std::size_t num_ests,
                                            std::uint64_t seed = 20020811) {
  sim::SimConfig cfg = sim::scaled_config(num_ests, seed);
  cfg.est_len_mean = 400;  // paper: average EST length ~500-600
  cfg.est_len_stddev = 80;
  cfg.est_len_min = 120;
  cfg.sub_rate = 0.02;  // noisier reads: some alignments get rejected
  cfg.ins_rate = 0.005;
  cfg.del_rate = 0.005;
  // Gene families and repeats: the realistic sources of promising pairs
  // that fail alignment (Fig 7's processed >> accepted gap) and of the
  // paper's small but nonzero over-prediction.
  cfg.paralog_fraction = 0.3;
  cfg.paralog_divergence = 0.15;
  cfg.repeat_prob = 0.2;
  cfg.repeat_len = 70;  // kept below min_overlap (see bench_pace_config)
  cfg.repeat_divergence = 0.10;
  return cfg;
}

/// A parallel bench run plus its observability products: the merged
/// metrics registry (every counter/gauge the pipeline published), the
/// per-rank virtual busy/comm/idle split, and — for traced runs — the
/// critical-path profile.
struct BenchRun {
  pace::ParallelResult result;
  obs::MetricsRegistry metrics;
  std::vector<obs::RankTime> rank_times;
  obs::Profile profile;  ///< traced runs only
};

/// Runs the parallel clustering at rank count p and returns rank 0's view
/// together with the runtime's merged metrics. `traced` runs also get the
/// critical-path profile (pure post-processing — the run itself is
/// bit-identical either way).
inline BenchRun run_parallel_obs(const bio::EstSet& ests,
                                 const pace::PaceConfig& cfg, int p,
                                 bool traced = false) {
  mpr::Runtime rt(p, mpr::CostModel{});
  if (traced) rt.enable_tracing();
  BenchRun run;
  run.result = pace::cluster_parallel(rt, ests, cfg);
  run.metrics = rt.merged_metrics();
  run.rank_times = rt.rank_times();
  if (traced) {
    run.profile = obs::build_profile(*rt.tracer(), run.rank_times,
                                     pace::profile_options());
  }
  return run;
}

/// Runs the parallel clustering at rank count p and returns rank 0's view.
inline pace::ParallelResult run_parallel(const bio::EstSet& ests,
                                         const pace::PaceConfig& cfg,
                                         int p) {
  return run_parallel_obs(ests, cfg, p).result;
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "Reproduces: " << paper_ref << "\n\n";
}

/// Emits bench rows either as a fixed-width table (default) or, with
/// --json, as one machine-readable JSON object per row on stdout. Keys are
/// derived from the column headers; numeric cells stay unquoted. In JSON
/// mode each row is emitted as soon as it is added, so partial output from
/// an interrupted sweep is still usable. Each JSON row also carries
/// `wall_s` — the real wall-clock seconds spent since the previous row
/// (or since construction) — next to the modeled virtual times, so
/// simulator cost is observable without affecting any table or gate.
class Reporter {
 public:
  Reporter(std::string bench_name, std::vector<std::string> headers,
           const CliArgs& args)
      : bench_(std::move(bench_name)),
        headers_(headers),
        json_(args.has_flag("json")),
        table_(std::move(headers)),
        last_row_time_(std::chrono::steady_clock::now()) {}

  void add_row(std::vector<std::string> cells) {
    if (json_) {
      const auto now = std::chrono::steady_clock::now();
      const double wall_s =
          std::chrono::duration<double>(now - last_row_time_).count();
      last_row_time_ = now;
      std::cout << "{\"bench\":\"" << json_escape(bench_) << "\"";
      for (std::size_t i = 0; i < cells.size() && i < headers_.size(); ++i) {
        std::cout << ",\"" << key_of(headers_[i]) << "\":";
        if (is_numeric(cells[i])) {
          std::cout << cells[i];
        } else {
          std::cout << '"' << json_escape(cells[i]) << '"';
        }
      }
      // %.17g, the round-trip-exact convention used everywhere else
      // (obs/profile.cpp): %.6f truncated sub-microsecond rows to 0 and a
      // comma-decimal locale would break every --json consumer. snprintf
      // still honors the C locale's decimal point, so normalize defensively.
      char wall[64];
      std::snprintf(wall, sizeof(wall), "%.17g", wall_s);
      for (char* p = wall; *p; ++p) {
        if (*p == ',') *p = '.';
      }
      std::cout << ",\"wall_s\":" << wall << "}\n";
    }
    table_.add_row(std::move(cells));
  }

  /// Prints the accumulated fixed-width table (no-op in --json mode, where
  /// every row has already been streamed out).
  void print(std::ostream& os) const {
    if (!json_) table_.print(os);
  }

  bool json_mode() const { return json_; }

 private:
  static std::string key_of(const std::string& header) {
    std::string key;
    bool last_sep = true;  // avoid a leading underscore
    for (char c : header) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        key.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
        last_sep = false;
      } else if (!last_sep) {
        key.push_back('_');
        last_sep = true;
      }
    }
    while (!key.empty() && key.back() == '_') key.pop_back();
    return key.empty() ? "col" : key;
  }

  static bool is_numeric(const std::string& s) {
    if (s.empty()) return false;
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
  }

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<std::string> headers_;
  bool json_;
  TablePrinter table_;
  std::chrono::steady_clock::time_point last_row_time_;
};

}  // namespace estclust::bench
