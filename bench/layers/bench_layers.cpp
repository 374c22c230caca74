// bench_layers — the layered half of the per-layer benchmark (README.md).
//
//   bench_layers workloads
//   bench_layers generate --workload W --seed S --fasta lib.fa --truth t.txt
//                         [--scale X]
//   bench_layers setup    --workload W --fasta lib.fa
//   bench_layers layered  --workload W --fasta lib.fa --labels labels.txt
//                         [--trace-dir DIR]
//
// `workloads` prints the workload table: the one place that owns each
// workload's generator settings, CLI flags and rank count (run.py asks for
// it). `generate` writes a workload's library from a seed. `setup` times
// the work before the first promising pair. `layered` runs the clustering
// by calling each module's public functions from outside and timing every
// call, so nothing in src/ carries instrumentation; it prints one JSON
// object of per-layer measurements and writes the partition as one label
// per EST (the smallest member id of its cluster) for the runner's
// partition gate. Spans stay in memory; --trace-dir also writes them as a
// Chrome/Perfetto trace.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "align/dispatch.hpp"
#include "bio/fasta.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "mpr/runtime.hpp"
#include "pace/aligner.hpp"
#include "pace/parallel.hpp"
#include "pairgen/source.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace estclust;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload table. The generator settings are copied here rather than taken
// from bench/common.hpp, so an edit there cannot silently change the
// benchmark's traffic. Every workload uses the gst backend, the auto kernel
// and the pipeline settings of bench_pace_config (w = 6, overlap evidence
// above the 70-base repeat length).

// A library is `parts` independently generated sub-libraries with their
// ESTs interleaved, cut where its bases reach `bases`. In one generator run
// every paralog descends from a few early genes and one Zipf ranking gives
// a few genes most reads, so those genes' lengths set the run time and the
// spread from seed to seed exceeds a 10% regression bound; independent
// parts average it out. The base budget keeps N, and with it the GST's
// memory, the same on every seed. Each part holds enough ESTs to reach it.
struct Workload {
  const char* name;
  int ranks;                 ///< --ranks; 1 is the sequential driver
  std::uint32_t window;      ///< --window
  std::size_t min_overlap;   ///< --min-overlap
  std::size_t parts;
  std::size_t bases;
  sim::SimConfig part;       ///< one part's generator settings
};

/// ~12 ESTs per gene, 400-base reads with 2% substitutions and 0.5% indels,
/// 30% paralogs and 20% of transcripts carrying a 70-base repeat.
sim::SimConfig paper_library(std::size_t num_ests, std::size_t genes) {
  sim::SimConfig c = sim::scaled_config(num_ests);
  c.num_genes = genes;
  c.est_len_mean = 400;
  c.est_len_stddev = 80;
  c.est_len_min = 120;
  c.sub_rate = 0.02;
  c.ins_rate = 0.005;
  c.del_rate = 0.005;
  c.paralog_fraction = 0.3;
  c.paralog_divergence = 0.15;
  c.repeat_prob = 0.2;
  c.repeat_len = 70;
  c.repeat_divergence = 0.10;
  return c;
}

/// A gene-family-rich library: most genes are close paralogs of an earlier
/// gene and most transcripts carry a repeat, so most promising pairs are
/// aligned and rejected.
sim::SimConfig families_library(std::size_t num_ests, std::size_t genes) {
  sim::SimConfig c = paper_library(num_ests, genes);
  c.paralog_fraction = 0.9;
  c.paralog_divergence = 0.05;
  c.repeat_prob = 0.66;
  c.est_len_mean = 800;
  c.sub_rate = 0.03;
  c.expression_skew = 0.3;
  return c;
}

/// Deep coverage: few genes, ~100 ESTs each, scaled_config's error model.
sim::SimConfig deep_library(std::size_t num_ests, std::size_t genes) {
  sim::SimConfig c = sim::scaled_config(num_ests);
  c.num_genes = genes;
  c.min_exons = c.max_exons = 4;
  return c;
}

// Expression skew stays below 1.0 everywhere: Prng::zipf divides by
// (1 - theta), so theta = 1 collapses a library to about two genes.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"paper", 1, 6, 100, 8, 1000000, paper_library(360, 26)},
      {"families", 1, 6, 100, 8, 1200000, families_library(230, 100)},
      {"deep", 1, 6, 100, 8, 900000, deep_library(290, 5)},
      {"parallel", 4, 6, 100, 8, 1600000, paper_library(560, 41)},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return w;
  }
  ESTCLUST_CHECK_MSG(false, "unknown workload '" << name << "'");
  return workloads().front();
}

/// The PaceConfig `estclust cluster` builds from the workload's flags.
pace::PaceConfig pace_config(const Workload& w) {
  pace::PaceConfig cfg;
  cfg.gst.window = w.window;
  cfg.overlap.min_overlap = w.min_overlap;
  return cfg;
}

// ---------------------------------------------------------------------------
// Output helpers.

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Writes `"key": value` pairs as one JSON object line.
class JsonLine {
 public:
  JsonLine& add(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    out_ += (out_.empty() ? "{" : ", ");
    out_ += '"' + key + "\": " + json;
    return *this;
  }
  std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Span ledger: one entry per timed call into a layer, kept in memory and
// aggregated at exit.

enum class Span : std::uint8_t {
  kIngest, kGstBuild, kPairgenBuild, kNext, kEvaluate, kUnite, kTeardown,
  kParBuild, kParCluster, kCount
};

constexpr const char* kSpanNames[] = {
    "bio.ingest", "gst.build", "pairgen.build", "pairgen.next",
    "align.evaluate", "cluster.unite", "gst.teardown", "gst.par_build",
    "pace.cluster"};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(Span::kCount));

class Ledger {
 public:
  Ledger() : origin_(Clock::now()) {}

  void add(Span s, Clock::time_point begin, Clock::time_point end) {
    spans_.push_back({s, begin, end});
    total_[static_cast<std::size_t>(s)] += seconds(begin, end);
  }

  template <typename F>
  auto time(Span s, F&& f) {
    const auto begin = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(s, begin, Clock::now());
    } else {
      auto r = f();
      add(s, begin, Clock::now());
      return r;
    }
  }

  double total(Span s) const { return total_[static_cast<std::size_t>(s)]; }

  /// Nearest-rank percentile of one span kind's durations, microseconds.
  double percentile_us(Span s, double q) const {
    std::vector<double> d;
    for (const auto& e : spans_) {
      if (e.kind == s) d.push_back(seconds(e.begin, e.end) * 1e6);
    }
    if (d.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(d.size())));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, d.size()) - 1;
    std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                     d.end());
    return d[k];
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_trace(std::ostream& os) const {
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const auto& e : spans_) {
      os << (first ? "\n" : ",\n") << "{\"name\": \""
         << kSpanNames[static_cast<std::size_t>(e.kind)]
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << num(seconds(origin_, e.begin) * 1e6)
         << ", \"dur\": " << num(seconds(e.begin, e.end) * 1e6) << "}";
      first = false;
    }
    os << "\n]}\n";
  }

 private:
  struct Entry {
    Span kind;
    Clock::time_point begin, end;
  };
  Clock::time_point origin_;
  std::vector<Entry> spans_;
  double total_[static_cast<std::size_t>(Span::kCount)] = {};
};

bio::EstSet ingest(const std::string& path) {
  return bio::EstSet(bio::read_fasta_file(path));
}

/// Builds the distributed GST in its own runtime, as the parallel driver
/// does (the master owns no buckets). Returns each rank's local forest so
/// their destruction can be timed separately.
std::vector<std::vector<gst::Tree>> build_parallel(
    const bio::EstSet& ests, const Workload& w,
    std::vector<gst::ParallelBuildStats>* stats) {
  const pace::PaceConfig cfg = pace_config(w);
  std::vector<std::vector<gst::Tree>> forests(
      static_cast<std::size_t>(w.ranks));
  stats->assign(static_cast<std::size_t>(w.ranks), {});
  mpr::Runtime rt(w.ranks, mpr::CostModel{});
  rt.run([&](mpr::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    forests[r] = gst::build_forest_parallel(comm, ests, cfg.gst, &(*stats)[r],
                                            /*first_owner_rank=*/1);
  });
  return forests;
}

// ---------------------------------------------------------------------------
// Subcommands.

/// The workload table plus what the layered numbers are read against: the
/// kernel variant this host runs and the modeled per-unit costs.
int cmd_workloads() {
  const mpr::CostModel cm;
  std::cout << "{\"kernel\": \"" << align::to_string(align::active_kernel())
            << "\", \"cost_model_ns\": "
            << JsonLine()
                   .add("char_op", cm.char_op * 1e9)
                   .add("sort_op", cm.sort_op * 1e9)
                   .add("pair_op", cm.pair_op * 1e9)
                   .add("dp_cell", cm.dp_cell * 1e9)
                   .add("uf_op", cm.uf_op * 1e9)
                   .str()
            << ", \"workloads\": ";
  const char* sep = "{";
  for (const auto& w : workloads()) {
    std::cout << sep << '"' << w.name << "\": {\"cli\": [\"--window\", \""
              << w.window
              << "\", \"--min-overlap\", \"" << w.min_overlap
              << "\", \"--ranks\", \"" << w.ranks << "\"]}";
    sep = ", ";
  }
  std::cout << "}}\n";
  return 0;
}

int cmd_generate(const CliArgs& args) {
  const Workload& w = find_workload(args.get_string("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20020811));
  const double scale = args.get_double("scale", 1.0);
  ESTCLUST_CHECK_MSG(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
  const auto scaled = [&](std::size_t v, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(
                               static_cast<double>(v) * scale));
  };
  sim::SimConfig cfg = w.part;
  cfg.num_ests = scaled(cfg.num_ests, 10);
  cfg.num_genes = scaled(cfg.num_genes, 2);

  std::vector<sim::Workload> parts;
  for (std::size_t k = 0; k < w.parts; ++k) {
    cfg.seed = seed + k * 0x9E3779B97F4A7C15ULL;
    parts.push_back(sim::generate(cfg));
  }
  const std::size_t budget = scaled(w.bases, 1);
  std::vector<bio::Sequence> seqs;
  std::vector<std::uint32_t> truth;
  std::size_t bases = 0;
  for (std::size_t i = 0; i < cfg.num_ests && bases < budget; ++i) {
    for (std::size_t k = 0; k < w.parts && bases < budget; ++k) {
      seqs.push_back({"est" + std::to_string(seqs.size()),
                      parts[k].ests.est(static_cast<bio::EstId>(i)).bases});
      bases += seqs.back().bases.size();
      truth.push_back(
          static_cast<std::uint32_t>(k * cfg.num_genes + parts[k].truth[i]));
    }
  }
  ESTCLUST_CHECK_MSG(bases >= budget, "workload '" << w.name << "' reached "
                                          << bases << " of " << budget
                                          << " bases");

  bio::write_fasta_file(args.get_string("fasta", "library.fa"), seqs);
  const std::string truth_path = args.get_string("truth", "truth.txt");
  std::ofstream ts(truth_path);
  ESTCLUST_CHECK_MSG(ts.good(), "cannot open " << truth_path);
  for (auto g : truth) ts << g << '\n';
  std::cout << JsonLine()
                   .add("ests", static_cast<double>(seqs.size()))
                   .add("bases", static_cast<double>(bases))
                   .str()
            << "\n";
  return 0;
}

/// Time before the first promising pair: ingest, GST and pair source on
/// the sequential path; ingest and the distributed GST on the parallel one.
int cmd_setup(const CliArgs& args) {
  const Workload& w = find_workload(args.get_string("workload", ""));
  const pace::PaceConfig cfg = pace_config(w);
  // Destroyed after the clock stops: teardown is not setup.
  bio::EstSet ests;
  std::vector<gst::ParallelBuildStats> stats;
  std::vector<std::vector<gst::Tree>> forests;
  std::vector<gst::Tree> forest;
  std::unique_ptr<pairgen::PairSource> source;
  const auto begin = Clock::now();
  ests = ingest(args.get_string("fasta", "library.fa"));
  if (w.ranks > 1) {
    forests = build_parallel(ests, w, &stats);
  } else {
    forest = gst::build_forest_sequential(ests, cfg.gst.window);
    source = pairgen::make_pair_source(cfg.pair_source, ests, forest,
                                       cfg.gst.window, cfg.psi);
  }
  std::cout << JsonLine().add("setup_s", seconds(begin, Clock::now())).str()
            << "\n";
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The sequential driver's loop (pace/sequential.cpp) with every call into
/// a layer timed: next_batch, then same, evaluate and unite.
void layered_sequential(const Workload& w, const bio::EstSet& ests,
                        Ledger& ledger, JsonLine& out,
                        std::vector<std::uint32_t>* labels) {
  const pace::PaceConfig cfg = pace_config(w);

  gst::BuildCounters counters;
  const double rss_before_gst = rss_mb();
  auto forest = ledger.time(Span::kGstBuild, [&] {
    return gst::build_forest_sequential(ests, cfg.gst.window, &counters);
  });
  const double rss_after_gst = rss_mb();
  auto source = ledger.time(Span::kPairgenBuild, [&] {
    return pairgen::make_pair_source(cfg.pair_source, ests, forest,
                                     cfg.gst.window, cfg.psi);
  });
  const double rss_after_source = rss_mb();

  cluster::UnionFind uf(ests.num_ests());
  pace::PairAligner aligner(ests, cfg);
  std::vector<pairgen::PromisingPair> batch;
  std::uint64_t pairs = 0, skipped = 0, aligned = 0, accepted = 0,
                dp_cells = 0, work_units = 0;
  const auto loop_begin = Clock::now();
  for (;;) {
    const std::size_t got = ledger.time(
        Span::kNext, [&] { return source->next_batch(cfg.batchsize, batch); });
    if (got == 0) break;
    work_units += source->take_work_units();
    for (const auto& p : batch) {
      ++pairs;
      if (uf.same(p.a, p.b)) {
        ++skipped;
        continue;
      }
      const pace::PairEvaluation ev =
          ledger.time(Span::kEvaluate, [&] { return aligner.evaluate(p); });
      ++aligned;
      dp_cells += ev.overlap.cells;
      if (ev.accepted) {
        ++accepted;
        ledger.time(Span::kUnite, [&] { uf.unite(p.a, p.b); });
      }
    }
    batch.clear();
  }
  const double loop_s = seconds(loop_begin, Clock::now());
  // Loop self time: UnionFind::same plus the loop's own bookkeeping.
  const double check_s = loop_s - ledger.total(Span::kNext) -
                         ledger.total(Span::kEvaluate) -
                         ledger.total(Span::kUnite);
  *labels = uf.labels();

  const std::uint64_t sort_units = source->construction_sort_units();
  const double index_mb =
      static_cast<double>(source->index_bytes()) / (1024.0 * 1024.0);
  std::uint64_t nodes = 0;
  for (const auto& t : forest) nodes += t.size();
  ledger.time(Span::kTeardown, [&] {
    source.reset();
    std::vector<gst::Tree>().swap(forest);
  });

  const pace::MemoStats& memo = aligner.memo_stats();
  const double gst_s = ledger.total(Span::kGstBuild);
  const double build_s = ledger.total(Span::kPairgenBuild);
  const double next_s = ledger.total(Span::kNext);
  const double eval_s = ledger.total(Span::kEvaluate);
  const double unite_s = ledger.total(Span::kUnite);
  out.add("gst.build_s", gst_s)
      .add("gst.chars_scanned", static_cast<double>(counters.chars_scanned))
      .add("gst.nodes", static_cast<double>(nodes))
      .add("gst.ns_per_char",
           ratio(gst_s * 1e9, static_cast<double>(counters.chars_scanned)))
      .add("gst.rss_mb", rss_after_gst - rss_before_gst)
      .add("gst.teardown_s", ledger.total(Span::kTeardown))
      .add("pairgen.build_s", build_s)
      .add("pairgen.sort_units", static_cast<double>(sort_units))
      .add("pairgen.ns_per_sort_unit",
           ratio(build_s * 1e9, static_cast<double>(sort_units)))
      .add("pairgen.index_mb", index_mb)
      .add("pairgen.rss_mb", rss_after_source - rss_after_gst)
      .add("pairgen.next_s", next_s)
      .add("pairgen.pairs", static_cast<double>(pairs))
      .add("pairgen.work_units", static_cast<double>(work_units))
      .add("pairgen.ns_per_work_unit",
           ratio(next_s * 1e9, static_cast<double>(work_units)))
      .add("pairgen.batch_p50_us", ledger.percentile_us(Span::kNext, 0.50))
      .add("pairgen.batch_p99_us", ledger.percentile_us(Span::kNext, 0.99))
      .add("align.evaluate_s", eval_s)
      .add("align.pairs", static_cast<double>(aligned))
      .add("align.accept_ratio", ratio(static_cast<double>(accepted),
                                       static_cast<double>(aligned)))
      .add("align.dp_cells", static_cast<double>(dp_cells))
      .add("align.ns_per_cell",
           ratio(eval_s * 1e9, static_cast<double>(dp_cells)))
      .add("align.memo_hit_ratio", ratio(static_cast<double>(memo.hits),
                                         static_cast<double>(memo.lookups)))
      .add("align.pair_p50_us", ledger.percentile_us(Span::kEvaluate, 0.50))
      .add("align.pair_p99_us", ledger.percentile_us(Span::kEvaluate, 0.99))
      .add("align.arena_mb",
           static_cast<double>(aligner.arena().high_water_bytes()) /
               (1024.0 * 1024.0))
      .add("cluster.check_s", check_s)
      .add("cluster.unite_s", unite_s)
      .add("cluster.skip_ratio", ratio(static_cast<double>(skipped),
                                       static_cast<double>(pairs)))
      .add("cluster.uf_ops", static_cast<double>(uf.operations()))
      .add("cluster.ns_per_uf_op",
           ratio((check_s + unite_s) * 1e9,
                 static_cast<double>(uf.operations())))
      .raw("self_s", JsonLine()
                         .add("bio.ingest", ledger.total(Span::kIngest))
                         .add("gst.build", gst_s)
                         .add("pairgen.build", build_s)
                         .add("pairgen.next", next_s)
                         .add("align.evaluate", eval_s)
                         .add("cluster.check", check_s)
                         .add("cluster.unite", unite_s)
                         .add("gst.teardown", ledger.total(Span::kTeardown))
                         .str());
}

/// The parallel workload: the distributed GST in its own runtime, then
/// cluster_parallel under a fresh runtime exactly as `estclust cluster
/// --ranks P` runs it.
void layered_parallel(const Workload& w, const bio::EstSet& ests,
                      Ledger& ledger, JsonLine& out,
                      std::vector<std::uint32_t>* labels) {
  std::vector<gst::ParallelBuildStats> build_stats;
  const double rss_before = rss_mb();
  auto forests = ledger.time(Span::kParBuild,
                             [&] { return build_parallel(ests, w, &build_stats); });
  const double rss_after = rss_mb();
  std::uint64_t chars = 0, nodes = 0, max_owned = 0, owned = 0;
  for (std::size_t r = 0; r < forests.size(); ++r) {
    chars += build_stats[r].chars_scanned;
    for (const auto& t : forests[r]) nodes += t.size();
    if (r >= 1) {  // rank 0, the master, owns no buckets
      max_owned = std::max(max_owned, build_stats[r].local_suffixes);
      owned += build_stats[r].local_suffixes;
    }
  }
  ledger.time(Span::kTeardown, [&] { decltype(forests)().swap(forests); });
  const double owners = static_cast<double>(w.ranks - 1);

  const pace::PaceConfig cfg = pace_config(w);
  std::vector<double> rank_wall(static_cast<std::size_t>(w.ranks), 0.0);
  pace::PaceStats stats;
  obs::MetricsRegistry merged;
  std::vector<obs::RankTime> rank_times;
  double model_s = 0.0;
  ledger.time(Span::kParCluster, [&] {
    mpr::Runtime rt(w.ranks, mpr::CostModel{});
    rt.run([&](mpr::Communicator& comm) {
      const auto begin = Clock::now();
      auto res = pace::cluster_parallel(comm, ests, cfg);
      rank_wall[static_cast<std::size_t>(comm.rank())] =
          seconds(begin, Clock::now());
      if (comm.rank() == 0) {  // the only writer; run() joins before reads
        *labels = std::move(res.labels);
        stats = res.stats;
      }
    });
    merged = rt.merged_metrics();
    rank_times = rt.rank_times();
    model_s = rt.elapsed_vtime();
  });
  double idle = 0.0, total = 0.0;
  for (const auto& t : rank_times) {
    idle += t.idle;
    total += t.total;
  }
  const double wall_max = *std::max_element(rank_wall.begin(), rank_wall.end());
  const double wall_min = *std::min_element(rank_wall.begin(), rank_wall.end());

  out.add("gst.par_build_s", ledger.total(Span::kParBuild))
      .add("gst.par_suffix_imbalance",
           ratio(static_cast<double>(max_owned),
                 static_cast<double>(owned) / owners))
      .add("gst.chars_scanned", static_cast<double>(chars))
      .add("gst.nodes", static_cast<double>(nodes))
      .add("gst.rss_mb", rss_after - rss_before)
      .add("gst.teardown_s", ledger.total(Span::kTeardown))
      .add("pace.cluster_s", ledger.total(Span::kParCluster))
      .add("pace.rank_wall_spread", ratio(wall_max - wall_min, wall_max))
      .add("pace.master_busy_frac", stats.master_busy_fraction)
      .add("pace.pairs_aligned", static_cast<double>(stats.pairs_processed))
      .add("pace.dp_cells", static_cast<double>(stats.dp_cells))
      .add("mpr.messages",
           static_cast<double>(merged.counter_value("mpr.messages_sent")))
      .add("mpr.bytes",
           static_cast<double>(merged.counter_value("mpr.bytes_sent")))
      .add("mpr.model_s", model_s)
      .add("mpr.idle_frac", ratio(idle, total))
      .raw("self_s",
           JsonLine()
               .add("bio.ingest", ledger.total(Span::kIngest))
               .add("gst.par_build", ledger.total(Span::kParBuild))
               .add("gst.teardown", ledger.total(Span::kTeardown))
               .add("pace.cluster", ledger.total(Span::kParCluster))
               .str())
      // cluster_parallel builds its own GST: the standalone build is work
      // the CLI does not do, so the tracing overhead excludes it.
      .add("extra_s",
           ledger.total(Span::kParBuild) + ledger.total(Span::kTeardown));
}

int cmd_layered(const CliArgs& args) {
  const Workload& w = find_workload(args.get_string("workload", ""));
  const std::string fasta = args.get_string("fasta", "library.fa");
  Ledger ledger;
  const bio::EstSet ests =
      ledger.time(Span::kIngest, [&] { return ingest(fasta); });

  JsonLine out;
  const double ingest_s = ledger.total(Span::kIngest);
  out.add("bio.ingest_s", ingest_s)
      .add("bio.ns_per_byte",
           ratio(ingest_s * 1e9, static_cast<double>(ests.total_est_chars())));
  std::vector<std::uint32_t> labels;
  if (w.ranks > 1) {
    layered_parallel(w, ests, ledger, out, &labels);
  } else {
    layered_sequential(w, ests, ledger, out, &labels);
  }

  const std::string labels_path = args.get_string("labels", "labels.txt");
  std::ofstream ls(labels_path);
  ESTCLUST_CHECK_MSG(ls.good(), "cannot open " << labels_path);
  for (auto l : labels) ls << l << '\n';
  if (auto dir = args.get("trace-dir")) {
    const std::string path = *dir + "/layers_trace.json";
    std::ofstream ts(path);
    ESTCLUST_CHECK_MSG(ts.good(), "cannot open " << path);
    ledger.write_chrome_trace(ts);
  }
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: bench_layers <workloads|generate|setup|layered> "
                 "[options]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (cmd == "workloads") return cmd_workloads();
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "layered") return cmd_layered(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_layers: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "bench_layers: unknown command '" << cmd << "'\n";
  return 2;
}
