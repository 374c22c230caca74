// estclust — EST clustering command-line front end; usage() lists every option.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/splice.hpp"
#include "assembly/consensus.hpp"
#include "bio/fasta.hpp"
#include "check/checker.hpp"
#include "gst/builder.hpp"
#include "mpr/fault.hpp"
#include "mpr/runtime.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pairgen/source.hpp"
#include "quality/report.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace estclust;

int usage() {
  std::cerr
      << "usage: estclust <simulate|cluster|eval|splice|assemble> [options]\n"
         "  simulate --ests N [--genes G] [--seed S] [--alt-splice P]\n"
         "           --out lib.fa [--truth truth.txt]\n"
         "  cluster  --in lib.fa --out clusters.txt [--psi 20] [--window 8]\n"
         "           [--min-quality 0.8] [--min-overlap 40] [--band 8]\n"
         "           [--batchsize 60] [--ranks P]  (P > 1: simulated\n"
         "            parallel run)\n"
         "           [--pair-source gst|kmer]  (candidate filter: GST\n"
         "            walk or k-mer inverted index; clusters are\n"
         "            identical across backends)\n"
         "           [--trace trace.json] [--breakdown report.txt]\n"
         "           [--profile[=prof.json]] [--metrics]\n"
         "           [--check off|warn|strict]  (Chrome trace, phase\n"
         "            breakdown, critical-path profile, metrics dump and\n"
         "            protocol checking run on the virtual-time runtime at\n"
         "            any --ranks; the clusters are unchanged)\n"
         "           [--faults off|seed=U64,drop=P,dup=P,delay=P,\n"
         "                     kill=RANK@VTIME,...]  (deterministic fault\n"
         "            injection into the master/slave protocol; needs\n"
         "            --ranks 2 or more. Clusters are unchanged by any plan.)\n"
         "  eval     --clusters clusters.txt --truth truth.txt --in lib.fa\n"
         "           (OQ/OV/UN/CC against one gene id per line, EST order)\n"
         "  splice   --in lib.fa [--psi 20] [--window 8] [--min-gap 25]\n"
         "  assemble --in lib.fa --out contigs.fa [cluster options]\n";
  return 2;
}

/// Opens `path` for writing. Every command opens its outputs before it
/// starts work, so a bad path fails fast instead of after the run.
std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  ESTCLUST_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  return os;
}

/// An integer flag that must be at least `min`. Checked before the cast,
/// so "-3" is an error that names the flag, not a wrapped huge value.
std::uint64_t count_flag(const CliArgs& args, const std::string& name,
                         std::int64_t fallback, std::int64_t min = 0) {
  const std::int64_t v = args.get_int(name, fallback);
  ESTCLUST_CHECK_MSG(v >= min, "--" << name << " must be at least " << min
                                    << " (got " << v << ")");
  return static_cast<std::uint64_t>(v);
}

int cmd_simulate(const CliArgs& args) {
  sim::SimConfig cfg = sim::scaled_config(
      count_flag(args, "ests", 500),
      static_cast<std::uint64_t>(args.get_int("seed", 20020811)));
  if (args.get("genes")) cfg.num_genes = count_flag(args, "genes", 1, 1);
  cfg.alt_splice_prob = args.get_double("alt-splice", 0.0);

  const std::string out = args.get_string("out", "library.fa");
  std::ofstream fasta = open_output(out);
  const auto truth_path = args.get("truth");
  std::optional<std::ofstream> truth;
  if (truth_path) truth = open_output(*truth_path);

  auto wl = sim::generate(cfg);
  std::vector<bio::Sequence> seqs;
  for (std::size_t i = 0; i < wl.ests.num_ests(); ++i) {
    seqs.push_back(wl.ests.est(static_cast<bio::EstId>(i)));
  }
  bio::write_fasta(fasta, seqs);
  std::cout << "wrote " << seqs.size() << " ESTs from " << cfg.num_genes
            << " genes to " << out << "\n";
  if (truth) {
    for (auto g : wl.truth) *truth << g << '\n';
    std::cout << "wrote truth labels to " << *truth_path << "\n";
  }
  return 0;
}

pace::PaceConfig cluster_config(const CliArgs& args) {
  pace::PaceConfig cfg;
  cfg.psi = static_cast<std::uint32_t>(count_flag(args, "psi", 20));
  cfg.gst.window = static_cast<std::uint32_t>(count_flag(args, "window", 8));
  cfg.batchsize = count_flag(args, "batchsize", 60, 1);
  cfg.overlap.min_quality = args.get_double("min-quality", 0.8);
  ESTCLUST_CHECK_MSG(
      cfg.overlap.min_quality >= 0.0 && cfg.overlap.min_quality <= 1.0,
      "--min-quality must be in [0, 1] (got " << cfg.overlap.min_quality
                                              << ")");
  cfg.overlap.min_overlap = count_flag(args, "min-overlap", 40);
  cfg.overlap.band = count_flag(args, "band", 8);
  const std::string source = args.get_string("pair-source", "gst");
  const auto backend = pairgen::parse_backend(source);
  ESTCLUST_CHECK_MSG(backend.has_value(),
                     "--pair-source must be gst or kmer (got '"
                         << source << "')");
  cfg.pair_source = *backend;
  return cfg;
}

int cmd_cluster(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  auto cfg = cluster_config(args);

  const auto trace_path = args.get("trace");
  const auto breakdown_path = args.get("breakdown");
  const bool want_metrics = args.has_flag("metrics");
  // --profile alone prints the report; --profile=FILE also writes the
  // deterministic profile JSON. Profiling reads the trace.
  const bool want_profile = args.has_flag("profile");
  const auto profile_path = args.get("profile");
  const bool tracing =
      trace_path.has_value() || breakdown_path.has_value() || want_profile;

  mpr::CheckMode check_mode = mpr::CheckMode::kOff;
  const std::string check_arg = args.get_string("check", "off");
  ESTCLUST_CHECK_MSG(check::parse_check_mode(check_arg, &check_mode),
                     "--check must be off, warn or strict (got '"
                         << check_arg << "')");

  const mpr::FaultSpec faults =
      mpr::parse_fault_spec(args.get_string("faults", "off"));
  faults.validate();
  const int ranks = static_cast<int>(args.get_int("ranks", 1));
  ESTCLUST_CHECK_MSG(ranks >= 1, "--ranks must be at least 1 (got "
                                     << ranks << ")");
  ESTCLUST_CHECK_MSG(!faults.enabled || ranks >= 2,
                     "--faults needs --ranks 2 or more: faults are injected "
                     "into the master/slave protocol");

  bio::EstSet ests(bio::read_fasta_file(*in));
  const std::string out = args.get_string("out", "clusters.txt");
  std::ofstream os = open_output(out);
  std::optional<std::ofstream> trace_os, breakdown_os, profile_os;
  if (trace_path) trace_os = open_output(*trace_path);
  if (breakdown_path) breakdown_os = open_output(*breakdown_path);
  if (profile_path && !profile_path->empty()) {
    profile_os = open_output(*profile_path);
  }

  std::vector<std::uint32_t> labels;
  if (ranks > 1 || tracing || want_metrics ||
      check_mode != mpr::CheckMode::kOff) {
    // The modeled run. At one rank it is the same pipeline as the plain
    // run below, on the virtual clock, so observing it changes nothing.
    mpr::Runtime rt(ranks, mpr::CostModel{});
    if (faults.enabled) {
      rt.set_fault_plan(std::make_shared<mpr::FaultPlan>(faults, ranks));
      std::cout << "fault injection: " << mpr::format_fault_spec(faults)
                << "\n";
    }
    if (tracing) rt.enable_tracing();
    check::Checker* checker = check::enable_checking(rt, check_mode);
    auto res = pace::cluster_parallel(rt, ests, cfg);
    labels = std::move(res.labels);
    std::cout << ranks << "-rank run: " << res.stats.pairs_processed
              << " of " << res.stats.pairs_generated
              << " promising pairs aligned; modeled run-time "
              << res.stats.t_total << " virt s\n";
    if (trace_os) {
      obs::write_chrome_trace(*trace_os, *rt.tracer());
      std::cout << "trace (" << rt.tracer()->total_events()
                << " events) written to " << *trace_path << "\n";
    }
    if (breakdown_os) {
      obs::write_breakdown_report(*breakdown_os, *rt.tracer(),
                                  rt.rank_times());
      std::cout << "phase breakdown written to " << *breakdown_path << "\n";
    }
    if (want_profile) {
      const obs::ProfileOptions popts = pace::profile_options();
      const obs::Profile prof =
          obs::build_profile(*rt.tracer(), rt.rank_times(), popts);
      if (profile_os) {
        obs::write_profile_json(*profile_os, prof);
        std::cout << "profile (" << prof.path.segments.size()
                  << " critical-path segments) written to " << *profile_path
                  << "\n";
      }
      obs::write_profile_report(std::cout, prof, popts);
    }
    if (want_metrics) rt.merged_metrics().write_report(std::cout);
    if (checker) {
      const auto findings = checker->findings();
      if (findings.empty()) {
        std::cout << "check (" << check_arg << "): clean\n";
      } else {
        std::cout << "check (" << check_arg << "): " << findings.size()
                  << " finding(s) logged\n";
      }
    }
  } else {
    WallTimer timer;
    auto res = pace::cluster_sequential(ests, cfg);
    const double seconds = timer.seconds();
    labels = res.clusters.labels();
    std::cout << res.stats.pairs_processed << " of "
              << res.stats.pairs_generated
              << " promising pairs aligned in " << seconds << " s\n";
  }

  // Group ESTs by label, ordered by smallest member.
  std::map<std::uint32_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    groups[labels[i]].push_back(i);
  }
  std::size_t cid = 0;
  for (const auto& [label, members] : groups) {
    os << ">cluster_" << cid++ << " size=" << members.size() << '\n';
    for (auto i : members) {
      os << ests.est(static_cast<bio::EstId>(i)).id << '\n';
    }
  }
  std::cout << groups.size() << " clusters written to " << out << "\n";
  return 0;
}

int cmd_eval(const CliArgs& args) {
  auto clusters_path = args.get("clusters");
  auto truth_path = args.get("truth");
  auto in = args.get("in");
  if (!clusters_path || !truth_path || !in) return usage();

  bio::EstSet ests(bio::read_fasta_file(*in));
  std::map<std::string, std::size_t> name_to_idx;
  for (std::size_t i = 0; i < ests.num_ests(); ++i) {
    name_to_idx[ests.est(static_cast<bio::EstId>(i)).id] = i;
  }

  std::vector<std::uint32_t> predicted(ests.num_ests(), 0);
  std::ifstream cs(*clusters_path);
  ESTCLUST_CHECK_MSG(cs.good(), "cannot open " << *clusters_path);
  std::string line;
  std::uint32_t current = 0;
  bool seen_header = false;
  while (std::getline(cs, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      current = seen_header ? current + 1 : 0;
      seen_header = true;
    } else {
      auto it = name_to_idx.find(line);
      ESTCLUST_CHECK_MSG(it != name_to_idx.end(),
                         "unknown EST name '" << line << "'");
      predicted[it->second] = current;
    }
  }

  std::vector<std::uint32_t> truth;
  std::ifstream ts(*truth_path);
  ESTCLUST_CHECK_MSG(ts.good(), "cannot open " << *truth_path);
  std::uint32_t g = 0;
  while (ts >> g) truth.push_back(g);
  ESTCLUST_CHECK_MSG(truth.size() == ests.num_ests(),
                     "truth file has " << truth.size() << " labels for "
                                       << ests.num_ests() << " ESTs");

  auto report = quality::build_report(predicted, truth);
  const auto& pc = report.pairs;
  TablePrinter t({"metric", "value (%)"});
  t.add_row({"OQ (overlap quality)", TablePrinter::fmt(pc.overlap_quality())});
  t.add_row({"OV (over-prediction)", TablePrinter::fmt(pc.over_prediction())});
  t.add_row({"UN (under-prediction)",
             TablePrinter::fmt(pc.under_prediction())});
  t.add_row({"CC (correlation)", TablePrinter::fmt(pc.correlation())});
  t.print(std::cout);

  std::cout << "\ncluster diagnostics: " << report.clusters.size()
            << " predicted clusters, " << report.impure_clusters()
            << " impure; " << report.truths.size() << " true genes, "
            << report.fragmented_truths() << " fragmented; weighted purity "
            << TablePrinter::fmt(100.0 * report.weighted_purity(), 2)
            << "%\n";
  std::size_t shown = 0;
  for (const auto& c : report.clusters) {
    if (c.truth_clusters <= 1 || shown >= 5) continue;
    std::cout << "  impure cluster " << c.label << ": " << c.size
              << " ESTs from " << c.truth_clusters << " genes (purity "
              << TablePrinter::fmt(100.0 * c.purity, 1) << "%)\n";
    ++shown;
  }
  return 0;
}

int cmd_splice(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  bio::EstSet ests(bio::read_fasta_file(*in));

  analysis::SpliceParams params;
  params.psi = static_cast<std::uint32_t>(count_flag(args, "psi", 20));
  params.min_gap = count_flag(args, "min-gap", 25);

  auto forest = gst::build_forest_sequential(
      ests, static_cast<std::uint32_t>(count_flag(args, "window", 8)));
  auto candidates =
      analysis::detect_alternative_splicing(ests, forest, params);

  TablePrinter t({"EST A", "EST B", "orient", "gap", "in", "flanks",
                  "flank id"});
  for (const auto& c : candidates) {
    t.add_row({ests.est(c.a).id, ests.est(c.b).id, c.b_rc ? "rc" : "fwd",
               TablePrinter::fmt(static_cast<std::uint64_t>(c.gap_len)),
               c.gap_in_a ? "A" : "B",
               TablePrinter::fmt(static_cast<std::uint64_t>(c.left_flank)) +
                   "/" +
                   TablePrinter::fmt(
                       static_cast<std::uint64_t>(c.right_flank)),
               TablePrinter::fmt(c.flank_identity, 3)});
  }
  t.print(std::cout);
  std::cout << candidates.size()
            << " alternative-splicing candidate pair(s)\n";
  return 0;
}

int cmd_assemble(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  bio::EstSet ests(bio::read_fasta_file(*in));
  auto cfg = cluster_config(args);
  const std::string out = args.get_string("out", "contigs.fa");
  std::ofstream os = open_output(out);

  auto res = pace::cluster_sequential(ests, cfg);
  auto contigs = assembly::assemble_clusters(ests, res.overlaps);

  std::vector<bio::Sequence> out_seqs;
  for (std::size_t c = 0; c < contigs.size(); ++c) {
    std::ostringstream id;
    id << "contig_" << c << " ests=" << contigs[c].num_ests()
       << " len=" << contigs[c].consensus.size();
    out_seqs.push_back({id.str(), contigs[c].consensus});
  }
  bio::write_fasta(os, out_seqs);
  std::cout << contigs.size() << " contigs from " << ests.num_ests()
            << " ESTs written to " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  estclust::CliArgs args(argc - 1, argv + 1);
  try {
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "cluster") return cmd_cluster(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "splice") return cmd_splice(args);
    if (cmd == "assemble") return cmd_assemble(args);
  } catch (const std::exception& e) {
    std::cerr << "estclust: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
