// Alignment microbench: virtual-time work units (DP cells) per accepted
// pair with the exact and the bounded kernel, plus the per-kernel "area of
// computation" table behind §3.3's banding claim.
//
// Work is counted in DP cells — the unit the LogP cost model charges — so
// every number here is deterministic and byte-reproducible, and the
// bench_smoke ctest can assert that the bounded kernel does no more work
// than the exact one (and pin both against
// tests/data/bench_baseline.json) exactly.

#include "bench/common.hpp"

#include "align/kernel.hpp"
#include "align/nw.hpp"
#include "bio/alphabet.hpp"
#include "pace/sequential.hpp"
#include "util/prng.hpp"

namespace {

using namespace estclust;

std::string random_dna(Prng& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) c = bio::decode_base(static_cast<int>(rng.uniform(4)));
  return s;
}

/// A dovetail pair with ~1.5% errors and a clean central anchor.
struct OverlapCase {
  std::string a, b;
  align::Anchor anchor;
};

OverlapCase make_case(std::size_t len) {
  Prng rng(len);
  std::string shared = random_dna(rng, len);
  std::string noisy = shared;
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    bool in_core = i >= len / 2 - 10 && i < len / 2 + 10;
    if (!in_core && rng.bernoulli(0.015)) {
      noisy[i] = bio::decode_base(
          (bio::encode_base(noisy[i]) + 1 + static_cast<int>(rng.uniform(3))) %
          4);
    }
  }
  OverlapCase c;
  c.a = random_dna(rng, len) + shared;
  c.b = noisy + random_dna(rng, len);
  c.anchor = {c.a.size() - len + len / 2 - 10, len / 2 - 10, 20};
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace estclust::bench;
  CliArgs args(argc, argv);
  const double scale = parse_scale(args);
  const std::size_t n = scaled(
      static_cast<std::size_t>(args.get_int("ests", 600)), scale);

  // --- Engine comparison: the same clustering run under both kernels. ---
  Reporter engine("align_micro",
                  {"mode", "pairs", "accepted", "dp cells",
                   "cells per accepted", "speedup vs exact"},
                  args);
  if (!engine.json_mode()) {
    print_header("Alignment engine: work units per accepted pair",
                 "Section 3.3 (banded extension) + bounded early exit");
    std::cout << "ESTs: " << n
              << "  (cells = LogP-charged DP work units; identical clusters "
                 "in every mode)\n\n";
  }

  auto wl = sim::generate(bench_workload_config(n));

  struct Mode {
    const char* name;
    bool bounded;
  };
  double exact_cpa = 0.0;
  std::size_t exact_clusters = 0;
  for (const Mode mode : {Mode{"exact", false}, Mode{"bounded", true}}) {
    auto cfg = bench_pace_config();
    cfg.bounded_align = mode.bounded;
    // cluster_skip off: every emission of the promising-pair stream goes
    // through the aligner, exactly like the slaves' unsolicited batches
    // and the stale tail of large grants. This isolates the engine from
    // the master's union-find filter, which is a separate optimization.
    auto res = pace::cluster_sequential(wl.ests, cfg,
                                        {.cluster_skip = false});
    const auto& st = res.stats;
    const double cpa =
        static_cast<double>(st.dp_cells) /
        static_cast<double>(std::max<std::uint64_t>(1, st.pairs_accepted));
    if (exact_cpa == 0.0) {
      exact_cpa = cpa;
      exact_clusters = st.num_clusters;
    } else if (st.num_clusters != exact_clusters) {
      std::cerr << "FATAL: mode " << mode.name
                << " changed the clustering\n";
      return 1;
    }
    engine.add_row({mode.name, TablePrinter::fmt(st.pairs_processed),
                    TablePrinter::fmt(st.pairs_accepted),
                    TablePrinter::fmt(st.dp_cells),
                    TablePrinter::fmt(cpa, 1),
                    TablePrinter::fmt(exact_cpa / cpa, 3)});
  }
  engine.print(std::cout);

  // --- Kernel areas: cells touched per alignment strategy and length. ---
  Reporter kernels("align_kernels", {"kernel", "len", "cells"}, args);
  if (!kernels.json_mode()) {
    std::cout << "\nDP area per pair (cells), full matrix vs banded vs "
                 "anchored extension:\n\n";
  }
  for (std::size_t len : {std::size_t{100}, std::size_t{200},
                          std::size_t{400}}) {
    auto c = make_case(len);
    align::Scoring sc;
    align::OverlapParams params;
    const std::uint64_t nw_cells = align::global_align(c.a, c.b, sc).cells;
    std::uint64_t banded_cells = 0;
    align::banded_global_score(c.a, c.b, sc, 8, &banded_cells);
    const std::uint64_t anchored_cells =
        align::align_anchored(c.a, c.b, c.anchor, params).cells;
    kernels.add_row({"full NW", TablePrinter::fmt(len),
                     TablePrinter::fmt(nw_cells)});
    kernels.add_row({"banded global", TablePrinter::fmt(len),
                     TablePrinter::fmt(banded_cells)});
    kernels.add_row({"anchored extension", TablePrinter::fmt(len),
                     TablePrinter::fmt(anchored_cells)});
  }
  kernels.print(std::cout);
  if (!kernels.json_mode()) {
    std::cout << "\nExpected shape: bounded mode cuts cells on rejected "
              << "pairs; clusters never\nchange. Banding turns the "
              << "quadratic full matrix into a linear strip.\n";
  }

  // --- Wall-clock: scalar vs SIMD band sweeps on the same pair set. ---
  // Real time, so machine-dependent: opt-in via --wallclock and gated by
  // the bench_wallclock ctest through relative speedups only. Every
  // variant must also reproduce the scalar scores and cell counts exactly
  // — a mismatch is a hard failure, not a slow row.
  if (args.has_flag("wallclock")) {
    Reporter wall("align_wallclock",
                  {"kernel", "len", "pairs", "reps", "cells",
                   "kernel wall s", "speedup vs scalar"},
                  args);
    if (!wall.json_mode()) {
      std::cout << "\nKernel variants, wall-clock per sweep over one pair "
                   "set (band 8):\n\n";
    }
    std::vector<align::KernelVariant> variants{
        align::KernelVariant::kScalar};
    if (align::cpu_supports(align::KernelVariant::kSse2)) {
      variants.push_back(align::KernelVariant::kSse2);
    }
    if (align::cpu_supports(align::KernelVariant::kAvx2)) {
      variants.push_back(align::KernelVariant::kAvx2);
    }
    const std::size_t kBand = 8;
    align::Scoring sc;
    align::AlignArena arena;
    for (std::size_t len : {std::size_t{200}, std::size_t{400}}) {
      std::vector<std::pair<std::string, std::string>> cases;
      Prng rng(1234 + len);
      for (int i = 0; i < 8; ++i) {
        std::string a = random_dna(rng, len);
        std::string b = a;
        for (auto& ch : b) {
          if (rng.bernoulli(0.02)) {
            ch = bio::decode_base(
                (bio::encode_base(ch) + 1 + static_cast<int>(rng.uniform(3)))
                % 4);
          }
        }
        cases.emplace_back(std::move(a), std::move(b));
      }
      const std::size_t reps = 240000 / len;
      double scalar_s = 0.0;
      long scalar_sum = 0;
      std::uint64_t scalar_cells = 0;
      for (const align::KernelVariant v : variants) {
        long sum = 0;
        std::uint64_t cells = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r) {
          for (const auto& [a, b] : cases) {
            const auto res =
                align::extend_overlap_variant(v, a, b, sc, kBand, arena);
            sum += res.score + static_cast<long>(res.a_len);
            cells += res.cells;
          }
        }
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (v == align::KernelVariant::kScalar) {
          scalar_s = secs;
          scalar_sum = sum;
          scalar_cells = cells;
        } else if (sum != scalar_sum || cells != scalar_cells) {
          std::cerr << "FATAL: kernel " << align::to_string(v)
                    << " diverged from scalar at len " << len << "\n";
          return 1;
        }
        wall.add_row({align::to_string(v), TablePrinter::fmt(len),
                      TablePrinter::fmt(cases.size()),
                      TablePrinter::fmt(reps), TablePrinter::fmt(cells),
                      TablePrinter::fmt(secs, 6),
                      TablePrinter::fmt(scalar_s / secs, 3)});
      }
    }
    wall.print(std::cout);
    if (!wall.json_mode()) {
      std::cout << "\nSpeedups are relative to the scalar sweep in this "
                   "same process; scores and\ncell counts are asserted "
                   "identical across variants before timing is reported.\n";
    }
  }
  return 0;
}
