#!/usr/bin/env python3
"""Runs the full verification matrix: configure, build, a required-test
registration check (`ctest -N` must list every gate in REQUIRED_TESTS)
and ctest for each CMake preset (default, sanitize, tsan), in sequence,
with a summary table.

Usage, from the repository root:

    python3 tools/check_matrix.py                 # all three presets
    python3 tools/check_matrix.py --presets tsan  # just ThreadSanitizer
    python3 tools/check_matrix.py --label tsan -R 'mpr_stress|pace_stress'

Each preset builds into its own directory (build/, build-sanitize/,
build-tsan/), so the matrix never invalidates an existing tree. Exits
non-zero if any stage of any preset fails, after running the rest.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("default", "sanitize", "tsan")

# Gates that must exist in every configured tree. They are registered
# behind find_package(Python3), so a runner without a Python interpreter
# would silently drop them from ctest; the matrix refuses to call such a
# tree verified.
REQUIRED_TESTS = (
    "lint",
    "analyze",
    "analyze_selftest",
    "analyze_proto",
    "analyze_clock",
    "analyze_detflow",
    "analyze_bounds",
    "trace_validate",
    # Observation at one rank: the traced/checked run must equal the plain
    # run's clusters and trace exactly one rank; bad invocations fail
    # before clustering.
    "cli_trace_single_rank",
    "cli_trace_single_rank_clusters",
    "trace_validate_single_rank",
    "cli_cluster_unwritable_out",
    "cli_cluster_unwritable_trace",
    "cli_faults_need_ranks",
    # A batchsize above the default buffer capacities clusters like the
    # default, sequentially and in parallel; out-of-range and unparsable
    # numeric flags are rejected by name instead of wrapping.
    "cli_batchsize_3000_ranks1",
    "cli_batchsize_3000_ranks1_clusters",
    "cli_batchsize_3000_ranks4",
    "cli_batchsize_3000_ranks4_clusters",
    "cli_reject_negative_psi",
    "cli_reject_negative_min_overlap",
    "cli_reject_min_quality_above_one",
    "cli_reject_nonnumeric_batchsize",
    # A removed backend name is rejected before the input is read.
    "cli_pair_source_fm",
    "headers_standalone",
    "profile_smoke",
    "bench_smoke",
    # PairSource backend matrix: one golden sentinel, one contract-test
    # sentinel and the bench gate per backend. If gtest discovery or the
    # per-backend registration breaks, the whole backend's slice vanishes
    # from ctest silently — these names make that a matrix failure.
    "gst/GoldenClusters.Small",
    "kmer/GoldenClusters.Small",
    # The kill-plan goldens are the only end-to-end check of the offline
    # rebuild of a dead slave's share (gst::rebuild_rank_forest and
    # gst::owned_bucket_ids).
    "gst/GoldenClustersFaulted.Small",
    "kmer/GoldenClustersFaulted.Small",
    "gst/PairSource.MatchesBruteForcePromisingPairs",
    "kmer/PairSource.MatchesBruteForcePromisingPairs",
    # Contract (d) directly: rank shares are disjoint and make up the
    # one-rank stream.
    "gst/PairSource.RankSharesPartitionTheStream",
    "kmer/PairSource.RankSharesPartitionTheStream",
    # kmer builds its share from bucket ids, with no forest, on empty and
    # tiny inputs too.
    "Degenerate.EmptyEstSet/kmer",
    "Degenerate.SingleEst/kmer",
    "Degenerate.MoreRanksThanEsts/kmer",
    "Degenerate.SingleRankRoutesToLocalPipeline/kmer",
    # The GST walk's exact record stream, tie order included; the cluster
    # goldens see that order only through union-find skips.
    "gst/PairGenerator.GoldenPairStream",
    # The word-wise refinement against the suffix-array oracle, its
    # chars_scanned charge against the count derived from the forest, and
    # the packed copy it reads.
    "SaCrossValidationHeavy.MultiWordRuns",
    "SaCrossValidationHeavy.GoldenFixturesChargeDerivedChars",
    "PackedView.WordAtMatchesPerBaseCodes",
    "EstSet.PackedCopyMatchesStrings",
    # An empty FASTA record is a named input error, not a library abort.
    "Fasta.RejectsEmptyRecord",
    "bench_smoke_gst",
    "bench_smoke_kmer",
    # The bounded kernel, the one alignment switch, never changes the
    # partition, sequentially or under the master/slave protocol.
    "Sequential.BoundedKernelDoesNotChangePartition",
    "Parallel.BoundedKernelDoesNotChangePartition",
    # SIMD kernel gates: the wall-clock speedup floor and the forced-scalar
    # golden leg must both stay registered, or a dispatch regression could
    # hide behind whatever kernel the build host happens to pick.
    "bench_wallclock",
    "golden_clusters_scalar_kernel",
    # The per-layer benchmark binary drives the pace API from outside; its
    # smoke run keeps the tier-1 build honest about that API.
    "bench_layers_smoke",
)


def run_stage(label: str, cmd: list[str]) -> bool:
    print(f"--- {label}: {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd, cwd=ROOT).returncode == 0


def check_registered(preset: str) -> bool:
    """`ctest -N` the configured tree and require every REQUIRED_TESTS
    name to be registered."""
    cmd = ["ctest", "--preset", preset, "-N"]
    print(f"--- {preset}/registered: {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        return False
    names = set(re.findall(r"Test\s+#\d+:\s+(\S+)", proc.stdout))
    missing = [t for t in REQUIRED_TESTS if t not in names]
    for t in missing:
        print(f"  required test '{t}' is not registered in this tree")
    return not missing


def run_preset(preset: str, jobs: int, test_filter: str | None) -> dict:
    t0 = time.monotonic()
    stages = {
        "configure": ["cmake", "--preset", preset],
        "build": ["cmake", "--build", "--preset", preset, "-j", str(jobs)],
        "registered": None,  # handled below: ctest -N presence check
        "test": ["ctest", "--preset", preset, "-j", str(jobs)],
    }
    if test_filter:
        stages["test"] += ["-R", test_filter]
    failed = ""
    for name, cmd in stages.items():
        ok = check_registered(preset) if name == "registered" \
            else run_stage(f"{preset}/{name}", cmd)
        if not ok:
            failed = name
            break
    return {
        "preset": preset,
        "failed_stage": failed,
        "seconds": time.monotonic() - t0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="+", default=list(PRESETS),
                    choices=PRESETS, metavar="PRESET",
                    help="subset of presets to run (default: all)")
    ap.add_argument("-j", "--jobs", type=int, default=0,
                    help="parallel jobs (default: all cores)")
    ap.add_argument("-R", "--tests-regex", default=None,
                    help="forwarded to ctest -R (run matching tests only)")
    args = ap.parse_args()
    jobs = args.jobs or os.cpu_count() or 2

    results = [run_preset(p, jobs, args.tests_regex) for p in args.presets]

    print("\n=== check matrix ===")
    ok = True
    for r in results:
        status = "OK" if not r["failed_stage"] else f"FAIL ({r['failed_stage']})"
        ok &= not r["failed_stage"]
        print(f"  {r['preset']:<10} {status:<18} {r['seconds']:7.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
