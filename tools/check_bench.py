#!/usr/bin/env python3
"""Smoke-check the bench binaries' --json output.

Runs bench_align_micro and bench_table3 on a tiny deterministic input,
validates the schema of every emitted row, asserts that the bounded
kernel does no more DP work than the exact one, and compares two pinned
quantities against the checked-in baseline JSON: DP cells per accepted
pair for each kernel (section cells_per_accepted) and the total message
count of each table3 row, keyed by p (section msgs). A regression in the
alignment engine or the master/slave protocol then fails ctest instead of
silently shifting the bench tables.

With --table1 BIN --pair-source BACKEND it instead gates one PairSource
backend's table1_backends rows: the backend's partition must match the
gst reference run, and its index bytes / pair count / DP-cell volume are
compared against the per-backend baseline section (table1_<backend>).

With --wallclock BIN it gates the SIMD kernel variants' real wall-clock
rows from `bench_align_micro --wallclock`: every variant the host supports
must report identical cell counts to scalar (the binary itself hard-fails
on score divergence before emitting the row) and beat scalar by at least
MIN_SIMD_SPEEDUP. That threshold is deliberately far below the measured
4-6x so scheduler noise on loaded CI machines cannot flake the gate; the
honest numbers live in EXPERIMENTS.md. This mode also validates the
Reporter's wall_s convention: every row must carry a strictly positive,
locale-clean float (the %.6f fixed-buffer bug truncated sub-microsecond
rows to 0 and comma-decimal locales broke JSON parsing outright).

All quantities checked by the baseline modes are virtual-time work units
(DP cells, message counts, index bytes) from seeded workloads, so they are
bit-deterministic across machines; the baseline tolerance exists only to
keep small, deliberate retunings from needing a lockstep baseline update.
The --wallclock mode is the one real-time gate, hence its loose margin
and the absence of a baseline section.

The invocations co-own one baseline file. Its top-level sections are
exactly `ests`, `cells_per_accepted`, `msgs` and one `table1_<backend>`
per gated backend; any other section is stale (nothing checks it), so a
check fails on it and --update drops it.

Usage:
  check_bench.py --align-micro BIN --table3 BIN --baseline FILE [--update]
  check_bench.py --table1 BIN --pair-source B --baseline FILE [--update]
  check_bench.py --wallclock BIN
"""

import argparse
import json
import subprocess
import sys

SMOKE_ESTS = "250"

# A current value may exceed its baseline by this factor before the check
# fails. Improvements (smaller values) always pass; --update re-bakes.
TOLERANCE = 1.02

# Baseline sections owned by the --align-micro/--table3 invocation; each
# --table1 invocation owns table1_<backend>, for the backends tests/ and
# tools/CMakeLists.txt gate.
ENGINE_SECTIONS = ("cells_per_accepted", "msgs")
BACKENDS = ("gst", "kmer")
OWNED_SECTIONS = (("ests",) + ENGINE_SECTIONS
                  + tuple("table1_" + b for b in BACKENDS))

# Wall-clock floor for each SIMD variant vs the scalar sweep in the same
# process. Measured medians are 4-6x (see EXPERIMENTS.md); 1.7 leaves room
# for a CI box that is busy, thermally throttled, or virtualized, while
# still catching "the dispatcher silently fell back to scalar" (ratio ~1.0)
# and wholesale kernel regressions.
MIN_SIMD_SPEEDUP = 1.7

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run_bench(path, extra=(), ests=SMOKE_ESTS):
    cmd = [path, "--ests", ests, "--json"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("%s exited with %d:\n%s" % (cmd, proc.returncode,
                                             proc.stderr))
    rows = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit("%s emitted a non-JSON line in --json mode: %r (%s)"
                     % (path, line, e))
        if not isinstance(row, dict) or "bench" not in row:
            sys.exit("%s emitted a row without a 'bench' key: %r"
                     % (path, line))
        rows.append(row)
    return rows


def by_bench(rows, name):
    return [r for r in rows if r["bench"] == name]


def require_keys(rows, name, keys):
    for r in rows:
        for k in keys:
            check(k in r, "%s row missing key %r: %r" % (name, k, r))


def check_align_micro(rows):
    engine = by_bench(rows, "align_micro")
    kernels = by_bench(rows, "align_kernels")
    require_keys(engine, "align_micro",
                 ["mode", "pairs", "accepted", "dp_cells",
                  "cells_per_accepted", "speedup_vs_exact"])
    require_keys(kernels, "align_kernels", ["kernel", "len", "cells"])

    modes = {r["mode"]: r for r in engine}
    check(set(modes) == {"exact", "bounded"},
          "align_micro modes are %s" % sorted(modes))
    if set(modes) != {"exact", "bounded"}:
        return {}
    for r in engine:
        check(r["pairs"] > 0 and r["accepted"] > 0 and r["dp_cells"] > 0,
              "align_micro %s has a non-positive count: %r"
              % (r["mode"], r))
    check(modes["bounded"]["dp_cells"] <= modes["exact"]["dp_cells"],
          "bounded mode did more DP work than exact")

    per_len = {}
    for r in kernels:
        per_len.setdefault(r["len"], {})[r["kernel"]] = r["cells"]
    for length, cells in sorted(per_len.items()):
        check(set(cells) == {"full NW", "banded global",
                             "anchored extension"},
              "align_kernels len %s kernels are %s"
              % (length, sorted(cells)))
        if "full NW" in cells and "banded global" in cells:
            check(cells["banded global"] < cells["full NW"],
                  "banding did not shrink the DP area at len %s" % length)
        if "full NW" in cells and "anchored extension" in cells:
            check(cells["anchored extension"] < cells["full NW"],
                  "anchored extension >= full matrix at len %s" % length)

    return {r["mode"]: r["cells_per_accepted"] for r in engine}


def check_table3(rows):
    table = by_bench(rows, "table3")
    require_keys(table, "table3",
                 ["p", "partitioning", "gst_build", "node_sorting",
                  "alignment_loop", "total", "msgs"])
    check([r["p"] for r in table] == [8, 16, 32, 64, 128],
          "table3 p values are %s" % [r.get("p") for r in table])
    for r in table:
        check(r["total"] > 0, "table3 p=%s has total <= 0" % r.get("p"))
        check(r["msgs"] > 0, "table3 p=%s sent no messages" % r.get("p"))
    return {str(r["p"]): r["msgs"] for r in table}


def check_table1_backend(rows, backend):
    """Validates one backend's table1_backends rows and returns the
    quantities to pin in the per-backend baseline section."""
    section = by_bench(rows, "table1_backends")
    require_keys(section, "table1_backends",
                 ["backend", "ests", "index_bytes", "pairs", "dp_cells",
                  "time_s", "match_gst"])
    names = [r.get("backend") for r in section]
    expect = ["gst"] if backend == "gst" else ["gst", backend]
    check(names == expect,
          "table1_backends backends are %s, expected %s" % (names, expect))
    for r in section:
        check(r["index_bytes"] > 0 and r["pairs"] > 0 and r["dp_cells"] > 0
              and r["time_s"] > 0,
              "table1_backends %s has a non-positive quantity: %r"
              % (r.get("backend"), r))
        # Each backend must reproduce the gst reference partition.
        check(r["match_gst"] == "yes",
              "backend %s did not reproduce the gst partition (%s)"
              % (r.get("backend"), r.get("match_gst")))
    target = [r for r in section if r.get("backend") == backend]
    if len(target) != 1:
        return {}
    r = target[0]
    return {"index_bytes": r["index_bytes"], "pairs": r["pairs"],
            "dp_cells": r["dp_cells"]}


def check_wallclock(rows):
    wall = by_bench(rows, "align_wallclock")
    require_keys(wall, "align_wallclock",
                 ["kernel", "len", "pairs", "reps", "cells",
                  "kernel_wall_s", "speedup_vs_scalar", "wall_s"])
    check(len(wall) > 0, "no align_wallclock rows emitted")
    per_len = {}
    for r in wall:
        # wall_s validation (the %.17g Reporter convention): present, a
        # real JSON number, strictly positive — %.6f into a fixed buffer
        # used to truncate sub-microsecond rows to exactly 0.
        check(isinstance(r.get("wall_s"), float) and r["wall_s"] > 0,
              "align_wallclock row has a non-positive or non-float wall_s: "
              "%r" % r)
        check(isinstance(r.get("kernel_wall_s"), float)
              and r["kernel_wall_s"] > 0,
              "align_wallclock row has non-positive kernel_wall_s: %r" % r)
        per_len.setdefault(r["len"], {})[r["kernel"]] = r
    for length, kernels in sorted(per_len.items()):
        check("scalar" in kernels,
              "len %s has no scalar reference row" % length)
        if "scalar" not in kernels:
            continue
        scalar = kernels["scalar"]
        check(scalar["speedup_vs_scalar"] == 1.0,
              "scalar row's self-speedup is %s, not 1.0"
              % scalar["speedup_vs_scalar"])
        for name, r in sorted(kernels.items()):
            if name == "scalar":
                continue
            check(name in ("sse2", "avx2"),
                  "unexpected kernel variant %r at len %s" % (name, length))
            # The binary FATALs on score divergence before emitting the
            # row; re-assert the cell identity from the emitted JSON so a
            # future refactor of that guard cannot silently drop it.
            check(r["cells"] == scalar["cells"],
                  "%s cells %s != scalar cells %s at len %s"
                  % (name, r["cells"], scalar["cells"], length))
            speedup = scalar["kernel_wall_s"] / r["kernel_wall_s"]
            check(speedup >= MIN_SIMD_SPEEDUP,
                  "%s is only %.2fx faster than scalar at len %s "
                  "(floor %.1fx)" % (name, speedup, length,
                                     MIN_SIMD_SPEEDUP))
            print("  %s len %s: %.2fx vs scalar" % (name, length, speedup))


def load_baseline(baseline_path):
    try:
        with open(baseline_path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit("baseline %s not found; run with --update to create it"
                 % baseline_path)


def write_baseline(baseline_path, baseline):
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print("baseline updated: %s" % baseline_path)


def check_sections(baseline, current, sections):
    for section in sorted(baseline):
        check(section in OWNED_SECTIONS,
              "baseline section %r is owned by no invocation; drop it "
              "(--update does)" % section)
    check(baseline.get("ests") == current["ests"],
          "baseline was baked at ests=%s, bench ran at ests=%s"
          % (baseline.get("ests"), current["ests"]))
    for section in sections:
        base = baseline.get(section, {})
        cur = current[section]
        check(set(base) == set(cur),
              "baseline section %r keys %s != current %s"
              % (section, sorted(base), sorted(cur)))
        for key in sorted(set(base) & set(cur)):
            check(cur[key] <= base[key] * TOLERANCE,
                  "%s[%s] regressed: %s vs baseline %s"
                  % (section, key, cur[key], base[key]))


def check_baseline(baseline_path, current, update, sections):
    if update:
        # Merge into the existing file so the engine and per-backend
        # invocations co-own one baseline JSON.
        try:
            baseline = load_baseline(baseline_path)
        except SystemExit:
            baseline = {}
        for section in sorted(baseline):
            if section not in OWNED_SECTIONS:
                print("dropping stale baseline section %r" % section)
                del baseline[section]
        baseline["ests"] = current["ests"]
        for section in sections:
            baseline[section] = current[section]
        write_baseline(baseline_path, baseline)
        return
    check_sections(load_baseline(baseline_path), current, sections)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--align-micro")
    ap.add_argument("--table3")
    ap.add_argument("--table1")
    ap.add_argument("--pair-source", choices=BACKENDS,
                    help="backend for the --table1 gate")
    ap.add_argument("--wallclock",
                    help="bench_align_micro binary for the SIMD wall-clock "
                         "gate (no baseline: real time, loose margins)")
    ap.add_argument("--baseline",
                    help="baseline JSON (required except with --wallclock)")
    ap.add_argument("--update", action="store_true",
                    help="re-bake the baseline JSON instead of checking")
    args = ap.parse_args()

    if args.wallclock:
        # Tiny --ests: the engine-comparison section is not under test
        # here, the fixed-size wallclock section is.
        check_wallclock(run_bench(args.wallclock, ["--wallclock"],
                                  ests="50"))
        if failures:
            sys.exit("%d bench check(s) failed" % len(failures))
        print("wallclock checks passed")
        return
    if not args.baseline:
        ap.error("--baseline is required except with --wallclock")

    current = {"ests": int(SMOKE_ESTS)}
    sections = []
    if args.table1:
        if not args.pair_source:
            ap.error("--table1 requires --pair-source")
        section = "table1_%s" % args.pair_source
        current[section] = check_table1_backend(
            run_bench(args.table1, ["--pair-source", args.pair_source]),
            args.pair_source)
        sections.append(section)
    else:
        if not (args.align_micro and args.table3):
            ap.error("either --table1 or both --align-micro and --table3 "
                     "are required")
        current["cells_per_accepted"] = check_align_micro(
            run_bench(args.align_micro))
        current["msgs"] = check_table3(run_bench(args.table3))
        sections += list(ENGINE_SECTIONS)
    check_baseline(args.baseline, current, args.update, sections)

    if failures:
        sys.exit("%d bench check(s) failed" % len(failures))
    print("bench smoke checks passed")


if __name__ == "__main__":
    main()
