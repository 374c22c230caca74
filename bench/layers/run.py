#!/usr/bin/env python3
"""Per-layer benchmark of `estclust cluster` (see README.md).

Run from the repository root:

    python3 bench/layers/run.py --workload paper [--seed N] [--seconds S]
                                [--trace 0|1] [--out results.json]
    python3 bench/layers/run.py --smoke

The runner builds `bench_layers` and the `estclust` CLI from source into
.bench_build/, asks `bench_layers workloads` for the workload table, and
generates the workload's library from --seed. It then starts one process
at a time:

  --trace 0  end-to-end numbers. `bench_layers setup` runs SETUP_REPS times
             for setup_s; then `estclust cluster` runs back to back, tracing
             off, until --seconds have passed (at least MIN_E2E_RUNS runs).
             wall_s is spawn to exit, cpu_s and peak_rss_mb come from
             os.wait4.
  --trace 1  per-layer numbers. Layered runs (`bench_layers layered`)
             alternate with CLI runs until --seconds have passed; the CLI
             runs give the wall time the tracing overhead is measured
             against.

Every run's partition must equal the first run's, and in trace mode the
layered labels must equal the CLI's. A non-zero exit, a timeout or a
mismatch counts as a failed run; any failure makes the exit code 1. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names for the mode, as medians. --out merges the
full record (quartiles, sample counts, fingerprint, host, calibration)
into a JSON file keyed by workload and mode.

--smoke runs every workload at SMOKE_SCALE of its size, with the minimum
number of runs of each kind, and checks that every metric BENCHMARK.json names is emitted, that
the partition gate passes and that the layer ledger covers at least
SMOKE_MIN_COVERAGE of the layered process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
FINGERPRINTS = HERE / "fingerprints.json"

DEFAULT_SEED = 20020811
SETUP_REPS = 3
MIN_E2E_RUNS = 3
# Per-process limit; keeps one benchmark invocation under three minutes.
RUN_TIMEOUT_S = 120
# A clustering below this OQ or CC against the generator's truth is wrong,
# not just imprecise (families, the hardest workload, sits near 75% OQ).
QUALITY_FLOOR_PCT = 50.0
SMOKE_SCALE = 0.05
SMOKE_MIN_COVERAGE = 0.9

# Measured ns per unit next to the mpr::CostModel constant it calibrates.
CALIBRATION = {
    "char_op": "gst.ns_per_char",
    "sort_op": "pairgen.ns_per_sort_unit",
    "pair_op": "pairgen.ns_per_work_unit",
    "dp_cell": "align.ns_per_cell",
    "uf_op": "cluster.ns_per_uf_op",
}


class BenchError(Exception):
    """The benchmark itself cannot run (build, generation, baseline)."""


# ---------------------------------------------------------------------------
# Processes


class Run:
    def __init__(self, ok, wall_s, cpu_s, rss_mb, stdout, why=""):
        self.ok, self.wall_s, self.cpu_s, self.rss_mb = ok, wall_s, cpu_s, rss_mb
        self.stdout, self.why = stdout, why


def spawn(cmd: list[str], name: str) -> Run:
    """Runs one process to exit. Wall time is spawn to exit; CPU time and
    peak RSS come from wait4, so the child is waited for without being
    reaped until its rusage is read."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    timed_out = threading.Event()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=WORK)

        def kill():
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(RUN_TIMEOUT_S, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)

    stdout = out_path.read_text()
    if timed_out.is_set():
        return Run(False, wall, 0.0, 0.0, stdout, f"timeout after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = err_path.read_text().strip().splitlines()[-1:] or [""]
        return Run(False, wall, 0.0, 0.0, stdout, f"exit {proc.returncode}: {tail[0]}")
    return Run(True, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, stdout)


def check_output(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, cwd=WORK, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return proc.stdout


def build() -> tuple[Path, Path]:
    """Configures bench/layers on its own (it pulls in the repository) and
    builds bench_layers, which depends on the estclust CLI."""
    cmake_dir = BUILD / "cmake"
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "bench_layers",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as lf:
        for step in steps:
            if subprocess.run(step, stdout=lf, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().strip().splitlines()[-5:]
                raise BenchError("build failed:\n  " + "\n  ".join(tail))
    return cmake_dir / "bench_layers", cmake_dir / "estclust" / "tools" / "estclust"


# ---------------------------------------------------------------------------
# Library, partition and quality


def generate(bench_layers: Path, workload: str, seed: int, scale: float) -> dict:
    fasta, truth = WORK / "library.fa", WORK / "truth.txt"
    info = json.loads(check_output(
        [str(bench_layers), "generate", "--workload", workload, "--seed", str(seed),
         "--fasta", str(fasta), "--truth", str(truth), "--scale", str(scale)]))
    info["sha256"] = hashlib.sha256(fasta.read_bytes()).hexdigest()
    return info


def check_fingerprint(workload: str, fp: dict) -> None:
    """The default seed's library is pinned: a mismatch means src/sim now
    generates other traffic and every baseline must be measured again."""
    pinned = json.loads(FINGERPRINTS.read_text())["workloads"].get(workload)
    mine = {k: fp[k] for k in ("sha256", "ests", "bases")}
    if pinned != mine:
        raise BenchError(
            f"default-seed library of '{workload}' changed: pinned {pinned}, "
            f"generated {mine}. src/sim changed the traffic; re-measure the "
            f"baseline and update {FINGERPRINTS.name}.")


def clusters_labels(path: Path, n: int) -> list[int] | None:
    """Label per EST (its cluster's smallest member) from an `estclust
    cluster` output file, or None unless every EST appears exactly once."""
    members: list[list[int]] = []
    for line in path.read_text().splitlines():
        if line.startswith(">"):
            members.append([])
        elif line and members and line.startswith("est") and line[3:].isdigit():
            members[-1].append(int(line[3:]))
        elif line:
            return None
    labels = [-1] * n
    for group in members:
        for i in group:
            if not 0 <= i < n or labels[i] != -1:
                return None
            labels[i] = min(group)
    return None if -1 in labels else labels


def quality(labels: list[int], truth: list[int]) -> tuple[float, float]:
    """The paper's OQ and CC (percent) from pair counts over all EST pairs."""
    pairs = lambda k: k * (k - 1) // 2  # noqa: E731
    tp = sum(pairs(c) for c in Counter(zip(labels, truth)).values())
    fp = sum(pairs(c) for c in Counter(labels).values()) - tp
    fn = sum(pairs(c) for c in Counter(truth).values()) - tp
    tn = pairs(len(labels)) - tp - fp - fn
    oq = 100.0 * tp / max(tp + fp + fn, 1)
    den = math.sqrt(float(tp + fp) * (tn + fn) * (tp + fn) * (tn + fp))
    cc = 100.0 * (tp * tn - fp * fn) / den if den else 100.0
    return oq, cc


# ---------------------------------------------------------------------------
# Measurement


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


class Session:
    """One workload, one seed: runs processes and applies the gates."""

    def __init__(self, bins, table, workload, seconds):
        self.bench_layers, self.estclust = (str(b) for b in bins)
        self.workload, self.seconds = workload, seconds
        self.spec = table["workloads"][workload]
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference: list[int] | None = None
        self.truth = [int(x) for x in (WORK / "truth.txt").read_text().split()]

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def run(self, cmd: list[str], name: str) -> Run | None:
        self.attempted += 1
        r = spawn(cmd, name)
        if not r.ok:
            self.fail(f"{name}: {r.why}")
            return None
        return r

    def run_json(self, cmd: list[str], name: str) -> tuple[Run, dict] | None:
        """Runs a bench_layers process; returns it with the JSON object on
        its last stdout line."""
        r = self.run(cmd, name)
        if r is None:
            return None
        try:
            return r, json.loads(r.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"{name}: no JSON result")
            return None

    def gate(self, labels: list[int] | None, name: str) -> bool:
        """Every partition of this session must equal the first one."""
        if labels is None:
            self.fail(f"{name}: malformed partition output")
            return False
        if self.reference is None:
            self.reference = labels
        elif labels != self.reference:
            self.fail(f"{name}: partition differs from the first run")
            return False
        return True

    def cli(self, i: int) -> Run | None:
        out = WORK / f"clusters_{i}.txt"
        r = self.run([self.estclust, "cluster", "--in", "library.fa",
                      "--out", out.name] + self.spec["cli"], f"cli_{i}")
        if r and self.gate(clusters_labels(out, len(self.truth)), f"cli_{i}"):
            return r
        return None

    def layered(self, i: int) -> tuple[Run, dict] | None:
        out = WORK / f"labels_{i}.txt"
        got = self.run_json([self.bench_layers, "layered", "--workload", self.workload,
                             "--fasta", "library.fa", "--labels", out.name],
                            f"layered_{i}")
        if got is None:
            return None
        labels = [int(x) for x in out.read_text().split()]
        ok = len(labels) == len(self.truth)
        return got if self.gate(labels if ok else None, f"layered_{i}") else None

    def more(self, start: float, *counts: int) -> bool:
        """Keep running until --seconds have passed and every kind of run
        has its minimum; stop early after three failures."""
        if self.failed >= 3:
            return False
        return (time.perf_counter() - start < self.seconds
                or any(have < least for have, least in counts))

    def end_to_end(self) -> dict[str, dict]:
        start = time.perf_counter()
        setup = []
        for i in range(SETUP_REPS):
            got = self.run_json([self.bench_layers, "setup", "--workload",
                                 self.workload, "--fasta", "library.fa"], f"setup_{i}")
            if got:
                setup.append(got[1]["setup_s"])
        runs, i = [], 0
        while self.more(start, (len(runs), MIN_E2E_RUNS)):
            r = self.cli(i)
            i += 1
            if r:
                runs.append(r)
        if not runs or not setup:
            return {}
        oq, cc = quality(self.reference, self.truth)
        for name, value in (("oq_pct", oq), ("cc_pct", cc)):
            if value < QUALITY_FLOOR_PCT:
                self.fail(f"{name} {value:.2f} below the {QUALITY_FLOOR_PCT}% floor")
        return {
            "wall_s": summary([r.wall_s for r in runs]),
            "cpu_s": summary([r.cpu_s for r in runs]),
            "peak_rss_mb": summary([r.rss_mb for r in runs]),
            "setup_s": summary(setup),
            "oq_pct": summary([oq]),
            "cc_pct": summary([cc]),
        }

    def per_layer(self) -> dict[str, dict]:
        start = time.perf_counter()
        walls, layered, i = [], [], 0
        while self.more(start, (len(layered), 1), (len(walls), 1)):
            if len(layered) <= len(walls):
                got = self.layered(i)
                if got:
                    layered.append(got)
            else:
                r = self.cli(i)
                if r:
                    walls.append(r.wall_s)
            i += 1
        if not walls or not layered:
            return {}
        samples: dict[str, list[float]] = {}
        comparable = []  # layered wall time minus work the CLI does not do
        for r, m in layered:
            self_s = m.pop("self_s")
            comparable.append(r.wall_s - m.pop("extra_s", 0.0))
            m["layers.total_s"] = r.wall_s
            m["layers.coverage"] = sum(self_s.values()) / r.wall_s
            for k, v in m.items():
                samples.setdefault(k, []).append(v)
        metrics = {k: summary(v) for k, v in samples.items()}
        metrics["trace.overhead_frac"] = summary(
            [statistics.median(comparable) / statistics.median(walls) - 1.0])
        return metrics


def measure(bins, table, workload, seed, seconds, trace, scale):
    """Generates the library and runs one mode. Returns (session, metrics,
    fingerprint)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    fp = generate(bins[0], workload, seed, scale)
    if seed == DEFAULT_SEED and scale == 1.0:
        check_fingerprint(workload, fp)
    session = Session(bins, table, workload, seconds)
    metrics = session.per_layer() if trace else session.end_to_end()
    return session, metrics, fp


def select(metrics: dict, spec: dict, trace: int) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json names for the mode, as median values with
    their units, plus the names that were not measured. In a layered run a
    layer the workload's path never calls (mpr on a sequential workload,
    the sequential loop on `parallel`) reports 0."""
    out, missing = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in metrics:
            value = metrics[m["name"]]["median"]
        elif trace and metrics:
            value = 0.0
        else:
            missing.append(m["name"])
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def report(workload, trace, session, metrics, fp, table) -> None:
    print(f"workload {workload}: {fp['ests']} ESTs, {fp['bases']} bases, "
          f"sha256 {fp['sha256'][:16]}, kernel {table['kernel']}, "
          f"{session.attempted} runs, {session.failed} failed")
    for what in session.failures:
        print(f"  FAILED {what}")
    for name, s in sorted(metrics.items()):
        print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
              f"q3 {s['q3']:<14.6g} n={s['samples']}")
    if trace and "align.ns_per_cell" in metrics:
        print("  calibration (ns per unit): unit, CostModel, measured, model/measured")
        for unit, name in CALIBRATION.items():
            model = table["cost_model_ns"][unit]
            measured = metrics[name]["median"]
            ratio = model / measured if measured else float("nan")
            print(f"    {unit:8s} {model:10.3f} {measured:10.3f} {ratio:8.2f}")


def host_facts(table: dict) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel_variant": table["kernel"], "os": platform.platform()}


def save(path: Path, workload, seed, trace, session, metrics, fp, table) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data["host"] = host_facts(table)
    entry = data.setdefault("workloads", {}).setdefault(workload, {})
    entry["seed"] = seed
    entry["fingerprint"] = {k: fp[k] for k in ("sha256", "ests", "bases")}
    entry["per_layer" if trace else "end_to_end"] = {
        "attempted_runs": session.attempted, "failed_runs": session.failed,
        "metrics": metrics}
    if trace and "align.ns_per_cell" in metrics:
        entry["calibration_ns"] = {
            unit: {"cost_model": table["cost_model_ns"][unit],
                   "measured": metrics[name]["median"]}
            for unit, name in CALIBRATION.items()}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def smoke(bins, table, spec) -> int:
    problems = []
    for workload in table["workloads"]:
        for trace in (0, 1):
            session, metrics, _ = measure(bins, table, workload, DEFAULT_SEED, 0,
                                          trace, SMOKE_SCALE)
            _, missing = select(metrics, spec, trace)
            problems += [f"{workload}/trace{trace}: {f}" for f in session.failures]
            problems += [f"{workload}/trace{trace}: {m} not emitted" for m in missing]
            if trace and metrics:
                coverage = metrics["layers.coverage"]["median"]
                if coverage < SMOKE_MIN_COVERAGE:
                    problems.append(f"{workload}: layers.coverage {coverage:.3f}")
            print(f"smoke {workload} trace {trace}: {session.attempted} runs, "
                  f"{session.failed} failed")
    for p in problems:
        print(f"  FAIL {p}")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="merge the full record into this JSON file")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bench-layers", type=Path, help="prebuilt binary (skips the build)")
    ap.add_argument("--estclust", type=Path, help="prebuilt CLI (skips the build)")
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.bench_layers and args.estclust:
            bins = (args.bench_layers.resolve(), args.estclust.resolve())
        else:
            bins = build()
        WORK.mkdir(parents=True, exist_ok=True)
        table = json.loads(check_output([str(bins[0]), "workloads"]))
        if args.smoke:
            return smoke(bins, table, spec)
        if args.workload not in table["workloads"]:
            ap.error(f"--workload must be one of {', '.join(table['workloads'])}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        session, metrics, fp = measure(bins, table, args.workload, args.seed,
                                       seconds, args.trace, 1.0)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    report(args.workload, args.trace, session, metrics, fp, table)
    if args.out:
        save(args.out, args.workload, args.seed, args.trace, session, metrics, fp, table)
    selected, missing = select(metrics, spec, args.trace)
    for name in missing:
        print(f"  NOT MEASURED {name}")
    correct = session.failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
