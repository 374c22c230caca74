#!/usr/bin/env python3
"""profile_smoke — determinism and exactness gate for estclust --profile.

Usage: profile_smoke.py <estclust-binary> <critpath.py> <input.fasta>

For each processor count in {1, 2, 4, 8}:
  * runs `estclust cluster --profile=... ` twice and requires the two
    profile JSON files to be byte-identical (the profile holds no
    wall-clock data and formats doubles with %.17g, so any divergence is
    a real nondeterminism bug);
  * runs critpath.py validate on the profile (contiguity, path length
    bit-equal to the makespan, per-rank slack identities);
  * runs the same clustering without --profile and requires the cluster
    output to be byte-identical — profiling must never perturb the run.
    At p = 1 that plain run is the unmetered wall-clock path, so the
    profiled single-rank pipeline must reproduce it.
"""

import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

RANKS = [1, 2, 4, 8]


def fail(msg):
    print(f"profile_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd):
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        fail(f"command failed ({res.returncode}): {' '.join(map(str, cmd))}\n"
             f"{res.stdout}{res.stderr}")
    return res.stdout


def main():
    if len(sys.argv) != 4:
        fail("usage: profile_smoke.py <estclust> <critpath.py> <input.fasta>")
    estclust, critpath, fasta = map(Path, sys.argv[1:4])
    for p in (estclust, critpath, fasta):
        if not p.exists():
            fail(f"missing {p}")

    with tempfile.TemporaryDirectory(prefix="profile_smoke.") as tmp:
        tmp = Path(tmp)
        for ranks in RANKS:
            prof_a = tmp / f"p{ranks}_a.json"
            prof_b = tmp / f"p{ranks}_b.json"
            clusters_prof = tmp / f"c{ranks}_prof.txt"
            clusters_rerun = tmp / f"c{ranks}_rerun.txt"
            clusters_plain = tmp / f"c{ranks}_plain.txt"

            base = [str(estclust), "cluster", "--in", str(fasta),
                    "--ranks", str(ranks)]
            run(base + ["--out", str(clusters_prof),
                        f"--profile={prof_a}"])
            run(base + ["--out", str(clusters_rerun),
                        f"--profile={prof_b}"])
            run(base + ["--out", str(clusters_plain)])

            if not filecmp.cmp(prof_a, prof_b, shallow=False):
                fail(f"p={ranks}: profile JSON differs across reruns")
            if not filecmp.cmp(clusters_prof, clusters_rerun,
                               shallow=False):
                fail(f"p={ranks}: clusters differ across profiled reruns")
            if not filecmp.cmp(clusters_prof, clusters_plain,
                               shallow=False):
                fail(f"p={ranks}: profiling changed the clusters")

            run([sys.executable, str(critpath), "validate", str(prof_a)])
            print(f"profile_smoke: p={ranks}: byte-identical profile, "
                  f"clusters unchanged, invariants exact")

    print("profile_smoke: PASS")


if __name__ == "__main__":
    main()
