#!/usr/bin/env python3
"""Structural validator for estclust Chrome trace output.

Usage: check_trace.py --ranks N [--allow-lost-flows] trace.json [breakdown.txt]

Checks that the trace is well-formed Chrome trace-event JSON:
  * every B (span begin) has a matching E on the same (pid, tid),
    properly nested;
  * per-thread timestamps are monotonically non-decreasing;
  * message flows are causally sound: flow ids are unique (at most one
    start and one finish each), every finish has a start on a different
    rank with send ts <= recv ts, and — unless --allow-lost-flows is
    given for faulted traces, where drops and deaths legitimately strand
    messages — every start is matched by a finish;
  * the trace covers exactly the N ranks of the run (--ranks) and
    >= 5 distinct phase span names.

When a breakdown report is given, also checks it mentions the
per-component phase names used by Table 3 of the paper.

Both phase checks describe the GST pipeline (the default --pair-source).
A kmer run builds no forest, so it has no partitioning or gst_build span
(DESIGN.md §11) and fails them by design.
"""

import argparse
import json
import sys

REQUIRED_PHASES = 5
# Components of the paper's Table 3 runtime breakdown, as instrumented.
BREAKDOWN_COMPONENTS = ["partitioning", "gst_build", "node_sorting",
                        "alignment"]


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_trace(path, nranks, allow_lost_flows=False):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)

    if "traceEvents" not in doc:
        fail("missing traceEvents key")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents is empty or not a list")

    stacks = {}      # (pid, tid) -> [span names]
    last_ts = {}     # (pid, tid) -> last timestamp
    span_names = set()
    ranks = set()
    flows_out = {}   # id -> (tid, ts)
    flows_in = {}

    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        for key in ("pid", "tid", "ts"):
            if key not in ev:
                fail(f"event missing '{key}': {ev}")
        tid = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            fail(f"non-numeric ts: {ev}")
        if tid in last_ts and ts < last_ts[tid]:
            fail(f"timestamps go backwards on tid {tid}: "
                 f"{last_ts[tid]} -> {ts}")
        last_ts[tid] = ts
        ranks.add(ev["tid"])

        if ph == "B":
            if "name" not in ev:
                fail(f"B event without name: {ev}")
            stacks.setdefault(tid, []).append(ev["name"])
            span_names.add(ev["name"])
        elif ph == "E":
            stack = stacks.get(tid, [])
            if not stack:
                fail(f"E event with empty span stack on tid {tid}")
            stack.pop()
        elif ph == "s":
            fid = ev.get("id")
            if fid is None:
                fail(f"flow start without id: {ev}")
            if fid in flows_out:
                fail(f"duplicate flow start: id {fid}")
            flows_out[fid] = (ev["tid"], ts)
        elif ph == "f":
            fid = ev.get("id")
            if fid is None:
                fail(f"flow finish without id: {ev}")
            if fid in flows_in:
                fail(f"duplicate flow finish: id {fid}")
            flows_in[fid] = (ev["tid"], ts)
        elif ph not in ("i", "I"):
            fail(f"unexpected event phase '{ph}': {ev}")

    for tid, stack in stacks.items():
        if stack:
            fail(f"unclosed spans on tid {tid}: {stack}")
    for fid, (recv_tid, recv_ts) in flows_in.items():
        if fid not in flows_out:
            fail(f"flow finish without start: id {fid}")
        send_tid, send_ts = flows_out[fid]
        if send_tid == recv_tid:
            fail(f"flow id {fid} starts and finishes on rank {send_tid}")
        if send_ts > recv_ts:
            fail(f"flow id {fid} received before it was sent: "
                 f"{send_ts} > {recv_ts}")
    lost = sorted(fid for fid in flows_out if fid not in flows_in)
    if lost and not allow_lost_flows:
        fail(f"{len(lost)} flow start(s) without a finish (first: "
             f"{lost[0]}); pass --allow-lost-flows for faulted traces")
    if lost:
        print(f"check_trace: note: {len(lost)} lost flow(s) tolerated "
              f"(faulted trace)")

    if len(ranks) != nranks:
        fail(f"trace covers {len(ranks)} rank(s), expected {nranks}")
    if len(span_names) < REQUIRED_PHASES:
        fail(f"only {len(span_names)} distinct span names "
             f"({sorted(span_names)}), need >= {REQUIRED_PHASES}")

    print(f"check_trace: trace OK: {len(events)} events, "
          f"{len(ranks)} ranks, {len(flows_out)} flows, "
          f"{len(span_names)} span names: {sorted(span_names)}")


def validate_breakdown(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    missing = [c for c in BREAKDOWN_COMPONENTS if c not in text]
    if missing:
        fail(f"breakdown report missing components: {missing}")
    print(f"check_trace: breakdown OK: all of {BREAKDOWN_COMPONENTS} present")


def main():
    ap = argparse.ArgumentParser(
        description="Structural validator for estclust Chrome trace output.")
    ap.add_argument("--ranks", type=int, required=True,
                    help="rank count of the traced run; the trace must "
                         "cover exactly this many ranks")
    ap.add_argument("--allow-lost-flows", action="store_true",
                    help="tolerate unmatched flow starts (faulted runs)")
    ap.add_argument("trace")
    ap.add_argument("breakdown", nargs="?")
    args = ap.parse_args()
    validate_trace(args.trace, args.ranks,
                   allow_lost_flows=args.allow_lost_flows)
    if args.breakdown:
        validate_breakdown(args.breakdown)
    print("check_trace: PASS")


if __name__ == "__main__":
    main()
