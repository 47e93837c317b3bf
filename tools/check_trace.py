#!/usr/bin/env python3
"""Validates a merged APGAS Perfetto trace (trace.cc chrome_json_merged).

Checks, exiting nonzero with a message on the first failure:
  * the file is valid JSON with a traceEvents array
  * every place named by --places has a process_name metadata row
  * cross-process flow arrows pair up: every flow finish ("f") has a start
    ("s") with the same id, and starts without a finish are reported (the
    destination's begin can legitimately fall off the ring, so lone starts
    are only a warning)
  * causality: for every s/f pair, ts(s) <= ts(f). The merge corrects no
    timestamp, so this holds only because every place process stamps its
    events on the host's one monotonic clock

Usage: check_trace.py TRACE.json [--places N] [--min-flows N]
"""
import argparse
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--places", type=int, default=0,
                    help="expect a process row for places 0..N-1")
    ap.add_argument("--min-flows", type=int, default=1,
                    help="minimum complete s/f flow pairs expected")
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.trace}: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("no traceEvents array")

    proc_rows = {e.get("pid") for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    for p in range(args.places):
        if p not in proc_rows:
            fail(f"missing process_name row for place {p}")

    starts = {}   # flow id -> earliest start ts
    finishes = {}  # flow id -> list of finish ts
    for e in events:
        if e.get("cat") != "flow":
            continue
        fid, ts, ph = e.get("id"), e.get("ts"), e.get("ph")
        if fid is None or ts is None:
            fail(f"flow event missing id/ts: {e}")
        if ph == "s":
            starts[fid] = min(ts, starts.get(fid, ts))
        elif ph == "f":
            finishes.setdefault(fid, []).append(ts)

    for fid, ts_list in finishes.items():
        if fid not in starts:
            fail(f"flow finish {fid} has no start")
        for ts in ts_list:
            if ts < starts[fid]:
                fail(f"flow {fid} goes backwards: start ts {starts[fid]} > "
                     f"finish ts {ts}")

    lone = len(set(starts) - set(finishes))
    pairs = len(finishes)
    if pairs < args.min_flows:
        fail(f"expected >= {args.min_flows} complete flow pairs, got {pairs}")

    print(f"check_trace: OK: {len(events)} events, {len(proc_rows)} process "
          f"rows, {pairs} flow pairs time-ordered"
          + (f" ({lone} lone starts)" if lone else ""))


if __name__ == "__main__":
    main()
