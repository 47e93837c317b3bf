#!/usr/bin/env python3
"""Builds the APGAS benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The driver (perfbench/driver.cc) is compiled with CMake from this directory
and the runtime sources next to it, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). It prints raw metric values; this script
checks that the set of metrics is exactly the one BENCHMARK.json names for
the mode (end_to_end for --trace 0, per_layer for --trace 1), attaches each
metric's unit and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"solve_ms_p50": {"value": 161.2, "unit": "ms"}, ...}}

Exit status: 0 when every solve verified, 1 when any failed verification
(the result is still printed), 2 on a build, run or output-format error.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single driver run may take before it counts as hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (a no-op when the cache is current; an error when the
    cache belongs to another source tree) and brings the binary up to date."""
    if subprocess.call(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr) != 0:
        fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", bdir, "-j", "4"],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    exe = os.path.join(bdir, "apgas_perfbench")
    if not os.path.exists(exe):
        fail(f"no driver binary at {exe}")
    return exe


def run_driver(cmd):
    """Runs the driver in its own process group, so a hung run can be
    stopped together with any place processes it forked."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--wrong-expected", action="store_true",
                    help="make one expected result wrong, so every solve "
                         "must fail verification (benchmark self-test)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(bdir, "out")]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    code, out = run_driver(cmd)
    lines = out.splitlines()
    if code not in (0, 1) or not lines:
        fail(f"driver exited with status {code}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"driver printed no result: {lines[-1]!r}")

    got = set(raw["metrics"])
    if got != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(wanted) - got)}, unexpected {sorted(got - set(wanted))}")
    for name, value in raw["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
    for line in lines[:-1]:
        print(line)
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
