#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that perfbench/layers.json maps
every per-layer metric to one layer, and then makes short runs of every
workload through perfbench/run.py:
  * every metric BENCHMARK.json names is printed with its unit, and no solve
    fails (fail_frac is 0);
  * the traced runs separate the layers: socket frames only under uts-socket,
    RDMA operations under spmd-kernels;
  * a deliberately wrong expected result makes every solve fail, exits 1 and
    reports correct = false.
Exits 0 when every check holds; prints each failed check otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")
    return cond


def run(workload, trace, wrong=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
    if wrong:
        cmd.append("--wrong-expected")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=300)
    lines = p.stdout.splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload entry {w.get('name')}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"end_to_end entry {m.get('name')}")
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"},
              f"per_layer entry {m.get('name')}")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    check(all(NAME.match(n) for n in names), "names are well formed")
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present, in s, lower is better, with the largest bound")


def check_layers(spec, layers):
    per_layer = [m["name"] for m in spec["per_layer"]]
    mapped = [n for layer in layers["layers"].values() for n in layer["metrics"]]
    check(sorted(mapped) == sorted(per_layer),
          "layers.json maps every per-layer metric to exactly one layer")
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | {"seq_speedup"}
    for name, layer in layers["layers"].items():
        check(set(layer["on"]) | set(layer["should_not_move"]) <= workloads,
              f"layer {name} names known workloads")
        check(set(layer["moves"]) <= e2e,
              f"layer {name} moves known end-to-end metrics")


def check_result(spec, workload, trace, code, res):
    kind = "per_layer" if trace else "end_to_end"
    tag = f"{workload} --trace {trace}"
    if not check(code == 0 and res is not None, f"{tag}: exit 0 with a result"):
        return {}
    check(res["correct"] is True and res["failed"] == 0
          and res["attempted"] >= 1, f"{tag}: every solve verified")
    for m in spec[kind]:
        got = res["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float)),
              f"{tag}: {m['name']} printed in {m['unit']}")
    if trace:
        check(res["metrics"]["fail_frac"]["value"] == 0, f"{tag}: fail_frac 0")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    check_spec(spec)
    check_layers(spec, layers)

    traced = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res = run(w, trace)
            values = check_result(spec, w, trace, code, res)
            if trace:
                traced[w] = values
        code, res = run(w, 0, wrong=True)
        check(code == 1 and res is not None and res["correct"] is False
              and res["attempted"] >= 1 and res["failed"] == res["attempted"],
              f"{w}: a wrong expected result fails every solve")

    frames = "x10rt.socket.frames_per_solve"
    check(traced.get("uts-socket", {}).get(frames, 0) > 0,
          "uts-socket sends socket frames")
    check(traced.get("uts-inproc", {}).get(frames, 1) == 0,
          "uts-inproc sends no socket frames")
    check(traced.get("spmd-kernels", {}).get(
        "x10rt.transport.rdma_ops_per_solve", 0) > 0,
          "spmd-kernels issues RDMA operations")

    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
