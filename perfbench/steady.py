#!/usr/bin/env python3
"""Steadiness tool for the simulator benchmark.

Runs the benchmark command from BENCHMARK.json N times per workload, each
with another seed, and prints for every metric its median, quartiles and
min/max spread. The interquartile spread is shown as a share of the median
beside a third of the metric's bound, which is the margin the benchmark
aims for. With --sets 2 it runs two sets of the same code back to back (an
A/A check) and reports how far the second median moved from the first.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads int-shallow
    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 3 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    host = [l for l in proc.stderr.splitlines() if l.startswith("host:")]
    return result, host[-1] if host else ""


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, min(values), max(values)


def run_set(spec, workloads, runs, seconds, trace, first_seed, label):
    """Returns {workload: {metric: [values]}}."""
    out = {}
    for w in workloads:
        out[w] = {}
        for i in range(runs):
            seed = first_seed + i
            result, host = run_once(spec, w, seed, seconds, trace)
            ok = result["correct"] and result["failed"] == 0
            values = " ".join(f"{name}={m['value']:.5g}"
                              for name, m in result["metrics"].items()
                              if not trace)
            print(f"[{label}] {w} seed {seed}: correct={ok} "
                  f"attempted={result['attempted']} {values} {host}",
                  flush=True)
            if not ok:
                raise SystemExit(f"{w} seed {seed}: cells failed")
            for name, m in result["metrics"].items():
                out[w].setdefault(name, []).append(m["value"])
    return out


def report(spec, data, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for w, metrics in data.items():
        print(f"\n{w}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound/3':>8} {'(max-min)/med':>14}")
        for name, values in metrics.items():
            med, q1, q3, lo, hi = summary(values)
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (hi - lo) / med if med else float("nan")
            bound = bounds.get(name) if not trace else None
            third = f"{bound / 3:.3f}" if bound else "-"
            flag = " !" if bound and iqr >= bound / 3 else ""
            print(f"  {name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{iqr:8.3f} {third:>8} {rng:14.3f}{flag}")


def compare(spec, a, b):
    print("\nA/A: second median vs first (positive = worse)")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        for w in a:
            m1 = statistics.median(a[w][name])
            m2 = statistics.median(b[w][name])
            worse = sign * (m2 - m1) / m1
            flag = " !" if worse > bound else ""
            print(f"  {w:20} {name:20} {worse:+.4f} (bound {bound}){flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sets = []
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        data = run_set(spec, workloads, args.runs, seconds, args.trace, first,
                       f"set {s + 1}")
        report(spec, data, args.trace)
        sets.append(data)
    if len(sets) == 2 and not args.trace:
        compare(spec, sets[0], sets[1])


if __name__ == "__main__":
    main()
