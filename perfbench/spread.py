#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-infocom06 --seeds 1-10
    python3 perfbench/spread.py --workload serve-infocom05 --seeds 3,5,8 --trace 1

For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. For
end-to-end metrics it also prints the bound from BENCHMARK.json and
flags a spread at or above a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(args, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False)
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("seed %d: run failed with exit code %d" % (seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("seed %d: incorrect result %s" % (seed, lines[-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        result = run_once(args, seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("%-30s %-6s %14s %14s %14s %8s %6s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            flag = "  <-- spread >= bound/3"
        print("%-30s %-6s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
            name, units[name], med, q1, q3, spread,
            "" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
