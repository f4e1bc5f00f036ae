#!/usr/bin/env python3
"""Build and run the odtn end-to-end benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --trace 1            # every workload, per-layer ledger
    python3 perfbench/run.py --workload serve-infocom05 --seed 7 --seconds 20
    python3 perfbench/run.py --self-test          # the benchmark's unit tests

It configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR, default .bench_build at the repository root, then
runs one process per workload. Each process prints its metrics, its
output checks and, as its last line, one JSON result object. A traced
run also writes its spans to <build dir>/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-infocom06", "serve-infocom05", "live-realitymining"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    open(log, "wb").close()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target,
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        try:
            code = run_logged(cmd, log, BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            code, why = 1, str(err)
        else:
            why = "exit code %d" % code
        if code != 0:
            with open(log, "rb") as f:
                tail = f.read()[-4000:].decode("utf-8", "replace")
            sys.stderr.write(tail + "\nperfbench: build step failed (%s): %s\n"
                             % (why, " ".join(cmd)))
            return None
    return os.path.join(out, target)


def run_workload(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s-%s.json"
                                        % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, False
    sys.stdout.write(proc.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode, b'"correct": true' in proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each preset's canonical seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        if binary is None:
            return 1
        return subprocess.run([binary], check=False).returncode

    binary = build("perfbench")
    if binary is None:
        return 1
    if args.workload != "all":
        return run_workload(binary, args, args.workload)[0]
    worst = 0
    for workload in WORKLOADS:
        code, correct = run_workload(binary, args, workload)
        worst = max(worst, code, 0 if correct else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
