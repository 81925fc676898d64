#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cell_gups_srs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30    # every workload, one table

The simulator library, the srs_sim CLI and the perfbench binary are
built with CMake into .bench_build/perfbench (a no-op after the first
run).  The binary's standard output is passed through; its last line
is the JSON result.  Its standard error (orchestrator progress, build
output) goes to .bench_build/logs/ and is echoed only on failure.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
LOG_DIR = os.path.join(BUILD_ROOT, "logs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    """Run cmd with stdout+stderr appended to log_path; die on failure."""
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired:
            die("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            sys.stderr.write(log.read()[-4000:].decode(errors="replace"))
        die("failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join("src", "sim", "system.hh"))
            and os.path.isfile(os.path.join("tools", "srs_sim.cpp"))):
        die("simulator sources (src/, tools/srs_sim.cpp) not found; "
            "run from the repository root")
    os.makedirs(LOG_DIR, exist_ok=True)
    log = os.path.join(LOG_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                "perfbench"], log, BUILD_TIMEOUT_S)


def catalogue():
    """Metric names of BENCHMARK.json by mode, or None when absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (stdout lines, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir",
           os.path.join(BUILD_ROOT, "work")]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    err_path = os.path.join(LOG_DIR, workload + ".stderr")
    with open(err_path, "wb") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("workload %s timed out" % workload)
    lines = proc.stdout.decode(errors="replace").splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        with open(err_path, "rb") as err:
            sys.stderr.write(err.read()[-4000:].decode(errors="replace"))
        die("workload %s produced no result (exit %d)"
            % (workload, proc.returncode))
    names = catalogue()
    if names is not None and sorted(result["metrics"]) != sorted(names[trace]):
        print("perfbench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        result["correct"] = False
        lines[-1] = json.dumps(result)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    build()
    if not args.all:
        lines, _ = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        print("\n".join(lines))
        return

    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rows = []
    for workload in workloads:
        lines, result = run_workload(workload, args.seed, args.seconds, 0)
        print("\n".join(lines[:-1]))
        rows.append((workload, result))
    print("\n%-22s %-8s %9s %9s  %s" % ("workload", "correct", "attempted",
                                       "failed", "metrics"))
    for workload, result in rows:
        metrics = "  ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                            for k, v in result["metrics"].items())
        print("%-22s %-8s %9d %9d  %s" % (workload, result["correct"],
                                         result["attempted"],
                                         result["failed"], metrics))


if __name__ == "__main__":
    main()
