#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which builds the repository libraries from src/) into
.bench_build/perfbench; later runs only rebuild what changed. The build
includes the benchmark's helper tests (ctest --test-dir
.bench_build/perfbench). The benchmark binary prints human-readable lines
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics; this script passes the lines through, checks the
metrics against BENCHMARK.json and prints the object with every declared
metric as the last line. Exit code 0 only when the build succeeded, every
correctness check passed and the result is well formed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("offline-activeiter", "serve-steady", "serve-burst")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "w") as out:
        try:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and str(BENCH_DIR) not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, log, BUILD_TIMEOUT_S):
            tail = read_tail(log)
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed:\n" + tail)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs], log,
                      BUILD_TIMEOUT_S):
        fail("build failed:\n" + read_tail(log))
    return BUILD_DIR / "perfbench"


def read_tail(path, lines=30):
    try:
        return "\n".join(Path(path).read_text().splitlines()[-lines:])
    except OSError:
        return ""


def check_result(line, trace):
    """Checks the binary's result against BENCHMARK.json, the one list of
    metric names and units, and returns it with every declared metric.

    An untraced run must measure exactly the declared end-to-end metrics.
    A traced run may leave out the per-layer metrics of layers its
    workload does not exercise; those read 0.
    """
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not a JSON object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no operation")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in measured.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json declares {units[name]}")
    missing = [name for name in units if name not in measured]
    if missing and not trace:
        fail("metrics not measured: " + ", ".join(missing))
    result["metrics"] = {
        name: measured.get(name, {"value": 0, "unit": unit})
        for name, unit in units.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("seed must be >= 0 and seconds >= 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    result = check_result(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
