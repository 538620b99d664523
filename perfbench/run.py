#!/usr/bin/env python3
"""Run one workload of the xmlrel benchmark.

    python3 perfbench/run.py --workload ingest|serve_hot|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
the xrbench binary.  The last line of stdout is the run's JSON result;
build output and the human report go to stderr.  Traced runs leave their
span file under <build dir>/runs/.  See perfbench/NOTES.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve_hot", "serve_mixed")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "xrbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    if not build(build_dir):
        return 2

    work = os.path.join(build_dir, "runs", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    cmd = [os.path.join(build_dir, "xrbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: xrbench timed out", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 3
    lines = proc.stdout.strip().splitlines()
    # Keep span files of traced runs; drop everything else the run left.
    if not args.trace:
        shutil.rmtree(work, ignore_errors=True)
    if not lines:
        print("run.py: xrbench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if args.trace:
        # A per-layer metric of a layer the workload does not exercise.
        for name, unit in units.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    if (set(result) != {"correct", "attempted", "failed", "metrics"} or
            {k: v["unit"] for k, v in metrics.items()} != units):
        print("run.py: result does not match BENCHMARK.json", file=sys.stderr)
        return 5
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
