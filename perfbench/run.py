#!/usr/bin/env python3
"""Repository benchmark: build, self-test, run one workload, print its result.

    python3 perfbench/run.py --workload stream_fleet --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the benchmark (and the evfl library
from src/) with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set),
runs the harness self-test, then runs the workload.  The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1, each with the unit BENCHMARK.json gives it.  Exits nonzero, printing no result, when the build, the self-test
or the run fails; exits 1 after printing a result whose output checks failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_fleet", "stream_narrow", "fl_train_serve")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "perfbench_runner", "perfbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    library and benchmark sources, which identifies any checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip()
            if commit:
                ident = "git:" + commit + " " + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json defines for the mode, in
    its order: per-layer when traced, end-to-end otherwise."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    units = metric_units(args.trace == 1)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode:
        fail("harness self-test failed")

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(),
           "--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"runner exited with {proc.returncode}")
    result = json.loads(lines[-1])
    values = result["metrics"]
    if result["correct"] and set(values) != set(units):
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(values))}")
    # A failed run may lack metrics; it still reports the ones it has.
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items() if name in values}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
