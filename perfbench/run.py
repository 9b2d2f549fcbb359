#!/usr/bin/env python3
"""Repository benchmark: build smthill_perfbench from source and run one workload.

    python3 perfbench/run.py --workload race-mem --seed 0 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. The binary's progress lines (host
fingerprint, one `cell` line per distinct cell fingerprint, `info`)
go to stdout, and the last line is the result:

    {"correct": true, "attempted": 35, "failed": 0,
     "metrics": {"wall_s": {"value": 9.8, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones, with the names and units listed in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170

# BENCHMARK.json is the one source of the workload names, the run
# length, the metric units and the bounds.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. @return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "smthill_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "smthill_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[wl["name"] for wl in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fingerprints",
                    default=os.path.join(HERE, "fingerprints.txt"),
                    help="pinned seed-0 cell fingerprints")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", args.fingerprints]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % TIMEOUT_S)
    if proc.returncode:
        fail("smthill_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    table = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {row["name"]: row["unit"] for row in table}
    if set(raw["metrics"]) != set(units):
        fail("metric set differs from the spec: %s"
             % sorted(set(raw["metrics"]) ^ set(units)))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
