#!/usr/bin/env python3
"""Show how steady the benchmark is on this host.

    python3 perfbench/steadiness.py --seeds 10
    python3 perfbench/steadiness.py --render   # redo the report from steadiness.json

For every workload, runs two sets of the same code interleaved run by
run (A0 B0 A1 B1 ...), one seed per pair, then one traced run on seed 0
and on seed 1. Writes perfbench/steadiness.json (every run's raw
result and the host fingerprint) and perfbench/STEADINESS.md (per set:
median and quartile spread of each end-to-end metric; across sets: the
B/A median ratio; the traced per-layer metrics), and exits non-zero
when a run fails its output check, a spread exceeds its metric's
bound in BENCHMARK.json, or a set B median is worse than set A's by
more than the bound.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

import run

RAW = os.path.join(run.HERE, "steadiness.json")
REPORT = os.path.join(run.HERE, "STEADINESS.md")

DRIFT_NOTE = """\
Host drift, measured before this benchmark existed on the same 4-vCPU
KVM host: an identical 16-epoch art-mcf HILL run was repeated 4,500
times over 22 minutes. Its per-minute medians drifted between 0.22 s
and 0.34 s. Grouped into simulated benchmark runs, two sets of 22 runs
taken back to back disagreed by up to 25%, whatever the run length;
the same runs split into two interleaved sets (alternate runs to each
set) agreed within 1% once each run was 10-20 s long. The minimum of
repeats was about twice as noisy as their total, and a reference CPU
kernel timed in the same process correlated only 0.41 with simulator
time, so dividing by it does not cancel the drift. Compare commits
with interleaved runs on one host, as below.
"""


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(run.SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    host = next(json.loads(l[5:]) for l in out if l.startswith("host "))
    return host, json.loads(out[-1])


def collect(seeds):
    raw = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
           "seeds": seeds, "seconds": run.SPEC["run_seconds"],
           "workloads": {}}
    for wl in (w["name"] for w in run.SPEC["workloads"]):
        entry = {"A": [], "B": [], "traced": []}
        for seed in range(seeds):
            for side in ("A", "B"):
                raw["host"], res = run_once(wl, seed, 0)
                entry[side].append({"seed": seed, **res})
                print(wl, seed, side, json.dumps(res), flush=True)
        for seed in (0, 1):
            entry["traced"].append(
                {"seed": seed, **run_once(wl, seed, 1)[1]})
        raw["workloads"][wl] = entry
    return raw


def render(raw):
    """@return (markdown report, list of problems)."""
    md = ["# Benchmark steadiness", "",
          "Generated by `python3 perfbench/steadiness.py --seeds %d` on %s, "
          "%g s per run." % (raw["seeds"], raw["date"], raw["seconds"]), "",
          "Host: `%s`" % json.dumps(raw["host"]), "", DRIFT_NOTE]
    problems = []
    for wl, entry in raw["workloads"].items():
        for res in entry["A"] + entry["B"] + entry["traced"]:
            if not res["correct"] or res["failed"]:
                problems.append("%s seed %d: %d of %d cells failed" % (
                    wl, res["seed"], res["failed"], res["attempted"]))
        md += ["## %s" % wl, "",
               "Cells per run: %d. Sets A and B interleaved run by run, "
               "seeds 0-%d." % (entry["A"][0]["attempted"], raw["seeds"] - 1),
               "",
               "| metric | unit | bound | A median | A IQR/median | "
               "B median | B IQR/median | B/A - 1 |",
               "|---|---|---|---|---|---|---|---|"]
        for row in run.SPEC["end_to_end"]:
            name, unit, bound = row["name"], row["unit"], row["bound"]
            stats = {}
            for side in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in entry[side]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                stats[side] = (q2, (q3 - q1) / q2)
                if stats[side][1] > bound:
                    problems.append("%s %s set %s spread %.3f > bound %.2f"
                                    % (wl, name, side, stats[side][1], bound))
            ratio = stats["B"][0] / stats["A"][0] - 1
            if (ratio if row["better"] == "lower" else -ratio) > bound:
                problems.append("%s %s set B worse by %.3f > bound %.2f"
                                % (wl, name, abs(ratio), bound))
            md.append("| %s | %s | %.2f | %.6g | %.4f | %.6g | %.4f | %+.4f |"
                      % (name, unit, bound, stats["A"][0], stats["A"][1],
                         stats["B"][0], stats["B"][1], ratio))
        traced = entry["traced"]
        md += ["", "Traced runs (per-layer metrics):", "",
               "| metric | unit | " + " | ".join(
                   "seed %d" % t["seed"] for t in traced) + " |",
               "|---|---|" + "---|" * len(traced)]
        for row in run.SPEC["per_layer"]:
            md.append("| %s | %s | " % (row["name"], row["unit"]) + " | ".join(
                "%.6g" % t["metrics"][row["name"]]["value"] for t in traced)
                + " |")
        md.append("")
    md += ["## Verdict", ""] + (["- " + p for p in problems] or [
        "Every run passed its output check; every spread and set-to-set "
        "change is within its bound."]) + [""]
    return "\n".join(md), problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--render", action="store_true",
                    help="only rebuild STEADINESS.md from steadiness.json")
    args = ap.parse_args()

    if args.render:
        with open(RAW) as f:
            raw = json.load(f)
    else:
        raw = collect(args.seeds)
        with open(RAW, "w") as f:
            json.dump(raw, f, indent=1)
            f.write("\n")
    report, problems = render(raw)
    with open(REPORT, "w") as f:
        f.write(report)
    print("\n".join(problems) or "steady")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
