#!/usr/bin/env python3
"""Tests for the benchmark itself (about three minutes; builds on first use).

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(workload, trace, fingerprints=None, seed=0):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if fingerprints:
        cmd += ["--fingerprints", fingerprints]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class EveryMetric(unittest.TestCase):
    def check(self, workload, trace):
        table = run.SPEC["per_layer" if trace else "end_to_end"]
        res = bench(workload, trace)
        self.assertEqual(sorted(res), ["attempted", "correct", "failed",
                                       "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual({n: m["unit"] for n, m in res["metrics"].items()},
                         {row["name"]: row["unit"] for row in table})
        if not trace:
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_race_mem(self):
        self.check("race-mem", 0)
        self.check("race-mem", 1)

    def test_race_ilp(self):
        self.check("race-ilp", 0)
        self.check("race-ilp", 1)

    def test_offline_sweep(self):
        self.check("offline-sweep", 0)
        self.check("offline-sweep", 1)


class PinnedFingerprint(unittest.TestCase):
    def test_wrong_pinned_fingerprint_fails_cells(self):
        with open(os.path.join(run.HERE, "fingerprints.txt")) as f:
            lines = f.read().splitlines()
        key = "race-mem/race.DCRA.e16.m0 "
        idx = next(i for i, l in enumerate(lines) if l.startswith(key))
        lines[idx] = lines[idx].replace("committed=", "committed=9", 1)
        scratch = os.path.join(run.ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        wrong = os.path.join(scratch, "wrong_fingerprints.txt")
        with open(wrong, "w") as f:
            f.write("\n".join(lines) + "\n")
        res = bench("race-mem", 0, fingerprints=wrong)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_other_seed_is_checked_without_pins(self):
        res = bench("race-mem", 0, seed=1)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


if __name__ == "__main__":
    unittest.main()
