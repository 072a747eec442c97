#!/usr/bin/env python3
"""The benchmark's own tests. Run from the checkout root:

    python3 perfbench/test_perfbench.py

They build perfbench (via run.py) and take a few minutes: the exactness test
runs the traced table3 and soak workloads three times each.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, seed=0, seconds=1, trace=0, workers=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if workers:
        cmd += ["--workers", str(workers)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                   proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def catalogue():
    """(kind, name, unit, exact) rows from the binary's own metric table."""
    run("soc_probe")  # (re)builds the binary
    binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                          "perfbench", "perfbench")
    out = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return [line.split() for line in out.splitlines()]


class MetricNames(unittest.TestCase):
    def test_names_match_pattern_and_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        rows = catalogue()
        for kind in ("end_to_end", "per_layer"):
            declared = [m["name"] for m in bench[kind]]
            built = [r[1] for r in rows if r[0] == kind]
            self.assertEqual(declared, built, kind)
            for name in declared:
                self.assertTrue(NAME_RE.fullmatch(name), name)
        for w in bench["workloads"]:
            self.assertTrue(NAME_RE.fullmatch(w["name"]), w["name"])


class ExactCounts(unittest.TestCase):
    def test_exact_counts_repeat_across_runs_and_worker_counts(self):
        exact = [r[1] for r in catalogue() if r[0] == "per_layer" and r[3] == "exact"]
        for workload in ("table3", "soak"):
            runs = [run(workload, trace=1), run(workload, trace=1),
                    run(workload, trace=1, workers=1)]
            for r in runs:
                self.assertTrue(r["correct"], workload)
                self.assertEqual(r["failed"], 0, workload)
            for name in exact:
                values = [r["metrics"][name]["value"] for r in runs]
                self.assertEqual(len(set(values)), 1, "%s %s %s" % (workload, name, values))
            # The workload's own layer must actually be measured.
            layer = "fault.detect_cycles" if workload == "table3" else "runtime.disturb_cycles"
            self.assertGreater(runs[0]["metrics"][layer]["value"], 0)


class HeldOutSoakSeed(unittest.TestCase):
    def test_unpinned_seed_passes_its_checks(self):
        r = run("soak", seed=4242)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table3",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=d, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
