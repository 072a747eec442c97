#!/usr/bin/env python3
"""detstl benchmark: build the perfbench binary from this checkout, run one
workload in its own process and print its metrics.

    python3 perfbench/run.py --workload table3 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). Build output goes to stderr. The build tree is
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout; traced runs also leave their spans there as JSON lines.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run exits within 180 s; the child gets the rest after the build.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no detstl sources next to perfbench/ (expected ../src); "
             "run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if rc != 0:
            fail("build step failed (%d): %s" % (rc, " ".join(cmd)))
    return os.path.join(out, "perfbench")


def run_one(binary, args, workload, capture):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans-%s-seed%d.jsonl" % (workload, args.seed))]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout


def run_all(binary, args, names):
    """Each workload in its own process; prints one row per metric."""
    worst = 0
    for w in names:
        rc, out = run_one(binary, args, w, capture=True)
        worst = max(worst, rc)
        if rc != 0:
            print("%s: exit %d" % (w, rc))
            continue
        res = json.loads(out.strip().splitlines()[-1])
        ratio = "%d/%d" % (res["failed"], res["attempted"])
        print("%-12s correct=%s fail_ratio=%s" % (w, res["correct"], ratio))
        for name, m in res["metrics"].items():
            print("  %-36s %20s %s" % (name, m["value"], m["unit"]))
    return worst


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workers", type=int, default=0,
                    help="override the workload's worker count (tests only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.workload == "all":
        return run_all(binary, args, names)
    rc, _ = run_one(binary, args, args.workload, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
