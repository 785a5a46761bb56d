#!/usr/bin/env python3
"""Build and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the sources in this checkout,
runs the workload, checks that the result line names exactly the
metrics and units BENCHMARK.json declares, and prints two JSON lines:
a report (provenance, correctness gates, sample counts, histogram
buckets, ladder rungs) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_tree_sha1():
    """Hash of the sources the benchmark builds, for provenance in a
    checkout that is not a git repository."""
    h = hashlib.sha1()
    names = ["dune-project", "BENCHMARK.json"]
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            names += [os.path.relpath(os.path.join(d, f), ROOT) for f in sorted(files)]
    for name in names:
        path = os.path.join(ROOT, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def check_metrics(result, declared):
    """Errors if the result line does not name exactly the declared
    metrics with their units, each a finite number."""
    errors = []
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                      % (sorted(set(declared) - set(metrics)),
                         sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s has unit %r, declared %r" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append("%s is not a finite number: %r" % (name, v))
    return errors


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    # Build from this checkout's sources only, never from a copy of the
    # libraries installed elsewhere; everything dune writes stays in _build.
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no repository sources (dune-project, lib/) next to perfbench/")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spawn-time", repr(time.time())]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        fail("workload %s failed (exit %d)" % (args.workload, run.returncode))
    try:
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unreadable output: %s" % e)

    errors = check_metrics(result, declared)
    if errors:
        result["correct"] = False
    rep = report["report"]
    rep["provenance"]["commit"] = git_commit()
    rep["provenance"]["source_tree_sha1"] = source_tree_sha1()
    rep["benchmark_errors"] = errors
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
