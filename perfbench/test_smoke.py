#!/usr/bin/env python3
"""The benchmark's own test, in its fast smoke mode.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json with --smoke (one unit per pass), once
untraced and once traced, through run.py. run.py already fails a run whose
metrics differ from BENCHMARK.json in name or unit, or are not finite; this
test adds the run's own invariants, and checks that the command fails without
printing a result in a directory holding only BENCHMARK.json and the
benchmark's files. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, cwd=ROOT):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command + args + ["--smoke"], cwd=cwd, capture_output=True, text=True)


def check_run(workload, trace):
    errors = []
    proc = run(workload, trace)
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("result not clean: %s" % {k: result[k] for k in ("correct", "attempted", "failed")})
    if trace:
        if metrics["trace.dropped"] != 0:
            errors.append("trace.dropped = %s" % metrics["trace.dropped"])
        if metrics["trace.coverage"] < 0.95:
            errors.append("trace.coverage = %s" % metrics["trace.coverage"])
        if metrics["recovery.deadline_overruns"] != 0:
            errors.append("recovery.deadline_overruns = %s" % metrics["recovery.deadline_overruns"])
    else:
        errors += ["%s is 0" % name for name, value in metrics.items() if value == 0]
    return errors


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: the command must fail
    without printing a result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        paths = json.load(f)["paths"]
    bare = os.path.join(ROOT, "_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in paths:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    try:
        proc = run("sessions", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        return ["succeeded in a bare directory"]
    if lines and lines[-1].startswith("{"):
        return ["printed a result in a bare directory"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = False
    for workload in workloads:
        for trace in (0, 1):
            errors = check_run(workload, trace)
            print("%-9s trace %d: %s" % (workload, trace, "ok" if not errors else "FAIL"))
            for e in errors:
                print("    " + e)
            failed = failed or bool(errors)
    errors = check_bare_directory()
    print("bare directory: %s" % ("ok" if not errors else "FAIL"))
    for e in errors:
        print("    " + e)
    return 1 if failed or errors else 0


if __name__ == "__main__":
    sys.exit(main())
