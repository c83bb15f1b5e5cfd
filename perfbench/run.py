#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload sessions|soak|plan --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe with dune
(build output goes to standard error), runs it with the same arguments and
passes its standard output through. The last line is the JSON result; it is
checked against BENCHMARK.json, so a metric that is missing, renamed, not
finite or in the wrong unit fails the run. Exits nonzero when the build,
the run or that check fails.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_errors(result, trace):
    errors = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            errors.append("result has no %r" % key)
    if errors:
        return errors
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            errors.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            errors.append("metric %s has unit %r, expected %r" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append("metric %s is not a finite number" % name)
    for name in got:
        if name not in want:
            errors.append("metric %s is not declared in BENCHMARK.json" % name)
    return errors


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    build = subprocess.run(
        # No shared cache: the build writes only under the checkout's _build.
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: run failed with code %d" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    try:
        errors = result_errors(json.loads(lines[-1]), trace)
    except ValueError as e:
        errors = ["last line is not JSON: %s" % e]
    if errors:
        print("\n".join(lines[:-1]))
        for e in errors:
            print("perfbench: " + e, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
