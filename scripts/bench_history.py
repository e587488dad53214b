#!/usr/bin/env python3
"""The benchmark trajectory: BENCH_history.jsonl, one row per measured state.

    scripts/bench_history.py --label "PR 20" [--seed 3] [--seconds 24]
    scripts/bench_history.py --check

Without --check it runs every workload of BENCHMARK.json once through
BENCHMARK.json's own command (--trace 0), reads the JSON object on the
last line of each run and appends one row:

    {"label", "sha", "seed", "seconds", "workloads": {name: {metric: value}}}

with the nine end-to-end metrics per workload; "sha" is `git rev-parse
HEAD`, "+dirty" appended when the tree has uncommitted changes. --check
runs nothing (CI has no quiet box to time on): it validates that every
line parses and names every workload and every end-to-end metric of
BENCHMARK.json with a finite value.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.jsonl"


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return done.stdout.strip()


def measure(command, workload, metrics, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command + args, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: the run failed its own checks: {result}")
    return {m: result["metrics"][m]["value"] for m in metrics}


def problems(lines, workloads, metrics):
    for n, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
        except ValueError as err:
            yield f"line {n}: {err}"
            continue
        for key in ("label", "sha", "seed", "seconds"):
            if key not in row:
                yield f"line {n}: no {key!r}"
        for workload in workloads:
            for metric in metrics:
                value = row.get("workloads", {}).get(workload, {}).get(metric)
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                    yield f"line {n}: {workload}.{metric} = {value!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--check", action="store_true", help="validate the file, run nothing")
    parser.add_argument("--label", help="what this row measures, e.g. 'PR 20'")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=24)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    if args.check:
        lines = HISTORY.read_text().splitlines()
        found = list(problems(lines, workloads, metrics))
        for problem in found:
            print(f"{HISTORY.name}: {problem}", file=sys.stderr)
        print(f"{HISTORY.name}: {len(lines)} rows, {len(found)} problems")
        sys.exit(1 if found or not lines else 0)
    if not args.label:
        parser.error("--label is required to append a row")

    row = {
        "label": args.label,
        "sha": git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in workloads:
        row["workloads"][workload] = measure(bench["command"], workload, metrics, args.seed, args.seconds)
        print(f"{workload}: {row['workloads'][workload]}")
    with HISTORY.open("a") as history:
        history.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    main()
