#!/usr/bin/env python3
"""Run workloads repeatedly and report how steady each metric is.

    python3 layer_ledger/steadiness.py --runs 10 --seconds 20
    python3 layer_ledger/steadiness.py --workload service_mixed --runs 5

Each run is ``run.py`` in a child process with its own ``--seed``
(``--first-seed``, ``--first-seed + 1``, ...).  For every end-to-end
metric the report gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median.  It also checks that
every run was correct and that the share of failed operations was the
same in every run, and prints the wall time of each run.  The bounds in
``BENCHMARK.json`` are set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    started = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.monotonic() - started
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1]), wall


def bounds() -> dict[str, float]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def report(workload: str, results: list[dict], walls: list[float]) -> bool:
    steady = True
    limits = bounds()
    print(f"== {workload}: {len(results)} runs, wall "
          f"{min(walls):.1f}-{max(walls):.1f}s")
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    print(f"   correct in every run: {correct}; failed shares: "
          f"{sorted(str(s) for s in shares)}")
    steady = correct and len(shares) == 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else float("inf")
        bound = limits.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady = steady and ok
            verdict = f"bound {bound:g} -> {'ok' if ok else 'WIDE'}"
        print(
            f"   {name:14s} median {median:10.6g} {unit:5s} "
            f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:6.3f} {verdict}"
        )
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    steady = True
    for workload in workloads:
        results, walls = [], []
        for offset in range(args.runs):
            result, wall = one_run(workload, args.first_seed + offset, seconds)
            results.append(result)
            walls.append(wall)
        steady = report(workload, results, walls) and steady
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
