#!/usr/bin/env python3
"""The layer ledger: one benchmark workload per invocation.

    PYTHONHASHSEED=0 python3 layer_ledger/run.py \\
        --workload cold_scaled --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the workload is timed
untraced and the end-to-end metrics are printed; with ``--trace 1`` a
traced run splits each operation across the program's layers and the
per-layer metrics are printed.  Either way the outputs are checked, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cold_scaled", "service_mixed")
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "miss_ops_per_s": "1/s",
    "hit_ops_per_s": "1/s",
    "miss_p50_s": "s",
    "hit_p50_s": "s",
    "hit_p75_s": "s",
    "peak_rss_mb": "MB",
}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    if name == "cold_scaled":
        from cold_scaled import measure
    else:
        from service_mixed import measure
    return measure(seed, seconds, trace, workdir, SETUPS)


def end_to_end(result) -> dict:
    from common import p50, p75

    samples = result.samples
    values = {
        "setup_s": statistics.median(result.setup_seconds),
        "miss_ops_per_s": len(samples.miss) / samples.miss_busy_s,
        "hit_ops_per_s": len(samples.hit) / samples.hit_busy_s,
        "miss_p50_s": p50(samples.miss),
        "hit_p50_s": p50(samples.hit),
        "hit_p75_s": p75(samples.hit),
        "peak_rss_mb": result.peak_rss_mb,
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"layer ledger: no program to measure under {SRC}; run from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".ledger_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    samples = result.samples
    result.checker.report()
    print(
        f"{args.workload} seed={args.seed}: {samples.attempted} attempted, "
        f"{samples.failed} failed, {len(samples.miss)} misses, "
        f"{len(samples.hit)} hits; {samples.miss_busy_s:.2f}s with misses "
        f"and {samples.hit_busy_s:.2f}s with hits in flight"
    )
    if args.trace:
        for line in result.ledger.table():
            print(line)
        metrics = result.ledger.metrics()
    else:
        metrics = end_to_end(result)
        for name, doc in metrics.items():
            print(f"{name:14s} {doc['value']:.6g} {doc['unit']}")
    print(
        json.dumps(
            {
                "correct": result.checker.correct,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
