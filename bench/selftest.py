#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed N]

1. For every workload, two traced runs on one seed must report identical
   counts: every per-layer metric with unit ``count`` or ``frac`` (calls,
   computed sizes, Hall trees, self-check cases, CLI stdout bytes, span
   reuse).  Each run is as short as the benchmark allows.
2. For every workload, the jobs built from two different seeds must form
   the same job list (the same CLI argv apart from ``--seed`` values, the
   same morphism shapes and operations), while the generated matrices
   differ wherever the workload has any.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

COUNT_UNITS = ("count", "frac")


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run not correct\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in COUNT_UNITS}


def job_shape(payload: dict):
    """A job with everything the seed may change taken out."""
    if "cli" in payload:
        argv = payload["cli"]
        return ["cli"] + ["<seed>" if i and argv[i - 1] == "--seed" else a
                          for i, a in enumerate(argv)]
    if "morphism" in payload:
        return {k: v for k, v in payload["morphism"].items() if k != "matrices"}
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = []
    for workload, build in run.WORKLOADS.items():
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff:
            failures.append(f"{workload}: counts differ between runs: {diff}")
        print(f"{workload}: {len(first)} counts, repeat={not diff}")

        a, b = build(args.seed), build(args.seed + 1)
        if [job_shape(j.payload) for j in a] != [job_shape(j.payload) for j in b]:
            failures.append(f"{workload}: the job list depends on the seed")
        mats = lambda jobs: [j.payload["morphism"]["matrices"] for j in jobs
                             if "morphism" in j.payload]
        if mats(a) and mats(a) == mats(b):
            failures.append(f"{workload}: the seed does not change the matrices")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
