#!/usr/bin/env python3
"""Read single-call figures out of traced benchmark runs.

    python3 bench/baselines.py [SPANS_FILE ...]

By default it reads every ``.bench_out/spans-*.jsonl`` that traced runs of
``bench/run.py`` wrote.  For each figure it takes the first matching span of
every traced run (the cold call) and prints the median over runs, with the
number of runs and each file's machine record.  Durations are inclusive and
include the tracing overhead of the wrapped calls beneath them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent

# (label, span name, required attrs)
FIGURES = [
    ("homology p=3 weight 10", "difflie.homology", {"k": 10, "u": 1}),
    ("homology p=3 weight 11", "difflie.homology", {"k": 11, "u": 1}),
    ("homology p=3 weight 12", "difflie.homology", {"k": 12, "u": 1}),
    ("lie_component(u=2) weight 8", "freelie.lie_component", {"k": 8, "u": 2}),
    ("hall_basis(2, 16)", "freelie.hall_basis", {"max_weight": 16}),
    ("hilton_milnor_expansion K=16", "moore.hilton_milnor_expansion",
     {"max_weight": 16}),
    ("SNF 80x80 over Z/27", "zpmod.smith_normal_form_matrix",
     {"rows": 80, "cols": 80}),
]


def first_calls(path: Path):
    """(header, {label: [seconds per traced run]}) for one spans file."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    found: dict[str, dict[int, float]] = {}
    for line in lines[1:]:
        run_id, name, _, start, end, attrs = json.loads(line)
        for label, span, want in FIGURES:
            if (span == name and attrs is not None
                    and all(attrs.get(k) == v for k, v in want.items())):
                found.setdefault(label, {}).setdefault(run_id, end - start)
    return header, {label: list(runs.values()) for label, runs in found.items()}


def job_shares(path: Path, min_seconds: float = 0.1):
    """Per job of the first traced run, longer than ``min_seconds``: its
    duration and the self time of each span name within it, largest first."""
    spans = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    first = [s[1:] for s in spans if s[0] == spans[0][0]]
    starts = [i for i, s in enumerate(first) if s[0] == "job"] + [len(first)]
    out = []
    for i, nxt in zip(starts, starts[1:]):
        _, _, start, end, _ = first[i]
        if end - start < min_seconds:
            continue
        # Re-base parent indices onto the job's descendants, which follow it.
        inside = [[name, parent - i - 1, s, e, a]
                  for name, parent, s, e, a in first[i + 1:nxt]]
        out.append((end - start, sorted(tracer.self_times(inside).items(),
                                        key=lambda kv: -kv[1])))
    return out


def main(argv) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / ".bench_out").glob("spans-*.jsonl"))
    if not paths:
        print("no spans files; run bench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    samples: dict[str, list[float]] = {}
    for path in paths:
        header, found = first_calls(path)
        print(f"# {path.name}: {json.dumps(header, sort_keys=True)}")
        for label, values in found.items():
            samples.setdefault(label, []).extend(values)
        for seconds, shares in job_shares(path):
            top = ", ".join(f"{n} {t / seconds:.0%}" for n, t in shares[:3])
            print(f"#   job {seconds:.3f} s: {top}")
    for label, _, _ in FIGURES:
        values = samples.get(label)
        if values:
            print(f"{label}: median {statistics.median(values):.3f} s over "
                  f"{len(values)} traced runs (min {min(values):.3f}, "
                  f"max {max(values):.3f})")
        else:
            print(f"{label}: no matching span")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
