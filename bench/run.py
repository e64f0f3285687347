#!/usr/bin/env python3
"""The liegrowth benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the workload's jobs from the
seed, then for about S seconds runs the whole job list again and again, each
time in a fresh single-threaded worker process (``bench/worker.py``), so
every run starts with cold caches as a CLI user's does.  It checks every
output, and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting with
``#``, records the seed, sample counts, job latency and the machine.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_ref_s``
(median time from the first job's start to the last job's end), ``setup_s``
(median time from spawning a worker until it has imported ``liegrowth``),
both rescaled toward reference seconds by a calibration loop (see
CALIBRATION_REF_S), and ``peak_rss_mb`` (median peak RSS of a worker).  With
``--trace 1`` the repetitions alternate between traced and untraced workers,
and the metrics are the per-layer ones from the traced repetition with the
median wall time; the spans of every traced repetition go to
``.bench_out/spans-<workload>-seed<N>.jsonl``.

Correctness, checked outside the timed region: deterministic outputs must
match the sha256 digests in ``bench/golden.json``; outputs must satisfy the
invariants in ``bench/checks.py``; and every later run must reproduce the
first run's outputs exactly.  ``--write-golden`` records the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT_DIR = ROOT / ".bench_out"

PROBES = 5            # set-up-only worker spawns per run, besides the repetitions
MIN_REPS = 3          # repetitions per run, however long each takes
WORKER_TIMEOUT = 150  # seconds

# Other tenants of the shared machine slow pure-Python code by up to half,
# in bursts from under a second to minutes, which moves a raw wall time
# further than any bound could allow.  So every worker times a fixed
# calibration loop (worker.calibrate) before its set-up and after its jobs,
# and times are rescaled by the square root of CALIBRATION_REF_S over the
# run's median calibration time.  The square root applies half the
# correction: across 10-run sets the package's times moved a quarter to all
# of as much as the loop's, and the full correction doubled the spread of
# the least sensitive workload (homology-p3).  CALIBRATION_REF_S is the loop's
# median on a quiet 2-vCPU KVM guest (Intel Xeon family 6 model 207, 2.1 GHz,
# Python 3.11.7).
CALIBRATION_REF_S = 0.062

P, S = 3, 3           # every generated morphism is over Z/27
SHAPE_SEED = 20210607  # fixes the job list; --seed only changes entries


# ---------------------------------------------------------------------------
# Jobs


@dataclass
class Job:
    payload: dict          # what the worker receives
    golden: str | None     # key into golden.json, for deterministic outputs
    check: Callable[[dict], list[str]]  # result -> error strings


def _cli(argv, invariant=None, golden=True):
    def check(result):
        errors = [] if result["rc"] == 0 else [f"exit code {result['rc']}"]
        if result["stderr"]:
            errors.append(f"stderr: {result['stderr'][:200]}")
        return errors or (invariant(result["stdout"]) if invariant else [])

    return Job({"cli": argv}, "cli " + " ".join(argv) if golden else None, check)


def _invertible(rng, k, mod):
    """A random unit lower times unit upper triangular matrix: det 1."""
    low = [[rng.randrange(mod) if j < i else int(i == j) for j in range(k)]
           for i in range(k)]
    up = [[rng.randrange(mod) if j > i else int(i == j) for j in range(k)]
          for i in range(k)]
    return checks.matmul(low, up, mod)


def _planted(rng, m, n, vals):
    """An m x n matrix P D Q over Z/p^s whose Smith form has valuations
    ``vals`` (s stands for a zero diagonal entry)."""
    mod = P ** S
    left, right = _invertible(rng, m, mod), _invertible(rng, n, mod)
    scale = [P ** v % mod for v in vals] + [0] * (n - len(vals))
    pd = [[x * c % mod for x, c in zip(row, scale)] for row in left]
    return checks.matmul(pd, right, mod)


def _valuations(shape_rng, r, unimodular):
    if unimodular:
        return [0] * r
    return [shape_rng.choice((0, 0, 0, 0, 0, 0, 1, 1, 2, S)) for _ in range(r)]


def _morphism_jobs(shape_rng, rng, blocks_list, ops, tor=False):
    """One job per morphism; ``blocks_list`` holds, per morphism, a list of
    (degree, codomain rank, domain rank, unimodular) blocks."""
    jobs = []
    for blocks in blocks_list:
        plan, mats, dom, cod = {}, {}, {}, {}
        for d, m, n, unimodular in blocks:
            plan[d] = _valuations(shape_rng, min(m, n), unimodular)
            order = plan[d][:]
            rng.shuffle(order)
            mats[str(d)] = _planted(rng, m, n, order)
            cod[str(d)], dom[str(d)] = m, n
        payload = {"p": P, "s": S, "domain": dom, "codomain": cod,
                   "matrices": mats, "ops": ops}
        if tor:
            payload["tor_with"] = {
                str(d): [shape_rng.randint(1, S) for _ in range(shape_rng.randint(1, 3))]
                for d in shape_rng.sample(range(4), shape_rng.randint(1, 2))
            }
        jobs.append(Job({"morphism": payload}, None,
                        lambda out, job=payload, plan=plan:
                        checks.morphism(job, plan, out)))
    return jobs


def homology_p3(seed):
    return [
        _cli(["homology", "--p", "3", "--deg-x", "2", "--max-weight", "12"],
             checks.homology_rows),
        _cli(["ineq", "--p", "3", "--max-k", "12"]),
        _cli(["boundary-growth", "--p", "3", "--max-k", "6"]),
    ]


def zp_modules(seed):
    jobs = [_cli(["lie-dims", "--p", "3", "--u", "2", "--gens", "x:2,y:1",
                  "--max-weight", "10"])]
    for k in range(1, 10):
        h = {"p": 3, "deg_x": 2, "r": 2, "k": k, "u": 2}
        jobs.append(Job({"homology": h},
                        "homology " + " ".join(f"{a}={b}" for a, b in h.items()),
                        lambda out: checks.boundaries_in_cycles(out["report"])))
    wide = [[(0, 80, 80, False)], [(0, 120, 96, True)], [(0, 96, 120, False)],
            [(0, 120, 120, False)]]
    jobs += _morphism_jobs(random.Random(SHAPE_SEED), random.Random(seed), wide,
                           ["smith_normal_form", "image_dims", "is_injective"])
    return jobs


def small_modules(seed):
    shape_rng = random.Random(SHAPE_SEED)
    small = []
    for _ in range(2000):
        blocks = []
        for d in sorted(shape_rng.sample(range(4), shape_rng.randint(1, 3))):
            m, n = shape_rng.randint(1, 8), shape_rng.randint(1, 8)
            blocks.append((d, max(m, n), min(m, n), True) if shape_rng.random() < 0.25
                          else (d, m, n, False))
        small.append(blocks)
    return [_cli(["selftest", "--trials", "120", "--seed", str(seed)],
                 checks.selftest_ok, golden=False)] + _morphism_jobs(
        shape_rng, random.Random(seed), small,
        ["smith_normal_form", "image_dims", "is_injective", "tor"], tor=True)


def moore_hall(seed):
    points = checks.growth_points(2, 2, 7, 60)
    return [
        _cli(["hall", "--n", "2", "--max-k", "16"],
             lambda out: checks.hall_counts(out, 2, 16)),
        _cli(["moore-hm", "--n", "2", "--m", "2", "--p", "3", "--r", "2",
              "--max-k", "16"],
             lambda out: checks.moore_hm(out, 2, 2, 3, 2, 16)),
        _cli(["moore-growth", "--n", "2", "--m", "2", "--p", "5", "--r", "2",
              "--s", "2", "--j", "7", "--K", "60"],
             lambda out: checks.moore_growth(out, points, "exponential")),
        _cli(["growth-analyze", "--points", ",".join(f"{m}:{a}" for m, a in points)],
             lambda out: checks.growth_verdict(out, "exponential")),
    ]


WORKLOADS = {
    "homology-p3": homology_p3,
    "zp-modules": zp_modules,
    "small-modules": small_modules,
    "moore-hall": moore_hall,
}


# ---------------------------------------------------------------------------
# Workers


def _worker_env():
    env = dict(os.environ)
    env.pop("LIEGROWTH_FORMAT", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(request: bytes | None, traced: bool = False):
    """Spawn a worker and return (set-up seconds, its calibration times
    before set-up, reply or None).

    With ``request`` None the worker is only set up and then told to stop.
    """
    cmd = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), bufsize=0,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            raise RuntimeError(f"worker did not start: {line!r}") from None
        out, _ = proc.communicate(request or b"", timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return (setup - ready["calibration_s"], ready["calibration"],
            json.loads(out) if request else None)


# ---------------------------------------------------------------------------
# Metrics


LAYER_OF = {
    "cli.main": "cli.self_s",
    "freelie.embed_tensor": "freelie.embed_s",
    "freelie.lie_component": "freelie.lie_component_self_s",
    "freelie.hall_basis": "freelie.hall_s",
    "freelie.basic_products": "freelie.hall_s",
    "fp.rref": "fp.rref_s",
    "difflie.homology": "difflie.homology_self_s",
    "difflie.differentiate": "difflie.differentiate_s",
    "zpmod.smith_normal_form_matrix": "zpmod.snf_s",
    "zpmod.smith_normal_form": "zpmod.module_ops_self_s",
    "zpmod.image_dims": "zpmod.module_ops_self_s",
    "zpmod.is_injective": "zpmod.module_ops_self_s",
    "zpmod.kernel_generators": "zpmod.module_ops_self_s",
    "zpmod.is_surjective": "zpmod.module_ops_self_s",
    "zpmod.tor": "zpmod.module_ops_self_s",
    "zpmod.split_injection_normalize": "zpmod.module_ops_self_s",
    "zpmod.is_prime": "zpmod.is_prime_s",
    "moore.hilton_milnor_expansion": "moore.hm_self_s",
    "moore.growth_certificate": "moore.cert_s",
    "growth.analyze": "growth.analyze_s",
    "selfcheck.run_all": "selfcheck.self_s",
}

CALLS = {
    "freelie.embed_calls": "freelie.embed_tensor",
    "freelie.hall_calls": "freelie.hall_basis",
    "fp.rref_calls": "fp.rref",
    "difflie.homology_calls": "difflie.homology",
    "difflie.differentiate_calls": "difflie.differentiate",
    "zpmod.snf_calls": "zpmod.smith_normal_form_matrix",
    "zpmod.is_prime_calls": "zpmod.is_prime",
}


def layer_counts(spans, stdout_bytes: int) -> dict:
    """Counts and computed sizes; they must repeat exactly across runs."""
    out = {metric: 0 for metric in CALLS}
    by_name = {name: metric for metric, name in CALLS.items()}
    out.update({"freelie.hall_trees": 0, "fp.rref_max_cols": 0,
                "fp.rref_ops_computed": 0, "zpmod.snf_max_dim": 0,
                "zpmod.snf_entries_computed": 0, "moore.hm_factors": 0,
                "selfcheck.cases": 0, "cli.stdout_bytes": stdout_bytes})
    for name, _, _, _, attrs in spans:
        if name in by_name:
            out[by_name[name]] += 1
        if name == "freelie.hall_basis":
            out["freelie.hall_trees"] += attrs["trees"]
        elif name == "fp.rref":
            out["fp.rref_max_cols"] = max(out["fp.rref_max_cols"], attrs["cols"])
            out["fp.rref_ops_computed"] += attrs["rank"] * attrs["rows"] * attrs["cols"]
        elif name == "zpmod.smith_normal_form_matrix":
            out["zpmod.snf_max_dim"] = max(out["zpmod.snf_max_dim"],
                                           attrs["rows"], attrs["cols"])
            out["zpmod.snf_entries_computed"] += attrs["rows"] * attrs["cols"]
        elif name == "moore.hilton_milnor_expansion":
            out["moore.hm_factors"] += attrs["factors"]
        elif name == "selfcheck.run_all":
            out["selfcheck.cases"] += attrs["cases"]
    # Share of prime-field homology calls that built no span (cache hits).
    built = tracer.ancestors_of(spans, "freelie.embed_tensor")
    u1 = [i for i, s in enumerate(spans) if s[0] == "difflie.homology" and s[4]["u"] == 1]
    out["freelie.span_reuse"] = (
        sum(i not in built for i in u1) / len(u1) if u1 else 0.0)
    return out


def layer_times(spans, wall: float) -> dict:
    out = {metric: 0.0 for metric in sorted(set(LAYER_OF.values()))}
    for name, t in tracer.self_times(spans).items():
        if name in LAYER_OF:
            out[LAYER_OF[name]] += t
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(out[m] for m in set(LAYER_OF.values()))
    return out


def tail_percentile(samples):
    """The highest of a few standard percentiles with at least ten samples
    above it, as (percent, value), or None when there are too few."""
    values = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        above = math.floor(len(values) * (100 - pct) / 100)
        if above >= 10:
            return pct, values[len(values) - 1 - above]
    return None


def _stats(samples, unit="s") -> str:
    text = f"n={len(samples)} median={statistics.median(samples):.4f}{unit}"
    tail = tail_percentile(samples)
    if tail:
        text += f" p{tail[0]:g}={tail[1]:.4f}{unit}"
    return text


# ---------------------------------------------------------------------------
# One benchmark run


def digest(result) -> str:
    text = result["stdout"] if "stdout" in result else json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    """One repetition: the whole job list in one fresh worker."""

    traced: bool
    reply: dict            # the worker's reply
    seconds: float         # including set-up and calibration

    @property
    def wall(self) -> float:
        return self.reply["wall"]


def measure(jobs, seconds: float, trace: bool):
    """Run the job list in fresh workers for about ``seconds``.

    Returns (set-up times, calibration times, repetitions).
    """
    request = json.dumps({"jobs": [j.payload for j in jobs]}).encode()
    setups, calibrations, reps = [], [], []
    for _ in range(PROBES):
        setup, before, _ = run_worker(None)
        setups.append(setup)
        calibrations += before
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(reps) % 2 == 0
        setup, before, reply = run_worker(request, traced)
        setups.append(setup)
        calibrations += before + reply["calibration"]
        reps.append(Rep(traced, reply, time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            return setups, calibrations, reps


def verify(jobs, reps, golden: dict) -> tuple[int, list[str]]:
    """Full checks on the first repetition, exact repeats on the others."""
    failed, errors = 0, []
    first = reps[0].reply["jobs"]
    want = []
    for i, (job, done) in enumerate(zip(jobs, first)):
        if done["error"]:
            errs = [done["error"].strip().splitlines()[-1]]
        else:
            errs = job.check(done["result"])
            if job.golden is not None and golden.get(job.golden) != digest(done["result"]):
                errs.append(f"digest differs from golden for {job.golden!r}")
        want.append(None if done["error"] else digest(done["result"]))
        failed += bool(errs)
        errors += [f"job {i}: {e}" for e in errs]
    for n, rep in enumerate(reps[1:], 2):
        for i, (done, d) in enumerate(zip(rep.reply["jobs"], want)):
            bad = done["error"] is not None or digest(done["result"]) != d
            failed += bad
            if bad:
                errors.append(f"repetition {n} job {i}: output differs from the first")
    return failed, errors


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def write_spans(workload, seed, info, reps):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, **info}) + "\n")
        for run_id, rep in enumerate(reps):
            if not rep.traced:
                continue
            t0 = rep.reply["start"]
            for name, parent, start, end, attrs in rep.reply["spans"]:
                fh.write(json.dumps([run_id, name, parent, start - t0, end - t0,
                                     attrs]) + "\n")
    return path


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[workload](seed)
    golden = json.loads(GOLDEN.read_text())
    load_before = machine()["loadavg"]
    setups, calibrations, reps = measure(jobs, seconds, trace)
    scale = (CALIBRATION_REF_S / statistics.median(calibrations)) ** 0.5
    info = {**machine(), "loadavg_before": load_before,
            "numpy": reps[0].reply["numpy"]}
    failed, errors = verify(jobs, reps, golden)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    plain = [r for r in reps if not r.traced]
    traced = sorted((r for r in reps if r.traced), key=lambda r: r.wall)
    summary = (
        f"# workload={workload} seed={seed} trace={int(trace)} repetitions={len(reps)} "
        f"jobs_per_repetition={len(jobs)} wall_s[{_stats([r.wall for r in plain])}] "
        f"setup_s[{_stats(setups)}] "
        f"job_latency[{_stats([j['t'] for r in reps for j in r.reply['jobs']])}] "
        f"calibration_s[{_stats(calibrations)}] "
        f"machine={json.dumps(info, sort_keys=True)}")
    if trace:
        counts = [layer_counts(r.reply["spans"], _stdout_bytes(r.reply)) for r in traced]
        if any(c != counts[0] for c in counts):
            failed += 1
            print("check failed: traced counts differ between repetitions", file=sys.stderr)
        middle = traced[(len(traced) - 1) // 2]
        metrics = {**layer_times(middle.reply["spans"], middle.wall), **counts[0],
                   "trace.overhead_s": statistics.median(r.wall for r in traced)
                   - statistics.median(r.wall for r in plain),
                   "trace.calibration_s": statistics.median(calibrations)}
        summary += f" spans={write_spans(workload, seed, info, reps).relative_to(ROOT)}"
    else:
        metrics = {
            "wall_ref_s": statistics.median(r.wall for r in plain) * scale,
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": statistics.median(r.reply["rss_kb"] for r in plain) / 1024,
        }
    units = {k: ("s" if k.endswith("_s") else "frac" if k.endswith("_reuse")
                 else "MB" if k.endswith("_mb") else "count") for k in metrics}
    print(summary)
    return {
        "correct": failed == 0,
        "attempted": len(jobs) * len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }


def _stdout_bytes(reply) -> int:
    return sum(len(j["result"]["stdout"].encode()) for j in reply["jobs"]
               if j["result"] and "stdout" in j["result"])


def write_golden():
    """Record digests of every deterministic output, after its checks pass."""
    golden = {}
    for workload, build in WORKLOADS.items():
        jobs = build(0)
        _, _, reply = run_worker(json.dumps({"jobs": [j.payload for j in jobs]}).encode())
        for job, done in zip(jobs, reply["jobs"]):
            if done["error"] or job.check(done["result"]):
                sys.exit(f"{workload}: a check fails, no golden digest written")
            if job.golden is not None:
                golden[job.golden] = digest(done["result"])
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "liegrowth" / "__init__.py").is_file():
        print(f"no liegrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
