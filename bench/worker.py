"""Benchmark worker: runs one list of generated jobs in a fresh interpreter.

Protocol, over stdin and stdout:

1. The worker times a calibration loop, imports ``liegrowth`` (and, with
   ``--trace``, wraps its layer functions), then prints one JSON line with
   the calibration times and how long the calibration took.  The parent
   times set-up up to here, minus the calibration.
2. The parent writes one JSON object ``{"jobs": [...]}`` and closes stdin.
3. The worker runs the jobs one after another, timing from the first job's
   start to the last job's end, then prints one JSON object with the
   timings, the outputs, its peak RSS, the calibration times after the
   jobs and, when traced, the spans.

The worker never learns which workload it serves.  A job is one of:

* ``{"cli": argv}``: ``liegrowth.cli.main(argv)`` with stdout captured;
* ``{"homology": {"p", "deg_x", "r", "k", "u"}}``: ``difflie.homology`` on
  ``differential_pair(p, deg_x, r)``;
* ``{"morphism": {...}}``: one morphism between free graded modules over
  Z/p^s, built from the given matrices and passed through the listed
  ``zpmod`` operations.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rref_shape(args, kwargs, result):
    import numpy as np

    shape = np.shape(args[0])
    rows, cols = (1, shape[0]) if len(shape) == 1 else shape
    return {"rows": rows, "cols": cols, "rank": len(result[1])}


def _snf_shape(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if len(rows) else 0}


# (span name, module, attribute, describe).  Span names are module.function;
# the parent groups them into layers.
TARGETS = [
    ("cli.main", "liegrowth.cli", "main", None),
    ("freelie.embed_tensor", "liegrowth.freelie", "embed_tensor", None),
    ("freelie.lie_component", "liegrowth.freelie", "lie_component",
     lambda a, kw, r: {"k": _arg(a, kw, 1, "k"), "u": _arg(a, kw, 2, "u")}),
    ("freelie.hall_basis", "liegrowth.freelie", "hall_basis",
     lambda a, kw, r: {"max_weight": _arg(a, kw, 1, "max_weight"),
                       "trees": sum(len(w) for w in r.weights)}),
    ("freelie.basic_products", "liegrowth.freelie", "basic_products", None),
    ("fp.rref", "liegrowth._fp", "rref", _rref_shape),
    ("difflie.homology", "liegrowth.difflie", "homology",
     lambda a, kw, r: {"k": _arg(a, kw, 2, "k"), "u": _arg(a, kw, 3, "u", 1)}),
    ("difflie.differentiate", "liegrowth.difflie", "differentiate", None),
    ("zpmod.smith_normal_form_matrix", "liegrowth.zpmod",
     "smith_normal_form_matrix", _snf_shape),
    ("zpmod.smith_normal_form", "liegrowth.zpmod", "smith_normal_form", None),
    ("zpmod.image_dims", "liegrowth.zpmod", "image_dims", None),
    ("zpmod.is_injective", "liegrowth.zpmod", "is_injective", None),
    ("zpmod.kernel_generators", "liegrowth.zpmod", "kernel_generators", None),
    ("zpmod.is_surjective", "liegrowth.zpmod", "is_surjective", None),
    ("zpmod.tor", "liegrowth.zpmod", "tor", None),
    ("zpmod.split_injection_normalize", "liegrowth.zpmod",
     "split_injection_normalize", None),
    ("zpmod.is_prime", "liegrowth.zpmod", "is_prime", None),
    ("moore.hilton_milnor_expansion", "liegrowth.moore",
     "hilton_milnor_expansion",
     lambda a, kw, r: {"max_weight": _arg(a, kw, 4, "max_weight"),
                       "factors": len(r)}),
    ("moore.growth_certificate", "liegrowth.moore", "growth_certificate", None),
    ("growth.analyze", "liegrowth.growth", "analyze", None),
    ("selfcheck.run_all", "liegrowth.selfcheck", "run_all",
     lambda a, kw, r: {"cases": sum(s.cases for s in r)}),
]


def _calibration_loop():
    """Object churn like the package's own: tuples, dicts, ints, a sort.
    Its working set stays small, so it adds nothing to the peak RSS."""
    counts, acc = {}, 0
    for i in range(150000):
        key = (i % 97, i * 7 % 13) + (i & 7,)
        counts[key] = counts.get(key, 0) + 1
        acc += i * 1234567891011 % 1000003
    return acc, sorted(counts.items())


def calibrate(repeats: int = 5) -> list[float]:
    """Times of the calibration loop, with the garbage collector off so the
    size of the heap does not count."""
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        gc.enable()


def _blocks(pairs):
    return [[d, [list(r) for r in mat], [list(r) for r in inv]]
            for d, (mat, inv) in pairs]


class Runner:
    """Runs jobs; keeps the differential pairs it has built."""

    def __init__(self):
        from liegrowth import cli, difflie, zpmod

        self.cli, self.difflie, self.zpmod = cli, difflie, zpmod
        self.pairs = {}

    def run(self, job):
        if "cli" in job:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(job["cli"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if "homology" in job:
            h = job["homology"]
            key = (h["p"], h["deg_x"], h["r"])
            if key not in self.pairs:
                self.pairs[key] = self.difflie.differential_pair(*key)
            gens, spec = self.pairs[key]
            report = self.difflie.homology(gens, spec, h["k"], u=h["u"])
            return {"report": report.to_json_dict()}
        return self._morphism(job["morphism"])

    def _morphism(self, m):
        zp = self.zpmod
        ring = zp.RingSpec(m["p"], m["s"])
        free = lambda ranks: zp.GradedModule.from_dict(
            ring, {int(d): (ring.s,) * n for d, n in ranks.items()})
        phi = zp.ModuleMorphism.from_dict(
            free(m["domain"]), free(m["codomain"]),
            {int(d): mat for d, mat in m["matrices"].items()})
        out = {}
        for op in m["ops"]:
            if op == "smith_normal_form":
                snf = zp.smith_normal_form(phi)
                out[op] = {"u": _blocks(snf.u.blocks), "v": _blocks(snf.v.blocks),
                           "diagonal": [[d, list(v)] for d, v in snf.diagonal]}
            elif op == "image_dims":
                out[op] = zp.image_dims(phi).to_json_dict()["components"]
            elif op == "is_injective":
                out[op] = zp.is_injective(phi)
            elif op == "tor":
                other = zp.GradedModule.from_dict(
                    ring, {int(d): tuple(e) for d, e in m["tor_with"].items()})
                out[op] = zp.tor(zp.image_dims(phi), other).to_json_dict()["components"]
            else:
                raise ValueError(f"unknown morphism operation {op!r}")
        return out


def main() -> int:
    t0 = time.perf_counter()
    before = calibrate()
    spent = time.perf_counter() - t0
    traced = "--trace" in sys.argv[1:]
    import liegrowth.cli  # noqa: F401  (loads every liegrowth module)

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, TARGETS)
    runner = Runner()
    print(json.dumps({"calibration": before, "calibration_s": spent}), flush=True)

    request = sys.stdin.read()
    if not request:  # a set-up probe
        return 0
    jobs = json.loads(request)["jobs"]
    done = []
    start = time.perf_counter()
    for job in jobs:
        sid = tracer.open("job") if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = runner.run(job), None
        except Exception:  # a failed job is reported, the run goes on
            result, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.close(sid)
        done.append({"t": t1 - t0, "result": result, "error": error})
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = calibrate()

    import numpy

    reply = {
        "wall": wall,
        "start": start,
        "rss_kb": rss_kb,
        "jobs": done,
        "spans": tracer.spans if tracer else None,
        "calibration": after,
        "numpy": numpy.__version__,
    }
    sys.stdout.write(json.dumps(reply))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
