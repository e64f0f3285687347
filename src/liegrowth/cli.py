"""Command-line front end.

Every computable quantity in the library is reachable through a
subcommand, with reproducible table output: byte-identical runs for
identical arguments, JSON or CSV, data to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 self-check failure, 2 invalid input,
3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import difflie, freelie, growth, moore, selfcheck
from .errors import InputError, ResourceGuardError
from .freelie import GeneratorSet
from .zpmod import RingSpec

ENV_FORMAT = "LIEGROWTH_FORMAT"


def _emit(payload, csv_rows, fmt):
    if fmt == "csv":
        for row in csv_rows:
            sys.stdout.write(",".join(str(x) for x in row) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_json(text: str, what: str):
    """json.loads, with too deep a nesting refused as invalid input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{what} nests too deeply") from None


def _parse_gens(text: str):
    """Parse 'x:2,y:1' into (name, degree) pairs."""
    out = []
    for piece in text.split(","):
        name, _, deg = piece.partition(":")
        if not name or not deg:
            raise InputError(f"bad generator spec {piece!r}; expected name:degree")
        out.append((name.strip(), int(deg)))
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (payload, csv_rows)


def cmd_witt(args):
    freelie.check_witt_digits(args.n, args.max_k)
    rows = [(k, freelie.witt(args.n, k)) for k in range(1, args.max_k + 1)]
    payload = {"n": args.n, "witt": [[k, w] for k, w in rows]}
    csv = [("k", "witt")] + rows
    return payload, csv


def cmd_hall(args):
    basis = freelie.hall_basis(args.n, args.max_k)
    names = [str(i) for i in range(args.n)]
    payload = {"n": args.n, "weights": []}
    csv = [("k", "count", "witt")]
    for k in range(1, args.max_k + 1):
        trees = basis.at_weight(k)
        witt = freelie.witt(args.n, k)
        payload["weights"].append(
            {
                "k": k,
                "count": len(trees),
                "witt": witt,
                "products": [freelie.tree_to_names(t, names) for t in trees],
            }
        )
        csv.append((k, len(trees), witt))
    return payload, csv


def cmd_lie_dims(args):
    gens = GeneratorSet.build(_parse_gens(args.gens), RingSpec(args.p, args.u))
    freelie._check_word_guard(gens, args.max_k, args.u)  # refuse before any work
    payload = {"p": args.p, "u": args.u, "gens": args.gens, "weights": []}
    csv = [("k", "degree", "exponents")]
    for k in range(1, args.max_k + 1):
        dims = freelie._summands(gens, k, args.u)
        entry = {"k": k, "total": dims.total_rank(), "by_degree": {}}
        for d, exps in dims.components:
            entry["by_degree"][str(d)] = list(exps)
            csv.append((k, d, " ".join(str(e) for e in exps)))
        payload["weights"].append(entry)
    return payload, csv


def cmd_homology(args):
    gens, spec = difflie.differential_pair(args.p, args.deg_x)
    freelie._check_word_guard(gens, args.max_weight, 1)  # refuse before any work
    payload = {"p": args.p, "deg_x": args.deg_x, "weights": []}
    csv = [("weight", "degree", "dimZ", "dimB", "dimH")]
    for k in range(1, args.max_weight + 1):
        report = difflie.homology(gens, spec, k)
        payload["weights"].append(report.to_json_dict())
        for row in report.rows:
            csv.append((k, row.degree, row.dim_cycles, row.dim_boundaries,
                        row.dim_homology))
    return payload, csv


def cmd_tau_sigma(args):
    gens, spec = difflie.differential_pair(args.p, args.deg_x)
    x = freelie.FreeNAElement.generator(gens, "x")
    t = difflie.tau(x, spec, args.k)
    s = difflie.sigma(x, spec, args.k)
    # d(embed(c)) = embed(d(c)), and c has far fewer trees than d(c)
    dt = difflie.differentiate(freelie.embed_tensor(t), spec)
    ds = difflie.differentiate(freelie.embed_tensor(s), spec)
    payload = {
        "p": args.p,
        "k": args.k,
        "deg_x": args.deg_x,
        "tau": t.to_json(),
        "sigma": s.to_json(),
        "tau_degree": t.degree,
        "sigma_degree": s.degree,
        "weight": t.weight,
        "d_tau_is_zero": dt.is_zero(),
        "d_sigma_is_zero": ds.is_zero(),
    }
    csv = [("name", "degree", "weight", "terms", "d_is_zero"),
           ("tau", t.degree, t.weight, len(t.terms), dt.is_zero()),
           ("sigma", s.degree, s.weight, len(s.terms), ds.is_zero())]
    return payload, csv


def cmd_ineq(args):
    gens, spec = difflie.differential_pair(args.p, args.deg_x)
    rows = difflie.check_weight_inequalities(gens, spec, args.max_k)
    payload = {"p": args.p, "rows": []}
    csv = [("k", "dim_L", "dim_H", "dim_B", "homology_small", "boundaries_large")]
    for r in rows:
        payload["rows"].append(
            {
                "k": r.k,
                "dim_L": str(r.dim_l),
                "dim_H": str(r.dim_h),
                "dim_B": str(r.dim_b),
                "homology_small": r.homology_small,
                "boundaries_large": r.boundaries_large,
            }
        )
        csv.append((r.k, r.dim_l, r.dim_h, r.dim_b,
                    r.homology_small, r.boundaries_large))
    return payload, csv


def cmd_boundary_growth(args):
    gens, spec = difflie.differential_pair(args.p, args.deg_x)
    report = difflie.boundary_growth(gens, spec, args.max_k)
    payload = {
        "p": args.p,
        "rows": [
            {
                "k": r.k,
                "cumulative_boundaries": r.cumulative_boundaries,
                "lower_bound": str(r.lower_bound),
                "holds": r.holds,
            }
            for r in report.rows
        ],
        "boundaries_by_degree": [[d, v] for d, v in report.boundaries_by_degree],
    }
    csv = [("k", "cumulative_boundaries", "lower_bound", "holds")]
    for r in report.rows:
        csv.append((r.k, r.cumulative_boundaries, r.lower_bound, r.holds))
    return payload, csv


def cmd_moore_split(args):
    wedge = moore.crt_split(args.n, args.ell)
    payload = {"n": args.n, "ell": args.ell, "wedge": wedge.to_json()}
    csv = [("dim", "p", "r", "mult")]
    csv += [(s.dim, s.p, s.r, m) for s, m in wedge.terms]
    return payload, csv


def cmd_moore_smash(args):
    if (args.a is None) != (args.b is None):
        raise InputError("give both --a and --b, or neither")
    if args.a is not None:
        a = moore.MooreWedge.from_json(_parse_json(args.a, "--a"))
        b = moore.MooreWedge.from_json(_parse_json(args.b, "--b"))
    else:
        a = moore.MooreWedge.of(moore.MooreSummand(args.n, args.p, args.r))
        b = moore.MooreWedge.of(moore.MooreSummand(args.m, args.p, args.r))
    out = moore.smash(a, b)
    payload = {
        "a": a.to_json(),
        "b": b.to_json(),
        "smash": out.to_json(),
        "poincare": (
            moore.homology_poincare(out, out.primes()[0], 1)
            if not out.is_empty() else []
        ),
    }
    csv = [("dim", "p", "r", "mult")]
    csv += [(s.dim, s.p, s.r, m) for s, m in out.terms]
    return payload, csv


def cmd_moore_hm(args):
    factors = moore.hilton_milnor_expansion(args.n, args.m, args.p, args.r, args.max_k)
    if args.format == "csv" and factors:  # only the CSV wedge column prints p^r
        moore.prime_power(args.p, args.r)
    payload = {
        "n": args.n,
        "m": args.m,
        "p": args.p,
        "r": args.r,
        "factors": [
            {
                "k1": f.k1,
                "k2": f.k2,
                "count": f.count,
                "wedge": f.wedge.to_json(),
            }
            for f in factors
        ],
    }
    csv = [("k", "k1", "k2", "count", "wedge")]
    for f in factors:
        csv.append((f.weight, f.k1, f.k2, f.count, f.wedge))  # str() when printed
    return payload, csv


def cmd_moore_growth(args):
    growth.check_window(args.epsilon, args.window)
    params = moore.GrowthParams(
        args.n, args.m, args.p, args.r, args.s, args.j, args.max_k
    )
    cert = moore.growth_certificate(params)
    payload = cert.to_json_dict()
    if len(cert.cumulative) >= 2:
        seq = growth.GrowthSequence(cert.cumulative)
        report = growth.analyze(seq, args.epsilon, args.window)
        payload["analysis"] = report.to_json_dict()
    csv = [("k", "count", "contributes", "maxdim")]
    for c in cert.contributions:
        csv.append((c.weight, c.count, c.contributes, c.booked_dim))
    return payload, csv


def cmd_growth_analyze(args):
    points = []
    for piece in args.points.split(","):
        m, _, a = piece.partition(":")
        points.append((int(m), int(a)))
    seq = growth.GrowthSequence(tuple(points))
    report = growth.analyze(seq, args.epsilon, args.window)
    payload = report.to_json_dict()
    csv = [("m", "ratio")] + [(m, x) for m, x in report.ratios]
    csv.append(("tail_inf", report.tail_infimum))
    csv.append(("verdict", report.verdict))
    return payload, csv


def cmd_selftest(args):
    results = selfcheck.run_all(trials=args.trials, seed=args.seed)
    failed = [r for r in results if not r.ok()]
    csv = [("suite", "cases", "status")]
    payload = {"suites": [], "ok": not failed}
    for r in results:
        payload["suites"].append(
            {"name": r.name, "cases": r.cases, "ok": r.ok(), "failures": r.failures}
        )
        csv.append((r.name, r.cases, "ok" if r.ok() else "FAIL"))
    for r in failed:
        for f in r.failures:
            print(f"{r.name}: {f}", file=sys.stderr)
    return payload, csv, (1 if failed else 0)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liegrowth",
        description="Exact free-Lie-algebra, Moore-wedge, and growth computations.",
    )
    env_format = os.environ.get(ENV_FORMAT, "json")
    if env_format not in ("json", "csv"):
        env_format = "json"
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default=env_format,
        help="output format (env %s sets the default)" % ENV_FORMAT,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        return sp

    sp = add("witt", cmd_witt, help="Witt numbers W_n(k)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-k", dest="max_k", type=int, required=True)

    sp = add("hall", cmd_hall, help="basic products per weight")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-k", dest="max_k", type=int, required=True)

    sp = add("lie-dims", cmd_lie_dims, help="weighted commutator-span dimensions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--u", type=int, default=1, help="coefficient exponent")
    sp.add_argument("--gens", required=True, help="e.g. x:2,y:1")
    sp.add_argument("--max-weight", dest="max_k", type=int, required=True)

    sp = add("homology", cmd_homology, help="homology of the standard pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--deg-x", dest="deg_x", type=int, default=2)
    sp.add_argument("--max-weight", dest="max_weight", type=int, required=True)

    sp = add("tau-sigma", cmd_tau_sigma, help="the explicit homology cycles")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--deg-x", dest="deg_x", type=int, default=2)

    sp = add("ineq", cmd_ineq, help="weighted-dimension inequalities")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--deg-x", dest="deg_x", type=int, default=2)
    sp.add_argument("--max-k", dest="max_k", type=int, required=True)

    sp = add("boundary-growth", cmd_boundary_growth,
             help="cumulative boundary dimensions vs the Witt bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--deg-x", dest="deg_x", type=int, default=2)
    sp.add_argument("--max-k", dest="max_k", type=int, required=True)

    sp = add("moore-split", cmd_moore_split, help="prime-power wedge splitting")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = add("moore-smash", cmd_moore_smash, help="smash product of wedges")
    sp.add_argument("--a", help="wedge JSON")
    sp.add_argument("--b", help="wedge JSON")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--r", type=int, default=1)

    sp = add("moore-hm", cmd_moore_hm, help="weight-indexed loop factors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--max-k", dest="max_k", type=int, required=True)

    sp = add("moore-growth", cmd_moore_growth, help="growth certificate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--K", dest="max_k", type=int, required=True)
    sp.add_argument("--epsilon", type=float, default=growth.DEFAULT_EPSILON)
    sp.add_argument("--window", type=float, default=growth.DEFAULT_WINDOW)

    sp = add("growth-analyze", cmd_growth_analyze, help="exponential-growth verdict")
    sp.add_argument("--points", required=True, help="m:a,m:a,...")
    sp.add_argument("--epsilon", type=float, default=growth.DEFAULT_EPSILON)
    sp.add_argument("--window", type=float, default=growth.DEFAULT_WINDOW)

    sp = add("selftest", cmd_selftest, help="run the verification suites")
    sp.add_argument("--trials", type=int, default=120)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if len(out) == 3:
        payload, csv, code = out
    else:
        payload, csv = out
        code = 0
    _emit(payload, csv, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
