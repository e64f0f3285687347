"""Correctness checks that do not depend on the package's implementation.

Everything here is stdlib Python: the benchmark's own Moebius and Witt
sums, the multigraded necklace count, exact matrix products in Python ints,
and the Smith-form, image, injectivity and Tor answers that follow from how
the benchmark planted each morphism.  Each check returns a list of error
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from operator import mul


def mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def witt(n: int, k: int) -> int:
    """W_n(k) = (1/k) sum_{d | k} mu(d) n^(k/d)."""
    return sum(mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def necklace(k1: int, k2: int) -> int:
    """Basic products on two letters with letter counts (k1, k2)."""
    k = k1 + k2
    g = math.gcd(k1, k2)
    return sum(
        mobius(d) * math.comb(k // d, k1 // d) for d in range(1, g + 1) if g % d == 0
    ) // k


def matmul(a, b, mod: int):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


def _is_identity(mat) -> bool:
    return all(x == (i == j) for i, row in enumerate(mat) for j, x in enumerate(row))


def tor_expected(s: int, m: dict, n: dict) -> dict:
    """Tor over Z/p^s of two graded modules given as {degree: exponents}."""
    out: dict[int, list[int]] = {}
    for d1, e1 in m.items():
        for d2, e2 in n.items():
            for t in e1:
                for u in e2:
                    e = min(t, u, s - t, s - u)
                    if e > 0:
                        out.setdefault(d1 + d2, []).append(e)
    return {d: sorted(v, reverse=True) for d, v in out.items()}


def _components(data: dict) -> dict:
    return {int(d): sorted(e, reverse=True) for d, e in data.items() if e}


# ---------------------------------------------------------------------------
# CLI outputs


def homology_rows(stdout: str) -> list[str]:
    """Every homology row has dimZ - dimB = dimH >= 0."""
    errors = []
    for w in json.loads(stdout)["weights"]:
        for deg, z in w["Z"].items():
            b, h = w["B"][deg], w["H"][deg]
            if z - b != h or h < 0:
                errors.append(f"weight {w['weight']} degree {deg}: Z={z} B={b} H={h}")
    return errors


def hall_counts(stdout: str, n: int, max_k: int) -> list[str]:
    """Hall counts equal W_n(k) and match the listed products."""
    weights = json.loads(stdout)["weights"]
    errors = [] if len(weights) == max_k else [f"{len(weights)} weights, want {max_k}"]
    for w in weights:
        want = witt(n, w["k"])
        if w["count"] != want or len(w["products"]) != want:
            errors.append(f"weight {w['k']}: count {w['count']}, "
                          f"{len(w['products'])} products, W={want}")
    return errors


def moore_hm(stdout: str, n: int, m: int, p: int, r: int, max_k: int) -> list[str]:
    """Counts per (k1, k2) are necklace numbers, per weight they sum to
    W_2(k), and each wedge is sum_i C(k-1, i) P^{k1 n + k2 m + 1 - i}(p^r)."""
    errors = []
    per_weight: dict[int, int] = {}
    for f in json.loads(stdout)["factors"]:
        k1, k2, k = f["k1"], f["k2"], f["k1"] + f["k2"]
        per_weight[k] = per_weight.get(k, 0) + f["count"]
        if f["count"] != necklace(k1, k2):
            errors.append(f"({k1},{k2}): count {f['count']}, want {necklace(k1, k2)}")
        top = k1 * n + k2 * m + 1
        want = {(top - i, p, r): math.comb(k - 1, i) for i in range(k)}
        got = {(s["dim"], s["p"], s["r"]): s["mult"] for s in f["wedge"]}
        if got != want:
            errors.append(f"({k1},{k2}): wedge {got}")
    for k in range(1, max_k + 1):
        if per_weight.get(k) != witt(2, k):
            errors.append(f"weight {k}: {per_weight.get(k)} factors, want {witt(2, k)}")
    return errors


def growth_points(n: int, m: int, j: int, max_k: int) -> list[list[int]]:
    """The cumulative (dimension, count) points of a growth certificate."""
    lo, hi = min(n, m) - 1, max(n, m)
    points, total = [], 0
    for k in range(1, max_k + 1):
        if k * lo > j + 1:
            total += 2 ** (k - 1) * witt(2, k)
            points.append([k * hi + 1 + j, total])
    return points


def moore_growth(stdout: str, points, verdict: str) -> list[str]:
    data = json.loads(stdout)
    errors = []
    if data["cumulative"] != points:
        errors.append("cumulative points differ from the benchmark's own sum")
    if data["analysis"]["verdict"] != verdict:
        errors.append(f"verdict {data['analysis']['verdict']}, want {verdict}")
    return errors


def growth_verdict(stdout: str, verdict: str) -> list[str]:
    got = json.loads(stdout)["verdict"]
    return [] if got == verdict else [f"verdict {got}, want {verdict}"]


def selftest_ok(stdout: str) -> list[str]:
    data = json.loads(stdout)
    if data["ok"] is True:
        return []
    return [f"suite {s['name']} failed" for s in data["suites"] if not s["ok"]]


# ---------------------------------------------------------------------------
# Library outputs


def boundaries_in_cycles(report: dict) -> list[str]:
    """B = Im(d) is a submodule of Z = Ker(d), so in each degree the type
    of B (exponents, descending) fits inside the type of Z."""
    errors = []
    z = _components(report["Z"]["components"])
    for deg, b in _components(report["B"]["components"]).items():
        zz = z.get(deg, [])
        if len(b) > len(zz) or any(x > y for x, y in zip(b, zz)):
            errors.append(f"weight {report['weight']} degree {deg}: B {b} not in Z {zz}")
    return errors


def morphism(job: dict, plan: dict, out: dict) -> list[str]:
    """Check one planted morphism's outputs.

    ``plan`` maps each degree to the valuations planted on the diagonal
    (valuation s means a zero entry).  The Smith form must reproduce them,
    with U*A*V = D, U*Uinv = I and V*Vinv = I in Python ints; the image,
    injectivity and Tor follow from them.
    """
    p, s = job["p"], job["s"]
    mod = p ** s
    errors = []
    if "smith_normal_form" in out:
        snf = out["smith_normal_form"]
        us = {d: (u, ui) for d, u, ui in snf["u"]}
        vs = {d: (v, vi) for d, v, vi in snf["v"]}
        diag = dict(snf["diagonal"])
        for d, mat in job["matrices"].items():
            d = int(d)
            vals = diag.get(d)
            if vals != sorted(plan[d]):
                errors.append(f"degree {d}: valuations {vals}, planted {sorted(plan[d])}")
                continue
            (u, uinv), (v, vinv) = us[d], vs[d]
            uav = matmul(matmul(u, mat, mod), v, mod)
            want = [[p ** vals[i] % mod if i == j and i < len(vals) else 0
                     for j in range(len(v))] for i in range(len(u))]
            if uav != want:
                errors.append(f"degree {d}: U*A*V is not the diagonal")
            if not _is_identity(matmul(u, uinv, mod)):
                errors.append(f"degree {d}: U*Uinv is not I")
            if not _is_identity(matmul(v, vinv, mod)):
                errors.append(f"degree {d}: V*Vinv is not I")
    image = {d: sorted((s - v for v in vals if v < s), reverse=True)
             for d, vals in plan.items()}
    image = {d: e for d, e in image.items() if e}
    if "image_dims" in out and _components(out["image_dims"]) != image:
        errors.append(f"image {out['image_dims']}, planted {image}")
    if "is_injective" in out:
        want = all(
            job["domain"][str(d)] <= job["codomain"][str(d)] and not any(vals)
            for d, vals in plan.items()
        )
        if out["is_injective"] != want:
            errors.append(f"is_injective {out['is_injective']}, want {want}")
    if "tor" in out:
        other = {int(d): e for d, e in job["tor_with"].items()}
        if _components(out["tor"]) != tor_expected(s, image, other):
            errors.append(f"tor {out['tor']}")
    return errors
