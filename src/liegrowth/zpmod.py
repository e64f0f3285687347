"""Exact arithmetic and linear algebra for finitely generated Z/p^s-modules.

Conventions used throughout the package:

* A module is a direct sum of cyclic pieces Z/p^t with 1 <= t <= s, stored
  per (integer) degree as a multiset of exponents t, sorted descending.
  Two modules are equal iff their sorted exponent multisets agree
  degree-wise; that sorted form is the canonical one.
* Elements are integer coordinate tuples.  Coordinate i is meaningful only
  modulo the order p^{t_i} of its generator and is stored reduced.
* Matrices act on column vectors: column j holds the image of the j-th
  domain generator.  Entry (i, j) is stored reduced mod p^{t_i}.  A map out
  of a generator of order p^{t_j} into one of order p^{t_i} with t_i > t_j
  must have entry divisible by p^{t_i - t_j}, otherwise it is not a module
  map and the constructor rejects it.
* Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _fp
from .errors import (
    InputError,
    InvalidExponentError,
    NotInjectiveError,
    PreconditionError,
    RingMismatchError,
    UnsupportedInputError,
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981  # least strong pseudoprime to all of them


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact below
    MR_BOUND (Sorenson and Webster 2015); larger n are rejected."""
    if n >= MR_BOUND:
        raise InputError(f"primality is only decided below {MR_BOUND}, got {n}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ambient ring Z/p^s."""

    p: int
    s: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.s < 1:
            raise InvalidExponentError(f"s must be >= 1, got {self.s}")

    @property
    def modulus(self) -> int:
        return self.p ** self.s

    def valuation(self, a: int) -> int:
        """p-adic valuation of the class of a; the zero class gets s."""
        a %= self.modulus
        if a == 0:
            return self.s
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def unit_inverse(self, a: int) -> int:
        return pow(a, -1, self.modulus)


Components = tuple[tuple[int, tuple[int, ...]], ...]


def _index(value, what: str) -> int:
    """``value`` as an int; int() would truncate 2.7 or parse "3"."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def _json(value, what: str, keys=None):
    """``value`` checked to be a JSON array or, when ``keys`` is given (even
    empty), a JSON object holding each of those keys; the ``from_json``
    readers call it before they index, so malformed input is InputError."""
    kind, name = ((list, tuple), "an array") if keys is None else (dict, "an object")
    if not isinstance(value, kind):
        raise InputError(f"{what} must be {name}, got {type(value).__name__}")
    for key in keys or ():
        if key not in value:
            raise InputError(f"{what} lacks the key {key!r}")
    return value


def _degree(key) -> int:
    """A degree given as a JSON object key, such as "4"."""
    try:
        return int(key)
    except (TypeError, ValueError):
        raise InputError(f"a degree must be an integer, got {key!r}") from None


def _at(pairs, key, default=None):
    """The value paired with ``key`` in a sequence of (key, value) pairs."""
    for k, value in pairs:
        if k == key:
            return value
    return default


@dataclass(frozen=True)
class GradedModule:
    """Finitely generated Z/p^s-module, one exponent multiset per degree."""

    ring: RingSpec
    components: Components

    def __post_init__(self):
        canon = []
        seen = set()
        for degree, exps in sorted(self.components):
            if degree in seen:
                raise InputError(f"degree {degree} listed twice")
            seen.add(degree)
            exps = tuple(sorted(exps, reverse=True))
            for t in exps:
                if not isinstance(t, int) or not 1 <= t <= self.ring.s:
                    raise InvalidExponentError(
                        f"summand exponent {t!r} outside [1, {self.ring.s}]"
                    )
            if exps:
                canon.append((degree, exps))
        object.__setattr__(self, "components", tuple(canon))

    @classmethod
    def from_dict(cls, ring: RingSpec, components: dict) -> "GradedModule":
        return cls(ring, tuple((d, tuple(e)) for d, e in components.items()))

    @classmethod
    def single(cls, ring: RingSpec, exponents, degree: int = 0) -> "GradedModule":
        return cls(ring, ((degree, tuple(exponents)),))

    @classmethod
    def free(cls, ring: RingSpec, rank: int, degree: int = 0) -> "GradedModule":
        return cls.single(ring, (ring.s,) * rank, degree)

    @classmethod
    def zero(cls, ring: RingSpec) -> "GradedModule":
        return cls(ring, ())

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.components)

    def exponents_at(self, degree: int) -> tuple[int, ...]:
        return _at(self.components, degree, ())

    def orders_at(self, degree: int) -> tuple[int, ...]:
        return tuple(self.ring.p ** t for t in self.exponents_at(degree))

    def rank_at(self, degree: int) -> int:
        return len(self.exponents_at(degree))

    def total_rank(self) -> int:
        return sum(len(exps) for _, exps in self.components)

    def is_zero(self) -> bool:
        return not self.components

    def is_free(self) -> bool:
        return all(t == self.ring.s for _, exps in self.components for t in exps)

    def to_json_dict(self) -> dict:
        return {
            "p": self.ring.p,
            "s": self.ring.s,
            "components": {str(d): list(exps) for d, exps in self.components},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GradedModule":
        data = _json(data, "a module", ("p", "s"))
        ring = RingSpec(_index(data["p"], "p"), _index(data["s"], "s"))
        comps = {}
        for key, exps in _json(data.get("components", {}), "components", ()).items():
            exps = _json(exps, "a list of summand exponents")
            comps[_degree(key)] = tuple(_index(t, "a summand exponent") for t in exps)
        return cls.from_dict(ring, comps)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d, exps in self.components:
            body = " + ".join(f"Z/{self.ring.p ** t}" for t in exps)
            parts.append(f"[{d}] {body}")
        return "; ".join(parts)


def dim_of(module: GradedModule, t: int, degree_range=None) -> int:
    """Number of Z/p^t-summands of ``module`` across ``degree_range``.

    ``degree_range`` is an inclusive (lo, hi) pair, or None for all degrees.
    """
    if not 1 <= t <= module.ring.s:
        raise InvalidExponentError(f"exponent {t} outside [1, {module.ring.s}]")
    lo, hi = degree_range if degree_range is not None else (None, None)
    total = 0
    for d, exps in module.components:
        if lo is not None and not lo <= d <= hi:
            continue
        total += sum(1 for e in exps if e == t)
    return total


def tensor_reduce(module: GradedModule, u: int) -> GradedModule:
    """``module`` tensored with Z/p^u; each exponent t becomes min(t, u)."""
    if not 1 <= u <= module.ring.s:
        raise InvalidExponentError(f"exponent {u} outside [1, {module.ring.s}]")
    ring = RingSpec(module.ring.p, u)
    comps = tuple(
        (d, tuple(min(t, u) for t in exps)) for d, exps in module.components
    )
    return GradedModule(ring, comps)


def tor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tor over Z/p^s, additively over cyclic summands.

    On a pair of cyclic summands of exponents t and u the result is
    Z/p^e with e = min(t, u, s-t, s-u); e = 0 contributes nothing.  Degrees
    combine additively, as for a graded tensor product.
    """
    if m.ring != n.ring:
        raise RingMismatchError(f"rings differ: {m.ring} vs {n.ring}")
    s = m.ring.s
    comps: dict[int, list[int]] = {}
    for d1, exps1 in m.components:
        for d2, exps2 in n.components:
            bucket = comps.setdefault(d1 + d2, [])
            for t in exps1:
                for u in exps2:
                    e = min(t, u, s - t, s - u)
                    if e > 0:
                        bucket.append(e)
    return GradedModule.from_dict(m.ring, {d: tuple(v) for d, v in comps.items()})


# ---------------------------------------------------------------------------
# Morphisms


Matrix = tuple[tuple[int, ...], ...]


def _reduce_rows(matrix, cod_orders) -> Matrix:
    try:
        return tuple(
            tuple(operator.index(x) % order for x in row)
            for row, order in zip(matrix, cod_orders)
        )
    except TypeError as exc:
        raise InputError(f"matrix entries must be integers: {exc}") from None


@dataclass(frozen=True)
class ModuleMorphism:
    """A degree-homogeneous module map, with an explicit degree shift.

    The matrix stored at domain degree d maps into codomain degree
    d + shift.  Matrices are present exactly for the degrees where both
    components are nonzero.
    """

    domain: GradedModule
    codomain: GradedModule
    matrices: tuple[tuple[int, Matrix], ...]
    shift: int = 0

    def __post_init__(self):
        if self.domain.ring != self.codomain.ring:
            raise RingMismatchError("domain and codomain rings differ")
        ring = self.domain.ring
        given = dict(self.matrices)
        canon = []
        for d in self.domain.degrees():
            dom_exps = self.domain.exponents_at(d)
            cod_exps = self.codomain.exponents_at(d + self.shift)
            if not cod_exps:
                if d in given:
                    raise InputError(f"matrix given at degree {d} with zero codomain")
                continue
            mat = given.pop(d, None)
            if mat is None:
                mat = tuple((0,) * len(dom_exps) for _ in cod_exps)
            if len(mat) != len(cod_exps) or any(len(r) != len(dom_exps) for r in mat):
                raise InputError(f"matrix shape mismatch at degree {d}")
            cod_orders = tuple(ring.p ** t for t in cod_exps)
            mat = _reduce_rows(mat, cod_orders)
            for i, t_i in enumerate(cod_exps):
                for j, t_j in enumerate(dom_exps):
                    if t_i > t_j and mat[i][j] % ring.p ** (t_i - t_j):
                        raise InputError(
                            "entry (%d, %d) at degree %d breaks well-definedness: "
                            "p^%d does not divide %d"
                            % (i, j, d, t_i - t_j, mat[i][j])
                        )
            canon.append((d, mat))
        if given:
            raise InputError(
                f"matrices at degrees outside the domain: {sorted(given)}"
            )
        object.__setattr__(self, "matrices", tuple(sorted(canon)))

    @classmethod
    def from_dict(cls, domain, codomain, matrices: dict, shift: int = 0):
        return cls(
            domain,
            codomain,
            tuple((d, tuple(tuple(row) for row in m)) for d, m in matrices.items()),
            shift,
        )

    @classmethod
    def identity(cls, module: GradedModule) -> "ModuleMorphism":
        mats = {}
        for d, exps in module.components:
            n = len(exps)
            mats[d] = tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )
        return cls.from_dict(module, module, mats)

    @classmethod
    def zero(cls, domain, codomain, shift: int = 0) -> "ModuleMorphism":
        return cls(domain, codomain, (), shift)

    def matrix_at(self, degree: int):
        return _at(self.matrices, degree)

    def apply_at(self, degree: int, coords):
        """Image of a coordinate tuple at the given domain degree."""
        dom_exps = self.domain.exponents_at(degree)
        if len(coords) != len(dom_exps):
            raise InputError("coordinate length mismatch")
        cod_exps = self.codomain.exponents_at(degree + self.shift)
        mat = self.matrix_at(degree)
        if mat is None:
            return (0,) * len(cod_exps)
        p = self.domain.ring.p
        return tuple(
            sum(row[j] * coords[j] for j in range(len(coords))) % p ** t
            for row, t in zip(mat, cod_exps)
        )

    def to_json_dict(self) -> dict:
        return {
            "shift": self.shift,
            "domain": self.domain.to_json_dict(),
            "codomain": self.codomain.to_json_dict(),
            "matrices": {str(d): [list(r) for r in m] for d, m in self.matrices},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModuleMorphism":
        data = _json(data, "a morphism", ("domain", "codomain", "matrices"))
        matrices = {
            _degree(k): tuple(tuple(_json(r, "a matrix row")) for r in _json(m, "a matrix"))
            for k, m in _json(data["matrices"], "matrices", ()).items()
        }
        return cls.from_dict(
            GradedModule.from_json_dict(data["domain"]),
            GradedModule.from_json_dict(data["codomain"]),
            matrices,
            _index(data.get("shift", 0), "shift"),
        )


def compose(outer: ModuleMorphism, inner: ModuleMorphism) -> ModuleMorphism:
    if inner.codomain != outer.domain:
        raise InputError("composition mismatch: inner codomain != outer domain")
    shift = inner.shift + outer.shift
    mod = inner.domain.ring.modulus
    mats = {}
    for d in inner.domain.degrees():
        if not outer.codomain.rank_at(d + shift):
            continue
        a = inner.matrix_at(d)
        b = outer.matrix_at(d + inner.shift)
        ncols = inner.domain.rank_at(d)
        nrows = outer.codomain.rank_at(d + shift)
        if a is None or b is None:
            mats[d] = tuple((0,) * ncols for _ in range(nrows))
            continue
        mid = len(a)
        mats[d] = tuple(
            tuple(
                sum(b[i][k] * a[k][j] for k in range(mid)) % mod
                for j in range(ncols)
            )
            for i in range(nrows)
        )
    return ModuleMorphism.from_dict(inner.domain, outer.codomain, mats, shift)


def tensor_morphism(phi: ModuleMorphism, u: int) -> ModuleMorphism:
    """The induced map phi (x) Z/p^u between the tensor-reduced modules."""
    dom = tensor_reduce(phi.domain, u)
    cod = tensor_reduce(phi.codomain, u)
    mats = {d: m for d, m in phi.matrices}
    return ModuleMorphism.from_dict(dom, cod, mats, phi.shift)


def elements_at(module: GradedModule, degree: int):
    """Iterate all coordinate tuples of the degree-``degree`` component."""
    orders = module.orders_at(degree)
    return itertools.product(*(range(o) for o in orders))


# ---------------------------------------------------------------------------
# Smith normal form over Z/p^s


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# A block with fewer entries than this runs the list kernel, which wins there
# on numpy's per-step overhead; from here on the numpy kernel wins, most on
# wide blocks, where the list kernel loops over every row of V.  Medians over
# Z/27, list against numpy kernel (Intel Xeon, 2 vCPUs, Python 3.11, numpy
# 2.4): 8 x 8 0.23 against 0.94 ms, 16 x 16 1.9 against 1.8 ms, 6 x 76 5.0
# against 1.1 ms, 80 x 80 164 against 19 ms.
SNF_NUMPY_ENTRIES = 256


def smith_normal_form_matrix(rows, ring: RingSpec, *, transforms=True):
    """Diagonalize a matrix over Z/p^s.

    ``rows`` is a list of rows or a 2-D numpy array; only an array can
    express a 0 x n matrix, whose V is the n x n identity.  Returns
    (U, Uinv, V, Vinv, vals), as lists of Python ints, with U*A*V = D,
    where D is diagonal with entries p^vals[k] (a valuation of s means the
    zero class) and the valuations are non-decreasing.  With
    ``transforms=False`` the four matrix slots are None.  The pivot rule is
    fixed: the entry of minimal p-valuation wins, ties broken by smallest
    row then smallest column, which makes the output deterministic.  Blocks
    of at least SNF_NUMPY_ENTRIES entries run a numpy kernel, smaller ones
    a kernel on Python lists; both apply that rule and return the same.
    The numpy kernel only eliminates; the transforms are built after it, on
    demand (Storjohann, Algorithms for Matrix Canonical Forms, 2000).  U is
    the carried image of I in [A | I], V^-1 has rows (U*A)[i] / p^vals[i]
    below the rank and unit vectors past it, and U^-1 and V are the
    inverses of the triangular matrices U and V^-1 become once their
    columns follow the elimination's row and column order.
    """
    if isinstance(rows, np.ndarray):
        m, n = rows.shape
    else:
        m = len(rows)
        n = len(rows[0]) if m else 0
    if m * n < SNF_NUMPY_ENTRIES:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        return _snf_lists(rows, m, n, ring, transforms)
    if not transforms:
        return None, None, None, None, _snf_numpy(rows, m, n, ring)[0]
    stacked = np.concatenate([np.asarray(rows), np.eye(m, dtype=np.int64)], axis=1)
    vals, ua, u, row_origin, col_origin = _snf_numpy(stacked, m, n, ring)
    rank, mod = len(ua), ring.modulus
    vinv = np.zeros((n, n), dtype=ua.dtype)
    vinv[:rank] = ua // np.array([ring.p ** v for v in vals[:rank]], dtype=ua.dtype)[:, None]
    vinv[np.arange(rank, n), col_origin[rank:]] = 1
    v = _unit_upper_inverse(vinv[:, col_origin], rank, mod)[np.argsort(col_origin)]
    # U P^-1 is lower triangular, for the row permutation P of the elimination
    uinv = _unit_upper_inverse(u[:, row_origin].T, rank, mod).T[np.argsort(row_origin)]
    return u.tolist(), uinv.tolist(), v.tolist(), vinv.tolist(), vals


def _unit_upper_inverse(t, rank: int, mod: int) -> np.ndarray:
    """The inverse over Z/mod of an upper triangular t with unit diagonal
    entries and rows from ``rank`` on the identity's, solved bottom-up from
    there; each update sums at most ``rank`` products of residues."""
    t = _fp.residues(t, mod, rank)
    x = _fp.residues(np.eye(len(t), dtype=np.int64), mod, rank)
    for i in range(rank - 1, -1, -1):
        x[i] = (x[i] - t[i, i + 1:] @ x[i + 1:]) % mod * pow(int(t[i, i]), -1, mod) % mod
    return x


def _snf_numpy(rows, m: int, n: int, ring: RingSpec):
    """The elimination of smith_normal_form_matrix on the first n columns
    of ``rows``, one numpy update per step, with no transform built.

    Returns (vals, ua, carried, row_origin, col_origin): the valuations;
    U*A = D*V^-1 on its rank nonzero rows, whose row i is p^vals[i] V^-1[i];
    U*C for the carried columns C of ``rows`` past n, to which the row
    operations apply; and the input row and column that end at each
    position.  Row operations touch a[k:, k:] only, as columns before k are
    zero below the diagonal.  Clearing row k right of the pivot would change
    no other row, so it is left out, and a[:rank, :n] ends as U*A*P for the
    column permutation P."""
    mod, p, s = ring.modulus, ring.p, ring.s
    # every update is x + c * y on residues, below 2 * mod^2
    a = _fp.residues(rows, mod, 2)
    row_origin, col_origin = np.arange(m), np.arange(n)
    vals: list[int] = []
    for k in range(min(m, n)):
        # the entries of valuation <= val are those not divisible by p^(val+1)
        for val in range(s):
            found = a[k:, k:n] % p ** (val + 1) != 0
            if found.any():
                break
        else:
            break
        bi, bj = divmod(int(np.argmax(found)), n - k)  # first one, row-major
        bi, bj = bi + k, bj + k
        if bi != k:
            a[[k, bi], k:] = a[[bi, k], k:]
            row_origin[[k, bi]] = row_origin[[bi, k]]
        if bj != k:
            a[:, [k, bj]] = a[:, [bj, k]]
            col_origin[[k, bj]] = col_origin[[bj, k]]
        pivot = p ** val
        a[k, k:] = a[k, k:] * ring.unit_inverse(int(a[k, k]) // pivot) % mod
        # row_i += c_i row_k clears column k below the pivot, for the rows i
        # with a nonzero entry there
        below = k + 1 + np.flatnonzero(a[k + 1:, k])
        if below.size:
            c = -(a[below, k] // pivot) % mod
            a[below, k:] = (a[below, k:] + np.outer(c, a[k, k:])) % mod
        vals.append(val)
    ua = a[:len(vals), np.argsort(col_origin)]
    vals.extend([s] * (min(m, n) - len(vals)))
    return vals, ua, a[:, n:].copy(), row_origin, col_origin


def _snf_lists(rows, m: int, n: int, ring: RingSpec, transforms=True):
    """The Smith form of smith_normal_form_matrix on Python lists."""
    mod, p, s = ring.modulus, ring.p, ring.s
    a = [[int(x) % mod for x in row] for row in rows]
    u, uinv, v, vinv = (_identity(size) if transforms else None for size in (m, m, n, n))
    vals: list[int] = []

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        if transforms:
            u[i], u[k] = u[k], u[i]
            for r in uinv:
                r[i], r[k] = r[k], r[i]

    def swap_cols(j, l):
        for r in a:
            r[j], r[l] = r[l], r[j]
        if transforms:
            for r in v:
                r[j], r[l] = r[l], r[j]
            vinv[j], vinv[l] = vinv[l], vinv[j]

    def scale_row(k, unit):
        inv = ring.unit_inverse(unit)
        a[k] = [x * inv % mod for x in a[k]]
        if transforms:
            u[k] = [x * inv % mod for x in u[k]]
            for r in uinv:
                r[k] = r[k] * unit % mod

    def add_row(k, i, c):
        # row_k += c * row_i
        a[k] = [(x + c * y) % mod for x, y in zip(a[k], a[i])]
        if transforms:
            u[k] = [(x + c * y) % mod for x, y in zip(u[k], u[i])]
            for r in uinv:
                r[i] = (r[i] - c * r[k]) % mod

    def add_col(l, j, c):
        # col_l += c * col_j
        for r in a:
            r[l] = (r[l] + c * r[j]) % mod
        if transforms:
            for r in v:
                r[l] = (r[l] + c * r[j]) % mod
            vinv[j] = [(x - c * y) % mod for x, y in zip(vinv[j], vinv[l])]

    for k in range(min(m, n)):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                val = ring.valuation(a[i][j])
                if best is None or val < best[0]:
                    best = (val, i, j)
                    if val == 0:
                        break
            if best is not None and best[0] == 0:
                break
        val, bi, bj = best
        if val >= s:
            break
        if bi != k:
            swap_rows(k, bi)
        if bj != k:
            swap_cols(k, bj)
        pivot = p ** val
        scale_row(k, a[k][k] // pivot)
        for i in range(m):
            if i != k and a[i][k]:
                add_row(i, k, -(a[i][k] // pivot))
        for j in range(n):
            if j != k and a[k][j]:
                add_col(j, k, -(a[k][j] // pivot))
        vals.append(val)

    vals.extend([s] * (min(m, n) - len(vals)))
    return u, uinv, v, vinv, vals


@dataclass(frozen=True)
class BasisChange:
    """Per-degree invertible matrix over Z/p^s together with its inverse.

    ``exponents`` optionally records the generator-order labels attached to
    the columns of the new basis (used by split_injection_normalize, where
    the codomain has mixed orders).
    """

    ring: RingSpec
    blocks: tuple[tuple[int, tuple[Matrix, Matrix]], ...]
    exponents: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        mod = self.ring.modulus
        for degree, (mat, inv) in self.blocks:
            n = len(mat)
            if len(inv) != n or any(len(row) != n for row in (*mat, *inv)):
                raise InputError(f"inverse size mismatch at degree {degree}")
            if n and not np.array_equal(
                _fp.residues(mat, mod, n) @ _fp.residues(inv, mod, n) % mod,
                np.eye(n, dtype=int),
            ):
                raise InputError(
                    f"matrix times inverse is not the identity at degree {degree}"
                )

    def matrix_at(self, degree: int):
        return _at(self.blocks, degree, (None, None))[0]

    def inverse_at(self, degree: int):
        return _at(self.blocks, degree, (None, None))[1]

    def exponents_at(self, degree: int):
        return _at(self.exponents, degree)


@dataclass(frozen=True)
class SNFResult:
    """U * A * V = D with D diagonal of p-powers, valuations non-decreasing.

    ``diagonal`` is keyed by domain degree; U blocks live on the codomain
    degrees (domain degree + shift), V blocks on the domain degrees.
    """

    u: BasisChange
    v: BasisChange
    diagonal: tuple[tuple[int, tuple[int, ...]], ...]

    def valuations_at(self, degree: int):
        return _at(self.diagonal, degree)


def _require_free(module: GradedModule, which: str):
    if not module.is_free():
        raise UnsupportedInputError(
            f"{which} must be free over Z/p^s; lift to a free presentation first"
        )


def smith_normal_form(phi: ModuleMorphism) -> SNFResult:
    """Smith normal form of a morphism between free modules, per degree."""
    _require_free(phi.domain, "domain")
    _require_free(phi.codomain, "codomain")
    ring = phi.domain.ring
    ublocks, vblocks, diag = [], [], []
    for d, mat in phi.matrices:
        u, uinv, v, vinv, vals = smith_normal_form_matrix(mat, ring)
        as_mat = lambda rows: tuple(tuple(r) for r in rows)
        ublocks.append((d + phi.shift, (as_mat(u), as_mat(uinv))))
        vblocks.append((d, (as_mat(v), as_mat(vinv))))
        diag.append((d, tuple(vals)))
    return SNFResult(
        BasisChange(ring, tuple(ublocks)),
        BasisChange(ring, tuple(vblocks)),
        tuple(diag),
    )


def image_dims(phi: ModuleMorphism) -> GradedModule:
    """Summand decomposition of Im(phi) inside a free codomain.

    The image is the span of the matrix columns, so the diagonal of the
    Smith form reads off the decomposition: a valuation v < s contributes a
    Z/p^{s-v} summand.
    """
    _require_free(phi.codomain, "codomain")
    ring = phi.domain.ring
    comps: dict[int, tuple[int, ...]] = {}
    for d, mat in phi.matrices:
        *_, vals = smith_normal_form_matrix(mat, ring, transforms=False)
        exps = tuple(ring.s - v for v in vals if v < ring.s)
        if exps:
            comps[d + phi.shift] = exps
    return GradedModule.from_dict(ring, comps)


def split_injection_normalize(phi: ModuleMorphism) -> BasisChange:
    """Change basis in the codomain so that phi sends generators to generators.

    Requires a free domain.  On success the image of phi is visibly a direct
    summand: in the new basis, phi(x_j) = e_j for every domain generator.
    If phi is not injective the procedure discovers a nonzero kernel element
    and raises NotInjectiveError carrying it.
    """
    _require_free(phi.domain, "domain")
    ring = phi.domain.ring
    mod, p, s = ring.modulus, ring.p, ring.s
    blocks, labels_out = [], []
    for d in phi.codomain.degrees():
        dom_deg = d - phi.shift
        mat = phi.matrix_at(dom_deg)
        cod_exps = list(phi.codomain.exponents_at(d))
        n = len(cod_exps)
        basis = _identity(n)       # columns = new basis in original coordinates
        basis_inv = _identity(n)
        labels = cod_exps[:]
        m = phi.domain.rank_at(dom_deg)
        for j in range(m):
            y = [mat[i][j] for i in range(n)]
            cur = [
                sum(basis_inv[i][k] * y[k] for k in range(n)) % mod
                for i in range(n)
            ]
            pivot = None
            for i in range(j, n):
                if labels[i] == s and cur[i] % p:
                    pivot = i
                    break
            if pivot is None:
                witness = [0] * m
                witness[j] = p ** (s - 1)
                for i in range(j):
                    witness[i] = (-(p ** (s - 1)) * cur[i]) % mod
                raise NotInjectiveError(
                    f"map is not injective at degree {dom_deg}",
                    witness=(dom_deg, tuple(witness)),
                )
            # Replace basis vector at the pivot with y: this is a unit scaling
            # followed by transvections from lower-or-equal-order generators,
            # so the result is again a basis.
            for i in range(n):
                basis[i][pivot] = y[i] % mod
            # B_new = B * E with E = I except column pivot = cur, so
            # B_new^{-1} = E^{-1} * B^{-1}: row pivot scales by 1/cur[pivot]
            # and every other row i loses cur[i] times the scaled row.
            unit_inv = ring.unit_inverse(cur[pivot])
            scaled = basis_inv[pivot] = [x * unit_inv % mod for x in basis_inv[pivot]]
            for i in range(n):
                if i != pivot and cur[i]:
                    basis_inv[i] = [
                        (x - cur[i] * z) % mod for x, z in zip(basis_inv[i], scaled)
                    ]
            if pivot != j:
                for row in basis:
                    row[j], row[pivot] = row[pivot], row[j]
                basis_inv[j], basis_inv[pivot] = basis_inv[pivot], basis_inv[j]
                labels[j], labels[pivot] = labels[pivot], labels[j]
        as_mat = lambda rows: tuple(tuple(x % mod for x in r) for r in rows)
        blocks.append((d, (as_mat(basis), as_mat(basis_inv))))
        labels_out.append((d, tuple(labels)))
    for d, exps in phi.domain.components:  # degrees over a zero codomain
        if not phi.codomain.rank_at(d + phi.shift):
            witness = (d, (p ** (s - 1),) + (0,) * (len(exps) - 1))
            raise NotInjectiveError(f"map is not injective at degree {d}", witness=witness)
    return BasisChange(ring, tuple(blocks), tuple(labels_out))


# ---------------------------------------------------------------------------
# Kernels, injectivity, surjectivity


def free_presentation(module: GradedModule):
    """A free cover and its relation matrix, per degree.

    Generators are the summands; the relations are p^{t_i} times each
    generator.  Returns (free module, {degree: diagonal relation matrix}).
    ``kernel_generators`` stacks its matrices with these relations.
    """
    ring = module.ring
    cover = GradedModule(
        ring,
        tuple((d, (ring.s,) * len(exps)) for d, exps in module.components),
    )
    relations = {
        d: tuple(
            tuple(ring.p ** exps[i] if i == j else 0 for j in range(len(exps)))
            for i in range(len(exps))
        )
        for d, exps in module.components
    }
    return cover, relations


def kernel_generators(phi: ModuleMorphism):
    """Generators of Ker(phi), as (degree, coordinate tuple) pairs.

    Works for arbitrary (non-free) domain and codomain by solving
    A*x = 0 modulo the codomain generator orders via one Smith form of the
    stacked matrix [A | diag(p^{t_i})]: the generators are columns of its
    V scaled by p^(s - v).  This is the one reader of the column transform
    V; ``is_injective`` needs only the Smith valuations.
    """
    ring = phi.domain.ring
    p, s = ring.p, ring.s
    _, relations = free_presentation(phi.codomain)
    out = []
    for d in phi.domain.degrees():
        dom_exps = phi.domain.exponents_at(d)
        m = len(dom_exps)
        cod_exps = phi.codomain.exponents_at(d + phi.shift)
        n = len(cod_exps)
        if n == 0:
            for j in range(m):
                gen = tuple(1 if i == j else 0 for i in range(m))
                out.append((d, gen))
            continue
        mat = phi.matrix_at(d)
        rel = relations[d + phi.shift]
        stacked = [list(mat[i]) + list(rel[i]) for i in range(n)]
        _, _, v, _, vals = smith_normal_form_matrix(stacked, ring)
        width = m + n
        for k in range(width):
            if k < len(vals):
                val = vals[k]
                if val == 0:
                    continue
                scale = p ** (s - val) if val < s else 1
            else:
                scale = 1
            coords = tuple(
                scale * v[j][k] % p ** dom_exps[j] for j in range(m)
            )
            if any(coords):
                out.append((d, coords))
    return out


def _image_order(phi: ModuleMorphism, degree: int) -> int:
    """log_p |Im(phi)| in codomain ``degree``, with codomain orders p^{c_i}.

    Im(phi) is the column span of [A | p^{c_i} e_i] modulo the span of the
    p^{c_i} e_i, so the Smith valuations v of the stacked matrix alone give
    its order: sum(s - v) - sum(s - c_i).  A column with c_i = s is zero mod
    p^s and would only add a valuation s, which adds nothing, so only the
    columns with c_i < s are stacked.
    """
    ring = phi.domain.ring
    cod_exps = phi.codomain.exponents_at(degree)
    mat = phi.matrix_at(degree - phi.shift) or ((),) * len(cod_exps)
    torsion = [(i, ring.p ** c) for i, c in enumerate(cod_exps) if c < ring.s]
    stacked = [
        list(row) + [q if i == t else 0 for t, q in torsion] for i, row in enumerate(mat)
    ]
    *_, vals = smith_normal_form_matrix(stacked, ring, transforms=False)
    return sum(ring.s - v for v in vals) - sum(ring.s - c for c in cod_exps)


def is_injective(phi: ModuleMorphism) -> bool:
    """Whether phi is injective: in every domain degree the image is as large
    as the domain, log_p |Im| = sum t_j, so a degree over a zero codomain
    fails.  Only Smith valuations are computed; ``kernel_generators`` gives
    the kernel itself."""
    return all(
        _image_order(phi, d + phi.shift) == sum(exps)
        for d, exps in phi.domain.components
    )


def is_surjective(phi: ModuleMorphism) -> bool:
    """Whether phi is surjective: in every codomain degree the image is the
    whole component, log_p |Im| = sum c_i."""
    return all(_image_order(phi, d) == sum(exps) for d, exps in phi.codomain.components)


# ---------------------------------------------------------------------------
# Direct sums and the factorization check


@dataclass(frozen=True)
class DirectSumSplit:
    """A module presented as A + B, remembering which summand is which.

    The combined module is in canonical (sorted) form, so the constructor
    records where each A- and B-generator lands and exposes the inclusion
    and projection morphisms for the A part.
    """

    a: GradedModule
    b: GradedModule
    module: GradedModule = field(init=False, compare=False)
    _a_slots: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.a.ring != self.b.ring:
            raise RingMismatchError("summands live over different rings")
        comps: dict[int, tuple[int, ...]] = {}
        slots = []
        degrees = sorted(set(self.a.degrees()) | set(self.b.degrees()))
        for d in degrees:
            tagged = [(t, 0, i) for i, t in enumerate(self.a.exponents_at(d))]
            tagged += [(t, 1, i) for i, t in enumerate(self.b.exponents_at(d))]
            tagged.sort(key=lambda x: (-x[0], x[1], x[2]))
            comps[d] = tuple(t for t, _, _ in tagged)
            slots.append(
                (d, tuple(pos for pos, (_, src, _) in enumerate(tagged) if src == 0))
            )
        object.__setattr__(
            self, "module", GradedModule.from_dict(self.a.ring, comps)
        )
        object.__setattr__(self, "_a_slots", tuple(slots))

    def include_a(self) -> ModuleMorphism:
        mats = {}
        for d, _ in self.a.components:
            slots = _at(self._a_slots, d, ())
            n = self.module.rank_at(d)
            mats[d] = tuple(
                tuple(1 if slots[j] == i else 0 for j in range(len(slots)))
                for i in range(n)
            )
        return ModuleMorphism.from_dict(self.a, self.module, mats)

    def project_a(self) -> ModuleMorphism:
        mats = {}
        for d, _ in self.a.components:
            slots = _at(self._a_slots, d, ())
            n = self.module.rank_at(d)
            mats[d] = tuple(
                tuple(1 if slots[i] == j else 0 for j in range(n))
                for i in range(len(slots))
            )
        return ModuleMorphism.from_dict(self.module, self.a, mats)


def factor_tensor_check(f: ModuleMorphism, g: ModuleMorphism,
                        split: DirectSumSplit) -> bool:
    """Whether g . i_A . pi_A . f is injective.

    Preconditions: the domain of f is free, p^{s-1} * B = 0, and g . f is
    injective.  Under these the answer is always True; violations of each
    precondition are reported distinctly.
    """
    if f.codomain != split.module or g.domain != split.module:
        raise PreconditionError("f and g must meet in the split module A + B")
    if not f.domain.is_free():
        raise PreconditionError("domain of f must be free")
    s = f.domain.ring.s
    if any(t > s - 1 for _, exps in split.b.components for t in exps):
        raise PreconditionError("B must satisfy p^{s-1} * B = 0")
    if not is_injective(compose(g, f)):
        raise PreconditionError("g . f must be injective")
    through_a = compose(g, compose(split.include_a(), compose(split.project_a(), f)))
    return is_injective(through_a)
