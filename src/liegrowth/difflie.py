"""Differentials on the free algebras, bigraded homology, and growth bounds.

A differential is specified on generators (degree -1, weight-preserving,
squaring to zero) and extended as a graded derivation.  Homology of the
weight-k component of the commutator span is computed blockwise over the
prime field; each (degree, weight) block is a small exact rank problem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import _fp
from .errors import (
    InputError,
    NotAcyclicError,
    ParityError,
    PreconditionError,
    ResourceGuardError,
    UnsupportedInputError,
)
from .freelie import (
    WORD_GUARD,
    FreeNAElement,
    GeneratorSet,
    TensorElement,
    _check_word_guard,
    _derive,
    _span_blocks,
    bracket,
    tree_degree,
    witt,
)
from .zpmod import GradedModule, RingSpec, _at, _snf_numpy, smith_normal_form_matrix


@dataclass(frozen=True)
class DifferentialSpec:
    """Images of each generator under d; degree -1 and weight-preserving.

    A nonzero image must be a weight-1 element (a combination of
    generators), so that the derivation extension preserves weight, and
    d(d(gen)) must come out to zero for every generator.
    """

    gens: GeneratorSet
    images: tuple  # one FreeNAElement per generator

    def __post_init__(self):
        if len(self.images) != self.gens.n:
            raise InputError("need exactly one image per generator")
        for i, img in enumerate(self.images):
            if img.is_zero():
                continue
            if img.gens != self.gens:
                raise InputError("image over a different generator set")
            if img.weight != 1:
                raise InputError("differential images must have weight 1")
            if img.degree != self.gens.degrees[i] - 1:
                raise InputError(
                    f"d must lower degree by exactly 1 on generator {self.gens.names[i]}"
                )
        for i, img in enumerate(self.images):
            # img is a combination of generators, so d(img) is the same
            # combination of their images
            dd = FreeNAElement(self.gens, tuple(
                (t, c * x) for g, c in img.terms for t, x in self.images[g].terms
            ))
            if not dd.is_zero():
                raise InputError(f"d*d is nonzero on generator {self.gens.names[i]}")


def differential_pair(p: int, deg_x: int, r: int = 1):
    """The standard acyclic pair: generators x, y with d(x) = y, d(y) = 0."""
    if deg_x < 2:
        raise InputError("deg(x) must be at least 2 so that deg(y) is positive")
    ring = RingSpec(p, r)
    gens = GeneratorSet.build([("x", deg_x), ("y", deg_x - 1)], ring)
    spec = DifferentialSpec(
        gens,
        (FreeNAElement.generator(gens, "y"), FreeNAElement.zero(gens)),
    )
    return gens, spec


def _d_tree(tree, spec):
    """d of a single tree, as a list of (tree, coeff) pairs."""
    gens = spec.gens
    if isinstance(tree, int):
        return list(spec.images[tree].terms)
    left, right = tree
    out = [((dt, right), c) for dt, c in _d_tree(left, spec)]
    sign = -1 if tree_degree(left, gens) % 2 else 1
    out.extend(((left, dt), sign * c) for dt, c in _d_tree(right, spec))
    return out


def differentiate(element, spec):
    """Extend the differential as a graded derivation.

    Accepts either a FreeNAElement (Leibniz rule on the two branches of a
    node) or a TensorElement (sum over letter positions with Koszul signs).
    Weight is preserved and degree drops by one.
    """
    gens = spec.gens
    if isinstance(element, FreeNAElement):
        terms = []
        for tree, coeff in element.terms:
            terms.extend((t, coeff * c) for t, c in _d_tree(tree, spec))
        return FreeNAElement(gens, tuple(terms))
    if isinstance(element, TensorElement):
        modulus = gens.ring.modulus
        acc: dict = {}
        for word, coeff in element.terms:
            sign = 1
            for i, letter in enumerate(word):
                for img_tree, c in spec.images[letter].terms:
                    new_word = word[:i] + (img_tree,) + word[i + 1:]
                    total = (acc.pop(new_word, 0) + sign * coeff * c) % modulus
                    if total:  # cancelled words leave at once: half the peak memory at w = 127
                        acc[new_word] = total
                if gens.degrees[letter] % 2:
                    sign = -sign
        return TensorElement(gens, tuple(acc.items()))
    raise InputError(f"cannot differentiate a {type(element).__name__}")


# ---------------------------------------------------------------------------
# Homology of the weight-k component


@dataclass(frozen=True)
class HomologyRow:
    degree: int
    dim_total: int
    dim_cycles: int
    dim_boundaries: int
    dim_homology: int


@dataclass(frozen=True)
class HomologyReport:
    weight: int
    rows: tuple  # HomologyRow per degree, ascending (prime-field runs only)
    cycle_decomposition: GradedModule | None = None
    boundary_decomposition: GradedModule | None = None

    def total_homology(self) -> int:
        return sum(r.dim_homology for r in self.rows)

    def dims_by_degree(self, which: str) -> dict:
        key = {
            "L": "dim_total",
            "Z": "dim_cycles",
            "B": "dim_boundaries",
            "H": "dim_homology",
        }[which]
        return {r.degree: getattr(r, key) for r in self.rows if getattr(r, key)}

    def to_json_dict(self) -> dict:
        if self.cycle_decomposition is None:
            return {
                "weight": self.weight,
                "Z": {str(r.degree): r.dim_cycles for r in self.rows},
                "B": {str(r.degree): r.dim_boundaries for r in self.rows},
                "H": {str(r.degree): r.dim_homology for r in self.rows},
            }
        return {
            "weight": self.weight,
            "Z": self.cycle_decomposition.to_json_dict(),
            "B": self.boundary_decomposition.to_json_dict(),
        }


@functools.lru_cache(maxsize=None)
def _rank_data(gens: GeneratorSet, spec: DifferentialSpec, k: int):
    """Per-degree (dim, rank of d out of the degree) over F_p at weight k.

    d(L_k) lies in L_k, so the images in the degree below are combinations
    of that block's rref rows, whose coordinates are the entries at its
    pivots; the rank is taken on those columns alone (bigraded_complex
    checks the membership).
    """
    p = gens.ring.p
    blocks = _span_blocks(gens, k, 1)
    dims = {deg: len(rows) for deg, (_, _, rows, _) in blocks.items() if len(rows)}
    ranks = {}
    for deg in dims:
        below = blocks.get(deg - 1)
        ranks[deg] = 0 if below is None else _fp.rank(
            _derive(gens, spec.images, k, deg, blocks[deg][2], p, below[3]), p)
    return dims, ranks


def homology(gens: GeneratorSet, spec: DifferentialSpec, k: int, u: int = 1):
    """Cycle, boundary and homology dimensions at weight k.

    Over the prime field (u = 1) returns exact per-degree dimensions of
    Z = Ker(d), B = Im(d) and H = Z/B inside the weight-k commutator span.
    For u > 1 the report instead carries summand decompositions of Z and B
    computed through Smith forms; homology as a quotient is not reported
    there.
    """
    p = gens.ring.p
    if u == 1:
        dims, ranks = _rank_data(gens, spec, k)
        rows = []
        for deg in sorted(dims):
            total = dims[deg]
            z = total - ranks.get(deg, 0)
            b = ranks.get(deg + 1, 0)
            rows.append(HomologyRow(deg, total, z, b, z - b))
        return HomologyReport(k, tuple(rows))
    return _homology_decompositions(gens, spec, k, u)


def _homology_decompositions(gens, spec, k, u):
    """The cycle and boundary decompositions of homology over Z/p^u.

    In each degree, one Smith form U A V = D of the images A of the span
    basis rows E gives both answers: the boundaries are the diagonal of D,
    and the rows c with c A = 0 are generated by the rows of U scaled by
    p^(u - v), where rows past the diagonal count as v = u and v = 0 drops
    out.  E rides through that elimination as columns carried past A, so
    the cycle generators c E come out as the rows p^(u - v) (U E)[j], and
    no transform is built.
    """
    ring_u = RingSpec(gens.ring.p, u)
    p, modulus = ring_u.p, ring_u.modulus
    cycle_comps: dict[int, tuple[int, ...]] = {}
    boundary_comps: dict[int, tuple[int, ...]] = {}
    for deg, (_, _, elems, _) in _span_blocks(gens, k, u).items():
        images = _derive(gens, spec.images, k, deg, elems, modulus)
        img_cols = images[:, (images != 0).any(axis=0)]
        elem_cols = elems[:, (elems != 0).any(axis=0)]
        stacked = np.concatenate([img_cols, elem_cols], axis=1)
        vals, _, ue, *_ = _snf_numpy(stacked, len(elems), img_cols.shape[1], ring_u)
        boundary_comps[deg - 1] = tuple(u - v for v in vals if v < u)
        vals = vals + [u] * (len(elems) - len(vals))
        kept = [j for j, v in enumerate(vals) if v]
        if kept:
            scale = np.array([[p ** (u - vals[j])] for j in kept], dtype=ue.dtype)
            *_, z_vals = smith_normal_form_matrix(ue[kept] * scale % modulus, ring_u,
                                                  transforms=False)
            cycle_comps[deg] = tuple(u - v for v in z_vals if v < u)
    return HomologyReport(
        k,
        (),
        cycle_decomposition=GradedModule.from_dict(ring_u, cycle_comps),
        boundary_decomposition=GradedModule.from_dict(ring_u, boundary_comps),
    )


# ---------------------------------------------------------------------------
# The explicit cycles


def _cycle_order(x_elem: FreeNAElement, k: int) -> int:
    """p^k, refusing k < 1 and w C(w, 2) > WORD_GUARD for w = p^k wt(x): sigma
    has about w trees of up to C(w, 2) words.  p^k grows one factor at a
    time, so a huge k is refused at once."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    p, q = x_elem.gens.ring.p, 1
    for _ in range(k):
        q *= p
        w = q * x_elem.weight
        if w * comb(w, 2) > WORD_GUARD:
            raise ResourceGuardError(
                f"tau_{k} and sigma_{k} at p = {p} have weight p^k*wt(x) >= {w}, and "
                f"w*C(w, 2) = {w * comb(w, 2)} exceeds the guard of {WORD_GUARD}; "
                "this guard has no override"
            )
    return q


def tau(x_elem: FreeNAElement, spec: DifferentialSpec, k: int) -> FreeNAElement:
    """The iterated bracket ad^{p^k - 1}(x)(dx) for an even-degree x.

    Degree p^k deg(x) - 1, weight p^k wt(x).
    """
    if x_elem.is_zero() or x_elem.degree % 2:
        raise ParityError("tau needs a nonzero even-degree element")
    q = _cycle_order(x_elem, k)
    out = differentiate(x_elem, spec)
    for _ in range(q - 1):
        out = bracket(x_elem, out)
    return out


def sigma(x_elem: FreeNAElement, spec: DifferentialSpec, k: int) -> FreeNAElement:
    """The binomial-weighted bracket sum companion of tau.

    (1/2) sum_{j=1}^{p^k - 1} (1/p) C(p^k, j) [ad^{j-1}(x)(dx),
    ad^{p^k-1-j}(x)(dx)], with the binomials computed in the integers,
    divided exactly by p, and reduced mod p.  Needs p odd (1/2 must exist)
    and an even-degree x.  Degree p^k deg(x) - 2, weight p^k wt(x).
    """
    p = x_elem.gens.ring.p
    if p == 2:
        raise UnsupportedInputError("sigma is not defined at p = 2")
    if x_elem.is_zero() or x_elem.degree % 2:
        raise ParityError("sigma needs a nonzero even-degree element")
    q = _cycle_order(x_elem, k)
    inv2 = pow(2, -1, p)
    ad_pow = [differentiate(x_elem, spec)]
    for _ in range(q - 2):
        ad_pow.append(bracket(x_elem, ad_pow[-1]))
    terms = []
    for j in range(1, q):
        c = comb(q, j) // p % p * inv2 % p
        if c:
            terms.extend(bracket(ad_pow[j - 1], ad_pow[q - 1 - j]).scale(c).terms)
    return FreeNAElement(x_elem.gens, tuple(terms))


# ---------------------------------------------------------------------------
# Bigraded complexes and acyclic bases


@dataclass(frozen=True)
class BigradedComplex:
    """Free F_p chain blocks indexed by (degree, weight).

    ``differentials[(degree, weight)]`` maps the block into
    (degree - 1, weight); an absent entry means the zero map.  Shapes and
    d*d = 0 are checked at construction.
    """

    p: int
    ranks: tuple  # (((degree, weight), rank), ...)
    differentials: tuple  # (((degree, weight), matrix-rows), ...)

    def __post_init__(self):
        ranks = dict(self.ranks)
        diffs = dict(self.differentials)
        for (deg, w), mat in diffs.items():
            rows = len(mat)
            cols = len(mat[0]) if rows else 0
            if cols != ranks.get((deg, w), 0) or rows != ranks.get((deg - 1, w), 0):
                raise InputError(f"differential shape mismatch at {(deg, w)}")
        for (deg, w), mat in diffs.items():
            below = diffs.get((deg - 1, w))
            if below is None:
                continue
            prod = _fp.residues(below, self.p, len(mat)) @ _fp.residues(
                mat, self.p, len(mat)
            )
            if np.any(prod % self.p):
                raise InputError(f"d*d is nonzero at {(deg, w)}")

    def rank_at(self, degree: int, weight: int) -> int:
        return _at(self.ranks, (degree, weight), 0)

    def diff_at(self, degree: int, weight: int):
        return _at(self.differentials, (degree, weight))

    def weights(self):
        return sorted({w for (_, w), r in self.ranks if r})


def bigraded_complex(gens: GeneratorSet, spec: DifferentialSpec, weights):
    """The commutator-span complex over F_p restricted to the given weights.

    Block bases are the rref span bases; the differential is re-expressed
    in those coordinates.
    """
    p = gens.ring.p
    ranks = []
    diffs = []
    for w in weights:
        blocks = _span_blocks(gens, w, 1)
        for deg in sorted(blocks):
            _, _, rows, _ = blocks[deg]
            if not len(rows):
                continue
            ranks.append(((deg, w), len(rows)))
            target = blocks.get(deg - 1)
            if target is None or not len(target[2]):
                continue
            _, _, t_rows, t_piv = target
            images = _derive(gens, spec.images, w, deg, rows, p)
            coords = images[:, list(t_piv)]
            bound = len(t_piv) + 1
            span = _fp.residues(coords, p, bound) @ _fp.residues(t_rows, p, bound)
            if np.any((span - _fp.residues(images, p, bound)) % p):
                raise AssertionError("differential left the commutator span")
            mat = tuple(map(tuple, coords.T.tolist()))
            diffs.append(((deg, w), mat))
    return BigradedComplex(p, tuple(ranks), tuple(diffs))


@dataclass(frozen=True)
class AcyclicBasis:
    """Paired bases of an exact complex: d(first) = second in each pair.

    ``even_pairs`` holds pairs whose first element has even degree,
    ``odd_pairs`` the others.  Entries are ((degree, weight), coords) with
    coordinates relative to the complex's block bases.
    """

    even_pairs: tuple
    odd_pairs: tuple

    def all_pairs(self):
        return self.even_pairs + self.odd_pairs


def acyclic_basis(cx: BigradedComplex) -> AcyclicBasis:
    """Build an acyclic basis by lifting kernels up through the degrees.

    Walks each weight up through its nonzero degrees and the degree just
    above each, an absent degree counting as a rank-0 block: the kernel
    basis at one degree is lifted through d to the next, and each lift
    pairs with its image.  One rref of [d | kernel below] per block answers
    both: its first r columns are rref(d), whose free columns give the
    kernel, and the kernel columns read off every lift at once.  A pivot
    among those columns is a kernel vector that no lift reaches, so the
    complex is refused at the degree below, the first (degree, weight) with
    nonzero homology.  That is the only refusal: once every lift succeeds,
    d*d = 0 (checked by BigradedComplex) makes the image of d exactly the
    kernel below.
    """
    p = cx.p
    even_pairs = []
    odd_pairs = []
    for w in cx.weights():
        nonzero = [d for (d, wt), r in cx.ranks if wt == w and r]
        kernel = np.zeros((0, 0), dtype=np.int64)
        for deg in sorted({d + i for d in nonzero for i in (0, 1)}):
            r = cx.rank_at(deg, w)
            given = cx.diff_at(deg, w)
            mat = np.zeros((kernel.shape[1], r), dtype=np.int64)
            if given is not None:
                mat[:] = given
            rows, pivots = _fp.rref(np.hstack([mat, kernel.T]), p)
            if pivots and pivots[-1] >= r:
                raise NotAcyclicError(
                    f"nonzero homology at degree {deg - 1}, weight {w}",
                    spot=(deg - 1, w),
                )
            lifts = np.zeros((r, len(kernel)), dtype=rows.dtype)
            lifts[pivots] = rows[:, r:]
            pairs = even_pairs if deg % 2 == 0 else odd_pairs
            for sol, target in zip(lifts.T.tolist(), kernel.tolist()):
                pairs.append((((deg, w), tuple(sol)), ((deg - 1, w), tuple(target))))
            free = [c for c in range(r) if c not in pivots]
            kernel = np.zeros((len(free), r), dtype=np.int64)
            kernel[range(len(free)), free] = 1
            kernel[:, pivots] = (-rows[:, free].T) % p
    return AcyclicBasis(tuple(even_pairs), tuple(odd_pairs))


# ---------------------------------------------------------------------------
# Weighted dimensions and the growth inequalities


def weighted_dim(dims_by_weight, k: int) -> Fraction:
    """sum_{i <= k} dim(M^i) / i, exactly."""
    if k < 1:
        raise InputError("k must be at least 1")
    if not isinstance(dims_by_weight, dict):
        dims_by_weight = {i + 1: d for i, d in enumerate(dims_by_weight)}
    return sum(
        (Fraction(dims_by_weight.get(i, 0), i) for i in range(1, k + 1)),
        Fraction(0),
    )


def _check_acyclic_generators(gens: GeneratorSet, spec: DifferentialSpec):
    """The generator module itself must be exact under d, over F_p.

    It is the weight-1 commutator span, so this reads the weight-1 homology
    (cached with the other weights) and refuses its lowest degree with
    nonzero homology.
    """
    for row in homology(gens, spec, 1).rows:
        if row.dim_homology:
            raise NotAcyclicError(
                f"generator module is not acyclic at degree {row.degree}",
                spot=(row.degree, 1),
            )


@dataclass(frozen=True)
class InequalityRow:
    k: int
    dim_l: Fraction
    dim_h: Fraction
    dim_b: Fraction
    homology_small: bool
    boundaries_large: bool


def check_weight_inequalities(gens: GeneratorSet, spec: DifferentialSpec,
                              max_k: int):
    """Exact-rational checks of the two weighted-dimension inequalities.

    For each k <= max_k: dim^k(H) < dim^k(L)/p and
    dim^k(B) > (p-1)/(2p) * dim^k(L), over F_p, for an acyclic generator
    module.  No tolerances: Fractions all the way.
    """
    _check_word_guard(gens, max_k, 1)
    _check_acyclic_generators(gens, spec)
    p = gens.ring.p
    l_dims, h_dims, b_dims = {}, {}, {}
    for w in range(1, max_k + 1):
        report = homology(gens, spec, w)
        l_dims[w] = sum(r.dim_total for r in report.rows)
        h_dims[w] = report.total_homology()
        b_dims[w] = sum(r.dim_boundaries for r in report.rows)
    rows = []
    for k in range(1, max_k + 1):
        dl = weighted_dim(l_dims, k)
        dh = weighted_dim(h_dims, k)
        db = weighted_dim(b_dims, k)
        rows.append(
            InequalityRow(
                k, dl, dh, db,
                dh < Fraction(1, p) * dl,
                db > Fraction(p - 1, 2 * p) * dl,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class BoundaryGrowthRow:
    k: int
    cumulative_boundaries: int
    lower_bound: Fraction
    holds: bool


@dataclass(frozen=True)
class BoundaryGrowthReport:
    rows: tuple
    boundaries_by_degree: tuple  # (degree, dim) pairs, ascending


def boundary_growth(gens: GeneratorSet, spec: DifferentialSpec, max_k: int):
    """Cumulative boundary dimensions against the Witt lower bound.

    For each k <= max_k, sums dim B_j over topological degrees j <= n*k
    (n = top generator degree, all weights included) and checks that the
    total strictly exceeds (p-1)/(2pk) * W_l(k) with l = number of
    generators.  Needs at least two generators.
    """
    ell = gens.n
    if ell < 2:
        raise PreconditionError("total dimension of the generator module must be >= 2")
    n = max(gens.degrees)
    top_degree = n * max_k
    max_weight = top_degree // min(gens.degrees)
    _check_word_guard(gens, max_weight, 1)
    _check_acyclic_generators(gens, spec)
    p = gens.ring.p
    boundaries: dict[int, int] = {}
    for w in range(1, max_weight + 1):
        report = homology(gens, spec, w)
        for r in report.rows:
            if r.dim_boundaries and r.degree <= top_degree:
                boundaries[r.degree] = boundaries.get(r.degree, 0) + r.dim_boundaries
    rows = []
    for k in range(1, max_k + 1):
        lhs = sum(d for j, d in boundaries.items() if j <= n * k)
        rhs = Fraction(p - 1, 2 * p * k) * witt(ell, k)
        rows.append(BoundaryGrowthRow(k, lhs, rhs, lhs > rhs))
    return BoundaryGrowthReport(
        tuple(rows), tuple(sorted(boundaries.items()))
    )
