"""Free nonassociative algebras, Hall bases, and tensor-algebra models.

The free graded Lie algebra on a generator set V is modelled here as the
span of iterated graded commutators inside the tensor algebra T(V): every
binary bracketing tree maps to the alternating word sum

    [a, b]  ->  a*b - (-1)^{deg(a) deg(b)} b*a,

and rank questions about weighted components reduce to exact linear
algebra on word coordinates.  This span satisfies graded antisymmetry,
the Jacobi identity and the odd-cube relation identically, because they
hold for the commutator of any graded associative algebra.

Trees are plain nested tuples: a leaf is a generator index (int), a node
is a pair (left, right).  Both are hashable and cheap to compare.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _fp
from .errors import (
    InputError,
    InvalidExponentError,
    ResourceGuardError,
)
from .zpmod import GradedModule, RingSpec, _index, _json, _snf_numpy

WORD_GUARD = 2 ** 20  # n^k above this is refused
BLOCK_GUARD = 2 ** 14  # a (weight, degree) block wider than this is refused
HALL_GUARD = 2 ** 16  # more basic products than this, over all weights, are refused
WITT_DIGIT_GUARD = 2 ** 19  # a witt table estimated at more digits is refused


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered list of named generators with positive topological degrees."""

    names: tuple[str, ...]
    degrees: tuple[int, ...]
    ring: RingSpec

    def __post_init__(self):
        if len(self.names) != len(self.degrees):
            raise InputError("names and degrees must have equal length")
        if len(set(self.names)) != len(self.names):
            raise InputError("generator names must be distinct")
        if any(d < 1 for d in self.degrees):
            raise InputError("generator degrees must be positive")

    @classmethod
    def build(cls, gens, ring: RingSpec) -> "GeneratorSet":
        names = tuple(n for n, _ in gens)
        degrees = tuple(d for _, d in gens)
        return cls(names, degrees, ring)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self.names:
            raise InputError(f"unknown generator {name!r}")
        return self.names.index(name)


# ---------------------------------------------------------------------------
# Bracketing trees

# A BracketTree is a plain nested structure: an int (generator index) at
# the leaves, a pair (left, right) at the nodes.  Hashable, cheap, and a
# natural dict key for sparse linear combinations.
BracketTree = object


def tree_weight(tree) -> int:
    if isinstance(tree, int):
        return 1
    return tree_weight(tree[0]) + tree_weight(tree[1])


def tree_degree(tree, gens: GeneratorSet) -> int:
    if isinstance(tree, int):
        return gens.degrees[tree]
    return tree_degree(tree[0], gens) + tree_degree(tree[1], gens)


def tree_sort_key(tree):
    """Total order on trees: weight first, then recursive structure."""
    if isinstance(tree, int):
        return (1, 0, tree)
    left, right = tree_sort_key(tree[0]), tree_sort_key(tree[1])
    return (left[0] + right[0], 1, left, right)


def tree_to_names(tree, gens):
    """The tree with each generator index replaced by its name; ``gens`` is
    a GeneratorSet or just the sequence of names."""
    return _tree_names(tree, gens.names if isinstance(gens, GeneratorSet) else gens)


def _tree_names(tree, names):
    if isinstance(tree, int):
        return names[tree]
    return [_tree_names(tree[0], names), _tree_names(tree[1], names)]


def tree_from_names(data, gens: GeneratorSet):
    if isinstance(data, str):
        return gens.index(data)
    left, right = data
    return (tree_from_names(left, gens), tree_from_names(right, gens))


# ---------------------------------------------------------------------------
# Elements of L'(V) and of T(V)


def _normalize_terms(pairs, modulus, sort_key):
    acc = {}
    for key, coeff in pairs:
        acc[key] = (acc.get(key, 0) + coeff) % modulus
    return tuple(sorted(((k, c) for k, c in acc.items() if c), key=lambda kc: sort_key(kc[0])))


@dataclass(frozen=True)
class FreeNAElement:
    """Homogeneous formal sum of bracketing trees with Z/p^r coefficients."""

    gens: GeneratorSet
    terms: tuple  # ((tree, coeff), ...) sorted, nonzero coefficients

    def __post_init__(self):
        terms = _normalize_terms(self.terms, self.gens.ring.modulus, tree_sort_key)
        sigs = {(tree_degree(t, self.gens), tree_weight(t)) for t, _ in terms}
        if len(sigs) > 1:
            raise InputError(f"inhomogeneous element: signatures {sorted(sigs)}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, gens) -> "FreeNAElement":
        return cls(gens, ())

    @classmethod
    def from_tree(cls, gens, tree, coeff: int = 1) -> "FreeNAElement":
        return cls(gens, ((tree, coeff),))

    @classmethod
    def generator(cls, gens, name: str) -> "FreeNAElement":
        return cls.from_tree(gens, gens.index(name))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return tree_degree(self.terms[0][0], self.gens) if self.terms else None

    @property
    def weight(self):
        return tree_weight(self.terms[0][0]) if self.terms else None

    def __add__(self, other: "FreeNAElement") -> "FreeNAElement":
        if self.gens != other.gens:
            raise InputError("elements over different generator sets")
        return FreeNAElement(self.gens, self.terms + other.terms)

    def scale(self, c: int) -> "FreeNAElement":
        return FreeNAElement(self.gens, tuple((t, c * x) for t, x in self.terms))

    def to_json(self):
        return [
            {"coeff": c, "tree": tree_to_names(t, self.gens)} for t, c in self.terms
        ]


def bracket(a: FreeNAElement, b: FreeNAElement) -> FreeNAElement:
    """The formal bracket [a, b] in L'(V): bilinear node formation."""
    if a.gens != b.gens:
        raise InputError("elements over different generator sets")
    terms = [((ta, tb), ca * cb) for ta, ca in a.terms for tb, cb in b.terms]
    return FreeNAElement(a.gens, tuple(terms))


@dataclass(frozen=True)
class TensorElement:
    """Linear combination of words in T(V); not necessarily homogeneous."""

    gens: GeneratorSet
    terms: tuple  # ((word, coeff), ...) words sorted lexicographically

    def __post_init__(self):
        terms = _normalize_terms(
            self.terms, self.gens.ring.modulus, lambda w: (len(w), w)
        )
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, gens) -> "TensorElement":
        return cls(gens, ())

    @classmethod
    def from_word(cls, gens, word, coeff: int = 1) -> "TensorElement":
        return cls(gens, ((tuple(word), coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def weight(self):
        return len(self.terms[0][0]) if self.terms else None

    @property
    def degree(self):
        if not self.terms:
            return None
        return sum(self.gens.degrees[i] for i in self.terms[0][0])

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.gens != other.gens:
            raise InputError("elements over different generator sets")
        return TensorElement(self.gens, self.terms + other.terms)

    def scale(self, c: int) -> "TensorElement":
        return TensorElement(self.gens, tuple((w, c * x) for w, x in self.terms))

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Concatenation product of T(V); no signs here, they live in brackets."""
        if self.gens != other.gens:
            raise InputError("elements over different generator sets")
        terms = [
            (wa + wb, ca * cb) for wa, ca in self.terms for wb, cb in other.terms
        ]
        return TensorElement(self.gens, tuple(terms))

    def coefficient(self, word) -> int:
        word = tuple(word)
        for w, c in self.terms:
            if w == word:
                return c
        return 0

    def to_json(self):
        return [
            {"coeff": c, "word": [self.gens.names[i] for i in w]}
            for w, c in self.terms
        ]

    @classmethod
    def from_json(cls, gens, data) -> "TensorElement":
        terms = []
        for item in _json(data, "a tensor element"):
            item = _json(item, "a term", ("coeff", "word"))
            word = tuple(gens.index(n) for n in _json(item["word"], "a word"))
            terms.append((word, _index(item["coeff"], "coeff")))
        return cls(gens, tuple(terms))


def zeta(element: TensorElement, i: int) -> TensorElement:
    """Projection onto the weight-i part of T(V)."""
    return TensorElement(
        element.gens, tuple((w, c) for w, c in element.terms if len(w) == i)
    )


def tensor_dim(gens: GeneratorSet, k: int) -> int:
    """Dimension n^k of the weight-k word space; the algebra is reduced, k >= 1."""
    if k < 1:
        raise InputError("the tensor algebra here is reduced: weights start at 1")
    return gens.n ** k


def embed_tensor(element: FreeNAElement) -> TensorElement:
    """Expand bracketing trees into alternating word sums inside T(V)."""
    gens = element.gens
    modulus = gens.ring.modulus

    def expand(tree):
        """The word -> coefficient dict of one tree, and the tree's degree."""
        if isinstance(tree, int):
            return {(tree,): 1}, gens.degrees[tree]
        (a, deg_a), (b, deg_b) = expand(tree[0]), expand(tree[1])
        sign = -1 if deg_a % 2 and deg_b % 2 else 1  # [a, b] = ab - sign ba
        out: dict = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
                out[wb + wa] = out.get(wb + wa, 0) - sign * ca * cb
        return {w: c % modulus for w, c in out.items() if c % modulus}, deg_a + deg_b

    acc: dict = {}
    for tree, coeff in element.terms:
        for word, c in expand(tree)[0].items():
            acc[word] = acc.get(word, 0) + coeff * c
    return TensorElement(gens, tuple(acc.items()))


# ---------------------------------------------------------------------------
# Moebius, Witt, Hall


def mobius(s: int) -> int:
    if s < 1:
        raise InputError(f"mobius needs a positive integer, got {s}")
    if s == 1:
        return 1
    count = 0
    d = 2
    while d * d <= s:
        if s % d == 0:
            s //= d
            if s % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if s > 1:
        count += 1
    return (-1) ** count


def witt(n: int, k: int) -> int:
    """(1/k) * sum over d | k of mu(d) n^{k/d}; always an exact integer."""
    if n < 1 or k < 1:
        raise InputError("witt needs positive n and k")
    if n == 1:  # the sum of mu(d) over d | k
        return int(k == 1)
    total = 0
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            total += mobius(d) * n ** (k // d)
            if d * d != k:
                total += mobius(k // d) * n ** d
    if total % k:
        raise AssertionError(f"Witt sum {total} not divisible by {k}")
    return total // k


def check_witt_digits(n: int, max_k: int):
    """Refuse a table of W_n(1..max_k) whose decimal digits, estimated as
    max_k + log10(n) max_k (max_k + 1) / 2 (at least one per entry), pass
    WITT_DIGIT_GUARD, or whose last entry, of about max_k log10(n) digits,
    Python could not print (4300 digits).  Nothing is computed first."""
    per_k = math.log10(max(n, 1))
    digits = max_k + per_k * max_k * (max_k + 1) / 2
    if digits > WITT_DIGIT_GUARD or max_k * per_k >= 4300:
        raise ResourceGuardError(
            f"W_{n}(1..{max_k}) has about {digits:.0f} digits, the last about "
            f"{max_k * per_k:.0f}, above the guard of {WITT_DIGIT_GUARD} in all "
            "or 4300 in one; this guard has no override"
        )


@dataclass(frozen=True)
class HallBasis:
    """Basic products per weight; weight-1 entries are the generators."""

    n_generators: int
    weights: tuple  # weights[k-1] = tuple of trees of weight k

    def at_weight(self, k: int):
        return self.weights[k - 1]


def basic_products(n_gens: int, k: int):
    """The basic products (Hall basis elements) of weight k.

    The total order used in the inductive construction is tree_sort_key:
    generators in declaration order, then weight-major recursive comparison.
    Any total order compatible with the construction would do; this one is
    fixed so the output is deterministic.  The length equals witt(n_gens, k).
    """
    if n_gens < 1:
        raise InputError("need at least one generator")
    return hall_basis(n_gens, k).at_weight(k)


def hall_basis(n_gens: int, max_weight: int) -> HallBasis:
    """The basic products of weights 1..max_weight.

    Before building any tree, refuses more than HALL_GUARD of them in all,
    counted as the running sum of W_n(k), or more than HALL_GUARD weights,
    which one generator reaches with a single tree; the guard has no
    override.
    """
    if max_weight > HALL_GUARD:
        raise ResourceGuardError(
            f"the basic products up to weight {max_weight} span more than "
            f"{HALL_GUARD} weights; this guard has no override"
        )
    count = 0
    for k in range(1, max_weight + 1):
        count += witt(n_gens, k)
        if count > HALL_GUARD:
            raise ResourceGuardError(
                f"the basic products on {n_gens} generators up to weight {k} "
                f"number {count} (max weight {max_weight}), above the guard of "
                f"{HALL_GUARD}; this guard has no override"
            )
    # (tree_sort_key, tree) pairs per weight; kv[2] is the key of v[0].
    per_weight = [[(tree_sort_key(a), a) for a in range(n_gens)]]
    live = [1]  # the weights below k with a basic product, ascending
    for k in range(2, max_weight + 1):
        found = []
        for i in live:
            for ku, u in per_weight[i - 1]:
                for kv, v in per_weight[k - i - 1]:
                    if ku < kv and (isinstance(v, int) or kv[2] <= ku):
                        found.append(((k, 1, ku, kv), (u, v)))
        found.sort()
        per_weight.append(found)
        if found:
            live.append(k)
    trees = tuple(tuple(t for _, t in found) for found in per_weight)
    return HallBasis(n_gens, trees[:max_weight])


# ---------------------------------------------------------------------------
# Weighted components of the commutator span
#
# The rank computations run on word codes: the weight-k word
# (w_0, ..., w_{k-1}) is the base-n integer w_0 n^{k-1} + ... + w_{k-1}, so
# numeric order is the lexicographic order of the tuples.  Rows of a
# (weight, degree) block are numpy arrays over that block's sorted codes.
# embed_tensor and TensorElement stay the readable reference path; the
# oracle tests pin this kernel to them.


def _check_word_guard(gens: GeneratorSet, k: int, u: int):
    """Check 1 <= u <= the ring exponent, then refuse weight k beyond
    WORD_GUARD words or with a degree block wider than BLOCK_GUARD, for
    every u: no array of the span build is width x width.  The widths are
    the coefficients of (sum_a t^{|a|})^k.  Neither bound has an override."""
    if not 1 <= u <= gens.ring.s:
        raise InvalidExponentError(f"coefficient exponent {u} outside [1, {gens.ring.s}]")
    if gens.n ** k > WORD_GUARD:
        raise ResourceGuardError(
            f"{gens.n}^{k} words exceed the guard of {WORD_GUARD}; this guard has no override"
        )
    widths = {0: 1}
    for _ in range(k):
        step: dict[int, int] = {}
        for deg, count in widths.items():
            for d in gens.degrees:
                step[deg + d] = step.get(deg + d, 0) + count
        widths = step
    if max(widths.values()) > BLOCK_GUARD:
        raise ResourceGuardError(
            f"the widest degree block of weight {k} has {max(widths.values())} "
            f"words, above the guard of {BLOCK_GUARD}; this guard has no override"
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _word_codes(degrees: tuple, k: int):
    """The weight-k word codes over generators of the given degrees.

    Returns (blocks, index): ``blocks`` maps each degree to the sorted
    read-only code array of its words, and ``index[code]`` is the position
    of ``code`` inside its block.
    """
    n = len(degrees)
    codes = np.arange(n ** k)
    word_degree = np.zeros(n ** k, dtype=np.int64)
    rest = codes.copy()
    for _ in range(k):
        word_degree += np.asarray(degrees)[rest % n]
        rest //= n
    index = np.empty(n ** k, dtype=np.intp)
    blocks = {}
    for deg in sorted(set(word_degree.tolist())):  # np.unique imports numpy.ma
        block = np.flatnonzero(word_degree == deg)
        index[block] = np.arange(len(block))
        blocks[deg] = _frozen(block)
    return blocks, _frozen(index)


def _code_words(codes: np.ndarray, n: int, k: int) -> list:
    """Word tuples of the given weight-k codes."""
    digits = codes[:, None] // n ** np.arange(k - 1, -1, -1) % n
    return [tuple(w) for w in digits.tolist()]


def _ad(gens: GeneratorSet, a: int, k: int, deg: int, rows, modulus: int):
    """[a, X] for each row X of the weight-(k-1) block of degree ``deg``.

    Returns rows of the weight-k block of degree deg + |a|, mod ``modulus``:
    a prepend scatter minus (-1)^{|a| deg} times an append scatter.
    """
    src = _word_codes(gens.degrees, k - 1)[0][deg]
    blocks, index = _word_codes(gens.degrees, k)
    rows = _fp.residues(rows, modulus)
    out = np.zeros((len(rows), len(blocks[deg + gens.degrees[a]])), dtype=rows.dtype)
    out[:, index[a * gens.n ** (k - 1) + src]] += rows
    if gens.degrees[a] * deg % 2:
        out[:, index[src * gens.n + a]] += rows
    else:
        out[:, index[src * gens.n + a]] -= rows
    return out % modulus


def _derive(gens: GeneratorSet, images, k: int, deg: int, rows, modulus: int,
            cols=None):
    """The derivation with the given generator images on a row block.

    ``images`` holds one weight-1 FreeNAElement per generator.  Returns d of
    each row of the weight-k block of degree ``deg`` as rows of the degree
    deg - 1 block, mod ``modulus``: one Koszul-signed scatter-add per
    (position, letter, image term), where the letter at position i becomes
    a term of its image with sign (-1) to the degree of the letters before i.
    Given ``cols``, only those columns of the result are built, in order.
    """
    n = gens.n
    blocks, index = _word_codes(gens.degrees, k)
    codes = blocks[deg]
    width = len(blocks.get(deg - 1, ()))
    if cols is not None:  # a kept column's place among cols, -1 elsewhere
        index, width = np.full(len(index), -1), len(cols)
        index[blocks[deg - 1][list(cols)]] = np.arange(width)
    terms = [(letter, g, c) for letter in range(n) for g, c in images[letter].terms]
    bound = k * len(terms)  # summands that can land on one entry
    rows = _fp.residues(rows, modulus, bound)
    out = np.zeros((len(rows), width), dtype=rows.dtype)
    odd_prefix = np.zeros(len(codes), dtype=np.intp)
    for i in range(k):
        place = n ** (k - 1 - i)
        digit = codes // place % n
        for letter, g, c in terms:
            src = np.flatnonzero(digit == letter)
            dst = index[codes[src] + (g - letter) * place]
            kept = dst >= 0
            src, dst = src[kept], dst[kept]
            signed = _fp.residues([c, -c], modulus, bound)[odd_prefix[src]]
            out[:, dst] += rows[:, src] * signed
        odd_prefix ^= np.asarray(gens.degrees)[digit] % 2
    out %= modulus
    return out


@functools.lru_cache(maxsize=None)
def _span_blocks(gens: GeneratorSet, k: int, u: int):
    """Per-degree word codes and bases of the weight-k commutator span over
    Z/p^u, for 1 <= u <= the ring exponent of ``gens``.

    Returns a dict degree -> (codes, exponents, rows, pivots): ``codes`` are
    the block's sorted word codes, ``rows`` a read-only basis (numpy, mod
    p^u) of the span in those coordinates and ``exponents`` the order
    exponent of each row.  Since L_k = [V, L_{k-1}] over any coefficient
    ring, the span is generated by ad_a applied to the cached weight-(k-1)
    basis, for every generator a.  Over F_p the basis is the rref, which is
    unique, with its pivots; over Z/p^u (u > 1) it is the Smith basis
    p^v V^-1[i] for the valuations v < u, with exponent u - v and no pivots,
    read off the Smith kernel as the rows of U*A, so no transform is built.
    """
    _check_word_guard(gens, k, u)
    p = gens.ring.p
    modulus = p ** u
    blocks = _word_codes(gens.degrees, k)[0]
    if k == 1:
        spans = {deg: [np.eye(len(codes), dtype=np.int64)] for deg, codes in blocks.items()}
    else:
        spans = {deg: [] for deg in blocks}
        for a in range(gens.n):  # first-letter order, as in the words
            for deg, (_, _, rows, _) in _span_blocks(gens, k - 1, u).items():
                if len(rows):
                    spans[deg + gens.degrees[a]].append(_ad(gens, a, k, deg, rows, modulus))
    out = {}
    for deg, codes in blocks.items():  # pop each list: one copy of the rows, not two
        if not spans[deg]:
            basis, exps, pivots = np.zeros((0, len(codes)), dtype=_fp.int_dtype(modulus)), (), ()
        elif u == 1:
            basis, pivots = _fp.rref(np.concatenate(spans.pop(deg)), p)
            exps = (1,) * len(basis)
        else:
            span = np.concatenate(spans.pop(deg))
            span = span[(span != 0).any(axis=1)]
            vals, ua, *_ = _snf_numpy(span, *span.shape, RingSpec(p, u))
            exps, pivots = tuple(u - v for v in vals[:len(ua)]), ()
            basis = _fp.residues(ua, modulus)
        out[deg] = (codes, exps, _frozen(basis), tuple(pivots))
    return out


def _summands(gens: GeneratorSet, k: int, u: int) -> GradedModule:
    """The summand decomposition of the weight-k commutator span over Z/p^u:
    the exponents of _span_blocks, with no basis element built."""
    comps = {deg: exps for deg, (_, exps, _, _) in _span_blocks(gens, k, u).items()}
    return GradedModule.from_dict(RingSpec(gens.ring.p, u), comps)


def lie_component(gens: GeneratorSet, k: int, u: int):
    """Summand decomposition and a basis of the weight-k commutator span.

    Coefficients are taken in Z/p^u for u <= the ring exponent of ``gens``.
    In each degree the generator matrix stacks the rows [a, b] for every
    generator a and every basis element b of the weight-(k-1) span over
    Z/p^u.  Over the prime field (u = 1) ranks come from row reduction;
    over larger u the Smith form of that matrix gives the decomposition,
    and the basis elements returned are p^v times rows of the inverse
    column transform, ordered to match the exponent lists.  Callers that
    need no basis read the decomposition alone from _summands.
    """
    dims = _summands(gens, k, u)
    out_gens = GeneratorSet(gens.names, gens.degrees, dims.ring)
    basis: list[TensorElement] = []
    for deg, (codes, _, rows, _) in sorted(_span_blocks(gens, k, u).items()):
        words = _code_words(codes, gens.n, k)
        # the rows are residues mod p^u: an entry is zero iff its class is
        basis += [TensorElement(out_gens, tuple((w, c) for w, c in zip(words, row) if c))
                  for row in rows.tolist()]
    return dims, basis


# ---------------------------------------------------------------------------
# Diagnostic: weighted dimensions against the Witt numbers


@dataclass(frozen=True)
class PBWRow:
    weight: int
    total: int
    even: int
    odd: int
    witt: int
    matches_witt: bool


@dataclass(frozen=True)
class PBWDiagnostic:
    rows: tuple
    product_series: tuple
    target_series: tuple
    series_matches: bool

    def to_json_dict(self):
        return {
            "rows": [
                {
                    "weight": r.weight,
                    "total": r.total,
                    "even": r.even,
                    "odd": r.odd,
                    "witt": r.witt,
                    "matches_witt": r.matches_witt,
                }
                for r in self.rows
            ],
            "product_series": list(self.product_series),
            "target_series": list(self.target_series),
            "series_matches": self.series_matches,
        }


def _series_mul(a, b, K):
    out = [0] * (K + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > K:
                break
            out[i + j] += x * y
    return out


def pbw_series_diagnostic(gens: GeneratorSet, max_weight: int) -> PBWDiagnostic:
    """Report weighted dimensions of the commutator span against W_n(k).

    Also multiplies out (1+t^k)^{odd_k} (1-t^k)^{-even_k} over the computed
    splits and compares against 1/(1 - n t) modulo t^{max_weight+1}.  This
    is a report, never an assertion: over mixed-parity generator sets the
    counts can legitimately differ from the ungraded Witt numbers.
    """
    K = max_weight
    rows = []
    series = [1] + [0] * K
    for k in range(1, K + 1):
        dims = _summands(gens, k, 1)
        even = sum(len(e) for d, e in dims.components if d % 2 == 0)
        odd = sum(len(e) for d, e in dims.components if d % 2 == 1)
        total = even + odd
        w = witt(gens.n, k)
        rows.append(PBWRow(k, total, even, odd, w, total == w))
        one_plus = [1 if i in (0, k) else 0 for i in range(K + 1)]
        for _ in range(odd):
            series = _series_mul(series, one_plus, K)
        geom = [1 if i % k == 0 else 0 for i in range(K + 1)]
        for _ in range(even):
            series = _series_mul(series, geom, K)
    target = [gens.n ** j for j in range(K + 1)]
    return PBWDiagnostic(
        tuple(rows), tuple(series), tuple(target), series == target
    )
