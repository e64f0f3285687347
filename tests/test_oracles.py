"""Cross-checks between independent computation routes.

These tests pit the production code paths against slower or structurally
different ways of getting the same numbers.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liegrowth import _fp
from liegrowth.difflie import (
    BigradedComplex,
    DifferentialSpec,
    _rank_data,
    acyclic_basis,
    differential_pair,
    differentiate,
    homology,
)
from liegrowth.errors import NotAcyclicError
from liegrowth.freelie import (
    FreeNAElement,
    GeneratorSet,
    TensorElement,
    _code_words,
    _derive,
    _span_blocks,
    _word_codes,
    basic_products,
    embed_tensor,
    lie_component,
    witt,
)
from liegrowth.zpmod import GradedModule, RingSpec, smith_normal_form_matrix


def all_bracketings(word):
    """Every full binary bracketing of the given letter sequence."""
    if len(word) == 1:
        return [word[0]]
    out = []
    for cut in range(1, len(word)):
        for left in all_bracketings(word[:cut]):
            for right in all_bracketings(word[cut:]):
                out.append((left, right))
    return out


def span_rank(gens, trees, p):
    by_degree = {}
    for tree in trees:
        elem = embed_tensor(FreeNAElement.from_tree(gens, tree))
        if elem.is_zero():
            continue
        by_degree.setdefault(elem.degree, []).append(elem)
    total = 0
    for elems in by_degree.values():
        words = sorted({w for e in elems for w, _ in e.terms})
        idx = {w: i for i, w in enumerate(words)}
        mat = np.zeros((len(elems), len(words)), dtype=np.int64)
        for i, e in enumerate(elems):
            for w, c in e.terms:
                mat[i, idx[w]] = c
        total += _fp.rank(mat, p)
    return total


class TestSpanGenerators:
    def test_right_normed_brackets_span_everything(self):
        # every bracketing is a combination of right-normed ones, so both
        # generating sets give the same per-weight rank
        for names, p in ((("x", 2), ("y", 1)), 3), ((("a", 2), ("b", 2)), 5):
            gens = GeneratorSet.build(list(names), RingSpec(p, 1))
            for k in range(2, 6):
                every_tree = []
                for word in itertools.product(range(2), repeat=k):
                    every_tree.extend(all_bracketings(word))
                full = span_rank(gens, every_tree, p)
                production = lie_component(gens, k, 1)[0].total_rank()
                assert full == production

    def test_basic_products_embed_independently(self):
        # the Witt-many basic products stay independent in the tensor model
        gens = GeneratorSet.build([("a", 2), ("b", 2)], RingSpec(5, 1))
        for k in range(2, 9):
            prods = basic_products(2, k)
            assert span_rank(gens, prods, 5) == len(prods) == witt(2, k)


class TestHomologyConsistency:
    def test_dims_match_complex_route(self):
        # the bigraded-complex construction re-derives the differential in
        # span coordinates; its block ranks must reproduce the report
        from liegrowth.difflie import bigraded_complex

        gens, spec = differential_pair(3, 2)
        weights = range(1, 8)
        cx = bigraded_complex(gens, spec, weights)
        for w in weights:
            report = homology(gens, spec, w)
            for row in report.rows:
                assert cx.rank_at(row.degree, w) == row.dim_total
                mat = cx.diff_at(row.degree, w)
                rank_out = (
                    _fp.rank(np.array(mat, dtype=np.int64), 3) if mat else 0
                )
                assert row.dim_cycles == row.dim_total - rank_out
                above = cx.diff_at(row.degree + 1, w)
                rank_in = (
                    _fp.rank(np.array(above, dtype=np.int64), 3) if above else 0
                )
                assert row.dim_boundaries == rank_in

    def test_euler_characteristic_matches(self):
        # alternating sums of L and H dimensions agree weight by weight
        gens, spec = differential_pair(3, 2)
        for w in range(1, 10):
            report = homology(gens, spec, w)
            chi_l = sum((-1) ** r.degree * r.dim_total for r in report.rows)
            chi_h = sum((-1) ** r.degree * r.dim_homology for r in report.rows)
            assert chi_l == chi_h


def conjugated_cone_complex(rng, p, weight, a, b, base_degree):
    """An exact three-level complex with the split structure hidden.

    Ranks (b, a + b, a) at degrees base, base+1, base+2; the differentials
    are the obvious inclusion/projection conjugated by random invertible
    matrices on each level.
    """
    q0 = random_invertible(rng, b, p)
    q1 = random_invertible(rng, a + b, p)
    q2 = random_invertible(rng, a, p)
    d2 = np.zeros((a + b, a), dtype=np.int64)
    d2[:a] = np.eye(a, dtype=np.int64)
    d1 = np.zeros((b, a + b), dtype=np.int64)
    d1[:, a:] = np.eye(b, dtype=np.int64)
    d2 = (q1 @ d2 @ inverse_mod(q2, p)) % p
    d1 = (q0 @ d1 @ inverse_mod(q1, p)) % p
    ranks = (
        ((base_degree, weight), b),
        ((base_degree + 1, weight), a + b),
        ((base_degree + 2, weight), a),
    )
    diffs = (
        ((base_degree + 1, weight), tuple(map(tuple, d1.tolist()))),
        ((base_degree + 2, weight), tuple(map(tuple, d2.tolist()))),
    )
    return BigradedComplex(p, ranks, diffs)


def random_invertible(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if python_rank(m, p) == n:
            return np.array(m, dtype=np.int64)


def inverse_mod(m, p):
    n = len(m)
    rows, piv = _fp.rref(np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1), p)
    assert piv == list(range(n))
    return rows[:, n:]


@st.composite
def split_complexes(draw):
    """A random complex over F_p, p in {2, 3, 5}, with one to three weights.

    Each weight is a sum of pairs (a basis vector at degree deg sent to one
    at deg - 1) and, unless the draw is exact, of lone cycles, on degrees
    0..6, so blocks with absent degrees between them are common.  Every
    block's basis is then changed by a random invertible matrix.  A zero
    differential is given as an explicit zero matrix or left out, and a
    rank-0 block is sometimes listed.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    exact = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ranks, diffs = [], []
    for w in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)):
        tops = draw(st.lists(st.integers(1, 6), max_size=4))
        singles = [] if exact else draw(st.lists(st.integers(0, 6), max_size=2))
        labels = {}
        for i, deg in enumerate(tops):
            labels.setdefault(deg, []).append(("top", i))
            labels.setdefault(deg - 1, []).append(("bottom", i))
        for deg in singles:
            labels.setdefault(deg, []).append(("single", deg))
        change = {}
        for deg, block in sorted(labels.items()):
            rng.shuffle(block)
            ranks.append(((deg, w), len(block)))
            change[deg] = random_invertible(rng, len(block), p)
        for deg in sorted(labels):
            if deg - 1 not in labels:
                continue
            split = np.zeros((len(labels[deg - 1]), len(labels[deg])), dtype=np.int64)
            for j, (kind, i) in enumerate(labels[deg]):
                if kind == "top":
                    split[labels[deg - 1].index(("bottom", i)), j] = 1
            if split.any() or draw(st.booleans()):
                mat = change[deg - 1] @ split @ inverse_mod(change[deg], p) % p
                diffs.append(((deg, w), tuple(map(tuple, mat.tolist()))))
        if draw(st.booleans()):
            ranks.append(((7, w), 0))
    return BigradedComplex(p, tuple(ranks), tuple(diffs))


def homology_spots(cx):
    """(weight, degree) of every block with r - rank d_deg - rank d_{deg+1}
    nonzero, in the order acyclic_basis walks them."""

    def rank_of(deg, w):
        mat = cx.diff_at(deg, w)
        return python_rank([list(r) for r in mat], cx.p) if mat else 0

    return [
        (w, deg)
        for w in cx.weights()
        for deg in sorted(d for (d, wt), r in cx.ranks if wt == w and r)
        if cx.rank_at(deg, w) - rank_of(deg, w) - rank_of(deg + 1, w)
    ]


class TestAcyclicBasisOnRandomComplexes:
    def test_random_exact_complexes_pair_up(self):
        rng = random.Random(31)
        for trial in range(40):
            p = rng.choice((3, 5))
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            base = rng.randint(0, 3)
            cx = conjugated_cone_complex(rng, p, rng.randint(1, 4), a, b, base)
            basis = acyclic_basis(cx)
            pairs = basis.all_pairs()
            assert 2 * len(pairs) == sum(r for _, r in cx.ranks)
            for top, bottom in pairs:
                (deg, w), coords = top
                mat = np.array(cx.diff_at(deg, w), dtype=np.int64)
                image = mat @ np.array(coords, dtype=np.int64)
                assert [int(x) % p for x in image] == list(bottom[1])
            # parity sorting honoured
            for top, _ in basis.even_pairs:
                assert top[0][0] % 2 == 0
            for top, _ in basis.odd_pairs:
                assert top[0][0] % 2 == 1

    @settings(max_examples=200, deadline=None)
    @given(cx=split_complexes())
    def test_refuses_exactly_at_the_first_homology(self, cx):
        spots = homology_spots(cx)
        if spots:
            w, deg = spots[0]
            with pytest.raises(NotAcyclicError) as err:
                acyclic_basis(cx)
            assert err.value.spot == (deg, w)
            assert str(err.value) == f"nonzero homology at degree {deg}, weight {w}"
            return
        basis = acyclic_basis(cx)
        pairs = basis.all_pairs()
        assert 2 * len(pairs) == sum(r for _, r in cx.ranks)
        for top, bottom in pairs:
            (deg, w), coords = top
            assert bottom[0] == (deg - 1, w)
            mat = cx.diff_at(deg, w)
            image = [sum(a * x for a, x in zip(row, coords)) % cx.p for row in mat]
            assert image == list(bottom[1])
        assert all(top[0][0] % 2 == 0 for top, _ in basis.even_pairs)
        assert all(top[0][0] % 2 == 1 for top, _ in basis.odd_pairs)


# ---------------------------------------------------------------------------
# The word-code kernel against the embed_tensor / differentiate reference


def right_normed(word):
    tree = word[-1]
    for c in reversed(word[:-1]):
        tree = (c, tree)
    return tree


def reference_generator_rows(gens, k):
    """Words per degree, and the rows of every nonzero right-normed bracket
    [w_0, [w_1, ...]] per degree in word order, built with embed_tensor."""
    words = {}
    for word in itertools.product(range(gens.n), repeat=k):
        words.setdefault(sum(gens.degrees[i] for i in word), []).append(word)
    rows = {}
    for word in itertools.product(range(gens.n), repeat=k):
        elem = embed_tensor(FreeNAElement.from_tree(gens, right_normed(word)))
        if elem.is_zero():
            continue
        idx = {w: i for i, w in enumerate(words[elem.degree])}
        row = [0] * len(idx)
        for w, c in elem.terms:
            row[idx[w]] = c
        rows.setdefault(elem.degree, []).append(row)
    return words, rows


@st.composite
def generator_sets(draw, max_s=1, min_s=1):
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(min_s, max_s))
    k = draw(st.integers(1, 6))
    names = [f"g{i}" for i in range(len(degrees))]
    return GeneratorSet.build(list(zip(names, degrees)), RingSpec(p, s)), k


@st.composite
def differentials(draw, min_s=1):
    gens, k = draw(generator_sets(max_s=2, min_s=min_s))
    images = []
    for i, deg in enumerate(gens.degrees):
        below = [j for j in range(gens.n) if gens.degrees[j] == deg - 1]
        coeffs = [draw(st.integers(0, gens.ring.modulus - 1)) for _ in below]
        images.append(dict(zip(below, coeffs)))
    # a generator hit by some image maps to zero, which makes d*d = 0
    for j in {j for img in images for j, c in img.items() if c}:
        images[j] = {}
    spec = DifferentialSpec(gens, tuple(
        FreeNAElement(gens, tuple(img.items())) for img in images
    ))
    return gens, spec, k


def rows_by_degree(basis, words):
    """Coordinate rows of TensorElements over the per-degree word lists."""
    out = {}
    for elem in basis:
        coeffs = dict(elem.terms)
        out.setdefault(elem.degree, []).append(
            [coeffs.get(w, 0) for w in words[elem.degree]]
        )
    return out


def smith_exponents(rows, ring):
    """Exponents of the submodule of (Z/p^s)^n spanned by ``rows``, descending."""
    vals = smith_normal_form_matrix(rows, ring)[4]
    return [ring.s - v for v in vals if v < ring.s]


def largest_case(p, s):
    gens = GeneratorSet.build([("a", 1), ("b", 2), ("c", 3)], RingSpec(p, s))
    return gens, 6


class TestWordCodeKernel:
    @settings(max_examples=60, deadline=None)
    @given(generator_sets())
    @example(largest_case(2, 1))
    def test_span_blocks_match_embed_tensor(self, case):
        gens, k = case
        p = gens.ring.p
        words, rows = reference_generator_rows(gens, k)
        blocks = _span_blocks(gens, k, 1)
        assert sorted(blocks) == sorted(words)
        for deg, (codes, _, basis, pivots) in blocks.items():
            assert _code_words(codes, gens.n, k) == words[deg]
            if deg in rows:
                ref, ref_pivots = _fp.rref(np.array(rows[deg]), p)
            else:
                ref, ref_pivots = np.zeros((0, len(words[deg]))), []
            assert basis.tolist() == ref.tolist()
            assert pivots == tuple(ref_pivots)

    @settings(max_examples=40, deadline=None)
    @given(generator_sets(max_s=3, min_s=2))
    @example(largest_case(3, 2))
    def test_lie_component_spans_reference_submodule(self, case):
        # over Z/p^u the ad-recursion and the n^k right-normed brackets
        # generate the same submodule: equal exponents, and stacking both
        # bases changes none of them
        gens, k = case
        words, _ = reference_generator_rows(gens, k)
        for u in range(2, gens.ring.s + 1):
            ring_u = RingSpec(gens.ring.p, u)
            dims, basis = lie_component(gens, k, u)
            ref_dims, ref_basis = reference_lie_component(gens, k, u)
            assert dims == ref_dims
            got, ref = rows_by_degree(basis, words), rows_by_degree(ref_basis, words)
            assert sorted(got) == sorted(ref)
            for deg, rows in got.items():
                exps = smith_exponents(rows, ring_u)
                assert exps == list(dims.exponents_at(deg))
                assert smith_exponents(rows + ref[deg], ring_u) == exps

    @settings(max_examples=60, deadline=None)
    @given(differentials(), st.randoms(use_true_random=False))
    def test_derivation_scatter_matches_differentiate(self, case, rng):
        gens, spec, k = case
        modulus = gens.ring.modulus
        blocks = _word_codes(gens.degrees, k)[0]
        for deg, codes in blocks.items():
            words = _code_words(codes, gens.n, k)
            rows = [[rng.randrange(modulus) for _ in words] for _ in range(3)]
            got = _derive(gens, spec.images, k, deg, rows, modulus)
            target = _code_words(blocks.get(deg - 1, codes[:0]), gens.n, k)
            for row, image in zip(rows, got.tolist()):
                elem = TensorElement(gens, tuple(zip(words, row)))
                ref = differentiate(elem, spec)
                assert ref.is_zero() or ref.degree == deg - 1
                assert image == [ref.coefficient(w) for w in target]

    @settings(max_examples=40, deadline=None)
    @given(differentials(min_s=2))
    def test_homology_u2_matches_transpose_kernel(self, case):
        gens, spec, k = case
        report = homology(gens, spec, k, 2)
        cycles, boundaries = reference_homology_decompositions(gens, spec, k, 2)
        assert report.cycle_decomposition == cycles
        assert report.boundary_decomposition == boundaries


# ---------------------------------------------------------------------------
# Primes whose squares overflow int64

BIG_P = 4294967311  # the least prime above 2^32


def python_rank(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_lie_component(gens, k, u):
    """lie_component through embed_tensor rows and a Smith form."""
    p = gens.ring.p
    ring_u = RingSpec(p, u)
    out_gens = GeneratorSet(gens.names, gens.degrees, ring_u)
    words, rows = reference_generator_rows(gens, k)
    comps, basis = {}, []
    for deg in sorted(rows):
        mat = [[x % ring_u.modulus for x in r] for r in rows[deg]]
        _, _, _, vinv, vals = smith_normal_form_matrix(mat, ring_u)
        exps = []
        for pos, v in enumerate(vals):
            if v >= u:
                break
            exps.append(u - v)
            basis.append(TensorElement(out_gens, tuple(
                (w, p ** v * x) for w, x in zip(words[deg], vinv[pos])
            )))
        if exps:
            comps[deg] = tuple(exps)
    return GradedModule.from_dict(ring_u, comps), basis


def reference_homology_decompositions(gens, spec, k, u):
    """Cycles and boundaries over Z/p^u from the reference basis and
    differentiate, with the kernel read off a second Smith form of the
    transposed image matrix."""
    ring_u = RingSpec(gens.ring.p, u)
    p, modulus = ring_u.p, ring_u.modulus
    words, _ = reference_generator_rows(gens, k)
    _, basis = reference_lie_component(gens, k, u)
    cycle_comps, boundary_comps = {}, {}
    for deg, elems in sorted(rows_by_degree(basis, words).items()):
        images = []
        for row in elems:
            elem = TensorElement(gens, tuple(zip(words[deg], row)))
            ref = differentiate(elem, spec)
            images.append([ref.coefficient(w) % modulus for w in words.get(deg - 1, [])])
        img_cols = np.array(images, dtype=np.int64).reshape(len(elems), -1)
        img_cols = img_cols[:, (img_cols != 0).any(axis=0)]
        n_basis = len(elems)
        if img_cols.shape[1]:
            _, _, _, _, vals = smith_normal_form_matrix(img_cols.tolist(), ring_u)
            b_exps = tuple(u - v for v in vals if v < u)
            if b_exps:
                boundary_comps[deg - 1] = tuple(
                    sorted(boundary_comps.get(deg - 1, ()) + b_exps, reverse=True)
                )
            # columns of M are the images d(basis_j): solve M c = 0
            _, _, v, _, vals = smith_normal_form_matrix(img_cols.T.tolist(), ring_u)
            kernel_coeffs = []
            for pos in range(n_basis):
                if pos < len(vals):
                    if vals[pos] == 0:
                        continue
                    scale = p ** (u - vals[pos]) if vals[pos] < u else 1
                else:
                    scale = 1
                coeffs = [scale * v[j][pos] % modulus for j in range(n_basis)]
                if any(coeffs):
                    kernel_coeffs.append(coeffs)
        else:
            kernel_coeffs = [
                [1 if i == j else 0 for j in range(n_basis)] for i in range(n_basis)
            ]
        vec_rows = [
            [sum(c * e[w] for c, e in zip(coeffs, elems)) % modulus
             for w in range(len(words[deg]))]
            for coeffs in kernel_coeffs
        ]
        if any(any(r) for r in vec_rows):
            _, _, _, _, vals = smith_normal_form_matrix(vec_rows, ring_u)
            z_exps = tuple(u - v for v in vals if v < u)
            if z_exps:
                cycle_comps[deg] = z_exps
    return (GradedModule.from_dict(ring_u, cycle_comps),
            GradedModule.from_dict(ring_u, boundary_comps))


class TestLargePrimes:
    def test_dtype_rule_boundary(self):
        assert _fp.int_dtype(3037000499) is np.int64
        assert _fp.int_dtype(3037000500) is object
        assert _fp.int_dtype(3, 2 ** 60) is object  # 9 * 2^60 > 2^63

    def test_rank_matches_python_rref(self):
        rng = random.Random(5)
        for _ in range(50):
            mat = [[rng.randrange(BIG_P) for _ in range(4)] for _ in range(4)]
            mat[3] = [(a + 7 * b) % BIG_P for a, b in zip(mat[0], mat[1])]
            assert _fp.rank(mat, BIG_P) == python_rank(mat, BIG_P) == 3
        for _ in range(50):
            mat = [[rng.randrange(BIG_P) for _ in range(4)] for _ in range(4)]
            assert _fp.rank(mat, BIG_P) == python_rank(mat, BIG_P)

    def test_rref_leaves_input_unchanged(self):
        rng = random.Random(11)
        for p, dtype in ((3, np.int64), (2 ** 61 - 1, object)):
            mat = np.array(
                [[rng.randrange(-2 * p, 2 * p) for _ in range(6)] for _ in range(5)],
                dtype=dtype,
            )
            before = mat.copy()
            _, pivots = _fp.rref(mat, p)
            assert len(pivots) == 5
            assert mat.dtype == before.dtype and np.array_equal(mat, before)

    def test_lie_component_u2_matches_reference(self):
        # BIG_P runs on Python ints; at p = 2 not every exponent is u
        for p, u in ((BIG_P, 2), (2, 3), (3, 3)):
            gens = GeneratorSet.build([("x", 2), ("y", 1)], RingSpec(p, u))
            for k in range(1, 6):
                dims, basis = lie_component(gens, k, u)
                ref_dims, ref_basis = reference_lie_component(gens, k, u)
                assert dims == ref_dims
                assert [b.terms for b in basis] == [b.terms for b in ref_basis]

    def test_homology_at_large_prime(self):
        # above the weight, the answer no longer depends on p; 1000003 runs
        # through int64 and BIG_P through Python ints
        gens, spec = differential_pair(BIG_P, 2)
        small_gens, small_spec = differential_pair(1000003, 2)
        for k in range(1, 7):
            assert (homology(gens, spec, k).rows
                    == homology(small_gens, small_spec, k).rows)

    def test_complex_reduces_entries_before_dd(self):
        # 3 * 2^62 wraps in int64 to -2^62, which is nonzero mod 3
        ranks = (((0, 1), 1), ((1, 1), 1), ((2, 1), 1))
        diffs = (((1, 1), ((3,),)), ((2, 1), ((2 ** 62,),)))
        cx = BigradedComplex(3, ranks, diffs)
        assert cx.diff_at(2, 1) == ((2 ** 62,),)


class TestReadOnlyCaches:
    def test_cached_arrays_refuse_writes(self):
        gens = GeneratorSet.build([("x", 2), ("y", 1)], RingSpec(3, 1))
        blocks, index = _word_codes(gens.degrees, 3)
        codes, _, rows, _ = _span_blocks(gens, 3, 1)[5]
        for array in (index, blocks[5], codes, rows):
            assert len(array)
            with pytest.raises(ValueError):
                array[0] = 1


def reference_rref(matrix, p):
    """The int64 elimination _fp.rref ran before its int16 kernel: a
    nonzero search per column, and row operations over whole rows."""
    m = np.asarray(matrix).astype(np.int64) % p
    m = m.reshape(1, -1) if m.ndim == 1 else m
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit] = (m[hit] - np.outer(m[hit, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


class TestRrefKernel:
    def test_int16_up_to_181(self):
        assert _fp.int_dtype(181, narrow=True) is np.int16
        assert _fp.int_dtype(191, narrow=True) is np.int64
        assert _fp.int_dtype(181) is np.int64

    # 181 is the last prime eliminated in int16, 191 takes int64
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 181, 191])
    @settings(max_examples=40, deadline=None)
    @given(
        nrows=st.integers(0, 9),
        ncols=st.integers(0, 400),
        density=st.sampled_from([0.02, 0.3, 1.0]),
        seed=st.integers(0, 2 ** 32 - 1),
        zero_runs=st.lists(st.tuples(st.integers(0, 399), st.integers(1, 300)), max_size=3),
        dependent=st.booleans(),
    )
    def test_matches_int64_reference(self, p, nrows, ncols, density, seed, zero_runs,
                                     dependent):
        rng = np.random.default_rng(seed)
        mat = rng.integers(-2 * p, 2 * p, size=(nrows, ncols))
        mat *= rng.random((nrows, ncols)) < density
        for start, length in zero_runs:
            mat[:, start:start + length] = 0
        if dependent and nrows > 2:
            mat[-1] = 2 * mat[0] - mat[1]
        before = mat.copy()
        rows, pivots = _fp.rref(mat, p)
        ref_rows, ref_pivots = reference_rref(mat, p)
        assert pivots == ref_pivots
        assert rows.dtype == ref_rows.dtype == np.int64
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(mat, before)


class TestRankData:
    @pytest.mark.parametrize("p, deg_x", [(2, 2), (3, 2), (3, 3), (5, 2)])
    def test_span_coordinates_give_the_full_width_rank(self, p, deg_x):
        gens, spec = differential_pair(p, deg_x)
        for k in range(1, 9):
            blocks = _span_blocks(gens, k, 1)
            dims, ranks = _rank_data(gens, spec, k)
            for deg in dims:
                if deg - 1 not in blocks:
                    assert ranks[deg] == 0
                    continue
                images = _derive(gens, spec.images, k, deg, blocks[deg][2], p)
                assert ranks[deg] == _fp.rank(images, p)
                pivots = blocks[deg - 1][3]
                assert np.array_equal(
                    _derive(gens, spec.images, k, deg, blocks[deg][2], p, pivots),
                    images[:, list(pivots)],
                )
