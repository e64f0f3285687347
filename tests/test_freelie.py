import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegrowth.errors import InputError, InvalidExponentError, ResourceGuardError
from liegrowth.freelie import (
    BLOCK_GUARD,
    FreeNAElement,
    GeneratorSet,
    TensorElement,
    _check_word_guard,
    basic_products,
    bracket,
    embed_tensor,
    hall_basis,
    lie_component,
    mobius,
    pbw_series_diagnostic,
    tensor_dim,
    tree_degree,
    tree_from_names,
    tree_sort_key,
    tree_to_names,
    tree_weight,
    witt,
    zeta,
)
from liegrowth.zpmod import RingSpec

F3 = RingSpec(3, 1)
F5 = RingSpec(5, 1)


def graded_gens(ring=F3):
    return GeneratorSet.build([("x", 2), ("y", 1)], ring)


def random_tree(rng, n, weight):
    if weight == 1:
        return rng.randrange(n)
    left = rng.randint(1, weight - 1)
    return (random_tree(rng, n, left), random_tree(rng, n, weight - left))


class TestMobius:
    def test_one(self):
        assert mobius(1) == 1

    def test_square_factor(self):
        assert mobius(12) == 0

    def test_two_primes(self):
        assert mobius(6) == 1

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            mobius(0)

    def test_first_values(self):
        assert [mobius(s) for s in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestWitt:
    def test_small_values(self):
        assert witt(2, 1) == 2
        assert witt(2, 3) == 2
        assert witt(2, 6) == 9
        assert witt(1, 2) == 0

    def test_table_used_downstream(self):
        assert [witt(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]

    def test_matches_the_full_divisor_sum(self):
        for n in range(1, 6):
            for k in range(1, 80):
                full = sum(mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0)
                assert witt(n, k) * k == full

    def test_always_integral(self):
        for n in range(1, 5):
            for k in range(1, 25):
                witt(n, k)  # raises AssertionError if division were inexact


class TestBasicProducts:
    def test_weight_two(self):
        prods = basic_products(2, 2)
        assert prods == ((0, 1),)

    def test_weight_three_count(self):
        assert len(basic_products(2, 3)) == 2

    def test_single_generator(self):
        assert basic_products(1, 2) == ()

    def test_counts_match_witt(self):
        for n in (2, 3):
            top = 12 if n == 2 else 8
            basis = hall_basis(n, top)
            for k in range(1, top + 1):
                assert len(basis.at_weight(k)) == witt(n, k)

    def test_deterministic_order(self):
        assert basic_products(2, 4) == basic_products(2, 4)

    def test_tree_guard_is_inclusive_and_counts_before_building(self, monkeypatch):
        from liegrowth import freelie

        # 8800 basic products on two generators to weight 16, 16510 to 17
        monkeypatch.setattr(freelie, "HALL_GUARD", 8800)
        basis = hall_basis(2, 16)
        assert sum(len(basis.at_weight(k)) for k in range(1, 17)) == 8800
        with pytest.raises(ResourceGuardError) as err:
            hall_basis(2, 17)
        assert str(err.value) == (
            "the basic products on 2 generators up to weight 17 number 16510 "
            "(max weight 17), above the guard of 8800; this guard has no override"
        )

    def test_weight_one_is_generators(self):
        assert basic_products(3, 1) == (0, 1, 2)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), top=st.integers(1, 8))
    def test_hall_conditions(self, n, top):
        basis = hall_basis(n, top)
        for k in range(1, top + 1):
            keys = [tree_sort_key(t) for t in basis.at_weight(k)]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            for tree in basis.at_weight(k) if k > 1 else ():
                u, v = tree
                assert tree_weight(tree) == k
                assert tree_sort_key(u) < tree_sort_key(v)
                if not isinstance(v, int):
                    assert tree_sort_key(v[0]) <= tree_sort_key(u)


class TestTrees:
    def test_weight_and_degree(self):
        gens = graded_gens()
        tree = (0, (1, 1))
        assert tree_weight(tree) == 3
        assert tree_degree(tree, gens) == 4

    def test_name_round_trip(self):
        gens = graded_gens()
        tree = (0, (0, 1))
        names = tree_to_names(tree, gens)
        assert names == ["x", ["x", "y"]]
        assert tree_from_names(names, gens) == tree
        assert tree_to_names(tree, gens.names) == names

    def test_sort_key_takes_weight_from_children(self):
        basis = hall_basis(2, 8)
        for k in range(1, 9):
            trees = basis.at_weight(k)
            assert sorted(trees, key=tree_sort_key) == list(trees)
            assert all(tree_sort_key(t)[0] == tree_weight(t) == k for t in trees)


class TestEmbedTensor:
    def test_even_odd_bracket(self):
        gens = graded_gens()
        x = FreeNAElement.generator(gens, "x")
        y = FreeNAElement.generator(gens, "y")
        image = embed_tensor(bracket(x, y))
        assert image.coefficient((0, 1)) == 1
        assert image.coefficient((1, 0)) == 2  # -1 mod 3

    def test_odd_square_doubles(self):
        gens = graded_gens()
        y = FreeNAElement.generator(gens, "y")
        image = embed_tensor(bracket(y, y))
        assert image.terms == (((1, 1), 2),)

    def test_even_square_vanishes(self):
        gens = graded_gens()
        x = FreeNAElement.generator(gens, "x")
        assert embed_tensor(bracket(x, x)).is_zero()

    def test_commutator_homomorphism_random(self):
        rng = random.Random(5)
        gens = graded_gens()
        for _ in range(300):
            wa = rng.randint(1, 3)
            wb = rng.randint(1, 3)
            a = FreeNAElement.from_tree(gens, random_tree(rng, 2, wa))
            b = FreeNAElement.from_tree(gens, random_tree(rng, 2, wb))
            ea, eb = embed_tensor(a), embed_tensor(b)
            sign = -1 if (a.degree % 2 and b.degree % 2) else 1
            expected = ea * eb + (eb * ea).scale(-sign)
            assert (embed_tensor(bracket(a, b)) + expected.scale(-1)).is_zero()

    def test_antisymmetry_and_jacobi_random(self):
        rng = random.Random(6)
        gens = graded_gens()
        for _ in range(300):
            a = FreeNAElement.from_tree(gens, random_tree(rng, 2, rng.randint(1, 2)))
            b = FreeNAElement.from_tree(gens, random_tree(rng, 2, rng.randint(1, 2)))
            c = FreeNAElement.from_tree(gens, random_tree(rng, 2, rng.randint(1, 2)))
            sign = -1 if (a.degree % 2 and b.degree % 2) else 1
            anti = bracket(a, b) + bracket(b, a).scale(sign)
            assert embed_tensor(anti).is_zero()
            jac = (
                bracket(a, bracket(b, c))
                + bracket(bracket(a, b), c).scale(-1)
                + bracket(b, bracket(a, c)).scale(-sign)
            )
            assert embed_tensor(jac).is_zero()

    def test_odd_cube_vanishes(self):
        gens = graded_gens()
        y = FreeNAElement.generator(gens, "y")
        assert embed_tensor(bracket(y, bracket(y, y))).is_zero()

    def test_homogeneity_enforced(self):
        gens = graded_gens()
        with pytest.raises(InputError):
            FreeNAElement(gens, ((0, 1), (1, 1)))  # x + y mixes degrees


class TestTensorElement:
    def test_words_sorted_and_reduced(self):
        gens = graded_gens()
        e = TensorElement(gens, (((1, 0), 4), ((0, 1), 1), ((1, 0), 2)))
        assert e.terms == (((0, 1), 1),)  # 4 + 2 = 6 = 0 mod 3

    def test_json_round_trip(self):
        gens = graded_gens()
        e = TensorElement.from_word(gens, (0, 1, 1), 2)
        data = e.to_json()
        assert data == [{"coeff": 2, "word": ["x", "y", "y"]}]
        assert TensorElement.from_json(gens, data) == e

    @pytest.mark.parametrize("coeff", [1.5, 2.0, "2"])
    def test_parse_rejects_a_non_integer_coefficient(self, coeff):
        with pytest.raises(InputError, match="coeff must be an integer"):
            TensorElement.from_json(graded_gens(), [{"coeff": coeff, "word": ["x"]}])

    def test_zeta_picks_weight(self):
        gens = graded_gens()
        e = TensorElement.from_word(gens, (0, 1)) + TensorElement.from_word(gens, (0,))
        assert zeta(e, 2).terms == (((0, 1), 1),)
        assert zeta(e, 1).terms == (((0,), 1),)
        assert zeta(e, 3).is_zero()

    def test_zeta_of_product_of_inhomogeneous_factors(self):
        # weight-k part of a k-fold product is the product of weight-1 parts,
        # and everything below weight k dies
        rng = random.Random(8)
        gens = graded_gens()
        for _ in range(200):
            k = rng.randint(2, 4)
            factors = []
            for _ in range(k):
                e = TensorElement.zero(gens)
                for _ in range(rng.randint(1, 3)):
                    w = rng.randint(1, 3)
                    word = tuple(rng.randrange(2) for _ in range(w))
                    e = e + TensorElement.from_word(gens, word, rng.randint(1, 2))
                factors.append(e)
            prod = factors[0]
            lead = zeta(factors[0], 1)
            for f in factors[1:]:
                prod = prod * f
                lead = lead * zeta(f, 1)
            assert (zeta(prod, k) + lead.scale(-1)).is_zero()
            for j in range(1, k):
                assert zeta(prod, j).is_zero()

    def test_tensor_dim(self):
        gens = graded_gens()
        assert tensor_dim(gens, 5) == 32
        with pytest.raises(InputError):
            tensor_dim(gens, 0)
        three = GeneratorSet.build([("a", 1), ("b", 1), ("c", 1)], F3)
        assert tensor_dim(three, 2) == 9


class TestLieComponent:
    def test_weight_one_is_generators(self):
        gens = graded_gens()
        dims, basis = lie_component(gens, 1, 1)
        assert dims.exponents_at(1) == (1,)
        assert dims.exponents_at(2) == (1,)
        assert len(basis) == 2

    def test_graded_pair_weights_two_three(self):
        gens = graded_gens()
        dims2, _ = lie_component(gens, 2, 1)
        assert dims2.total_rank() == 2
        assert dims2.exponents_at(3) == (1,)  # [x, y]
        assert dims2.exponents_at(2) == (1,)  # [y, y]
        dims3, _ = lie_component(gens, 3, 1)
        assert dims3.total_rank() == 2

    def test_ungraded_matches_witt(self):
        gens = GeneratorSet.build([("a", 2), ("b", 2)], F5)
        for k in range(1, 9):
            dims, _ = lie_component(gens, k, 1)
            assert dims.total_rank() == witt(2, k)

    def test_single_even_generator_degenerates(self):
        gens = GeneratorSet.build([("a", 2)], F3)
        for k in (2, 3, 4):
            dims, _ = lie_component(gens, k, 1)
            assert dims.is_zero()

    def test_basis_spans_all_bracketings(self):
        # random trees land inside the span of the returned basis
        import numpy as np

        from liegrowth import _fp

        rng = random.Random(9)
        gens = graded_gens()
        for k in (2, 3, 4):
            dims, basis = lie_component(gens, k, 1)
            by_degree = {}
            for e in basis:
                by_degree.setdefault(e.degree, []).append(e)
            for _ in range(40):
                elem = embed_tensor(FreeNAElement.from_tree(gens, random_tree(rng, 2, k)))
                if elem.is_zero():
                    continue
                rows = by_degree[elem.degree]
                words = sorted({w for r in rows for w, _ in r.terms} | {w for w, _ in elem.terms})
                idx = {w: i for i, w in enumerate(words)}
                mat = np.zeros((len(rows), len(words)), dtype=np.int64)
                for i, r in enumerate(rows):
                    for w, c in r.terms:
                        mat[i, idx[w]] = c
                vec = np.zeros(len(words), dtype=np.int64)
                for w, c in elem.terms:
                    vec[idx[w]] = c
                # vec lies in the row space iff appending it keeps the rank
                assert _fp.rank(np.vstack([mat, vec]), 3) == _fp.rank(mat, 3)

    def test_higher_coefficient_exponent(self):
        ring = RingSpec(3, 2)
        gens = GeneratorSet.build([("x", 2), ("y", 1)], ring)
        dims, basis = lie_component(gens, 2, 2)
        # [y, y] = 2*yy has a unit coefficient, so both summands are full Z/9
        assert dims.exponents_at(2) == (2,)
        assert dims.exponents_at(3) == (2,)
        assert all(e.gens.ring.s == 2 for e in basis)

    def test_exponent_validation(self):
        gens = graded_gens()
        with pytest.raises(InvalidExponentError):
            lie_component(gens, 2, 2)

    def test_resource_guard(self):
        gens = GeneratorSet.build([(f"g{i}", 1) for i in range(4)], F3)
        with pytest.raises(ResourceGuardError, match=r"4\^11 words exceed the guard "
                           f"of {2 ** 20}; this guard has no override"):
            lie_component(gens, 11, 1)  # 4^11 > 2^20

    def test_widest_block_guard(self):
        gens = GeneratorSet.build([("x", 1), ("y", 1)], F3)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=f"32768 words.* {BLOCK_GUARD}"):
            lie_component(gens, 15, 1)  # a single block of 2^15 words
        assert time.perf_counter() - start < 1
        _check_word_guard(gens, 14, 1)  # 2^14 words is the widest admitted
        mixed = GeneratorSet.build([("x", 2), ("y", 1)], F3)
        _check_word_guard(mixed, 16, 1)  # widest block C(16, 8) = 12870
        with pytest.raises(ResourceGuardError):
            _check_word_guard(mixed, 17, 1)  # C(17, 8) = 24310

    def test_block_guard_is_the_same_for_every_u(self):
        # over Z/9 the span basis builds no width x width transform, so the
        # u = 1 block bound holds unchanged
        gens = GeneratorSet.build([("x", 1), ("y", 1)], RingSpec(3, 2))
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=f"32768 words.* {BLOCK_GUARD}; "
                           "this guard has no override"):
            lie_component(gens, 15, 2)  # a single block of 2^15 words
        assert time.perf_counter() - start < 1
        _check_word_guard(gens, 14, 2)  # 2^14 words is the widest admitted
        mixed = GeneratorSet.build([("x", 2), ("y", 1)], RingSpec(3, 2))
        _check_word_guard(mixed, 16, 2)  # widest block C(16, 8) = 12870
        with pytest.raises(ResourceGuardError, match="24310 words"):
            _check_word_guard(mixed, 17, 2)  # C(17, 8) = 24310


class TestPBWDiagnostic:
    def test_ungraded_even_case_matches(self):
        gens = GeneratorSet.build([("a", 2), ("b", 2)], F5)
        report = pbw_series_diagnostic(gens, 6)
        assert all(r.matches_witt for r in report.rows)
        assert report.series_matches

    def test_mixed_parity_flags_mismatch(self):
        gens = graded_gens()
        report = pbw_series_diagnostic(gens, 2)
        row2 = report.rows[1]
        assert row2.total == 2
        assert row2.witt == 1
        assert not row2.matches_witt

    def test_single_even_generator(self):
        gens = GeneratorSet.build([("a", 2)], F3)
        report = pbw_series_diagnostic(gens, 4)
        assert [r.total for r in report.rows] == [1, 0, 0, 0]
        assert report.series_matches
