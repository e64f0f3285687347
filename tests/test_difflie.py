import random
import time
from fractions import Fraction

import pytest

from liegrowth import difflie
from liegrowth.difflie import (
    BigradedComplex,
    DifferentialSpec,
    acyclic_basis,
    bigraded_complex,
    boundary_growth,
    check_weight_inequalities,
    differential_pair,
    differentiate,
    homology,
    sigma,
    tau,
    weighted_dim,
)
from liegrowth.errors import (
    InputError,
    NotAcyclicError,
    ParityError,
    PreconditionError,
    ResourceGuardError,
    UnsupportedInputError,
)
from liegrowth.freelie import (
    FreeNAElement,
    GeneratorSet,
    bracket,
    embed_tensor,
)
from liegrowth.zpmod import RingSpec


def random_tree(rng, n, weight):
    if weight == 1:
        return rng.randrange(n)
    left = rng.randint(1, weight - 1)
    return (random_tree(rng, n, left), random_tree(rng, n, weight - left))


@pytest.fixture(scope="module")
def pair3():
    return differential_pair(3, 2)


@pytest.fixture(scope="module")
def pair5():
    return differential_pair(5, 2)


class TestDifferentialSpec:
    def test_standard_pair(self, pair3):
        gens, spec = pair3
        assert gens.names == ("x", "y")
        assert spec.images[0].terms == ((1, 1),)
        assert spec.images[1].is_zero()

    def test_rejects_degree_jump(self):
        ring = RingSpec(3, 1)
        gens = GeneratorSet.build([("x", 3), ("y", 1)], ring)
        with pytest.raises(InputError):
            DifferentialSpec(
                gens, (FreeNAElement.generator(gens, "y"), FreeNAElement.zero(gens))
            )

    def test_rejects_non_square_zero(self):
        ring = RingSpec(3, 1)
        gens = GeneratorSet.build([("a", 3), ("b", 2), ("c", 1)], ring)
        # d(a) = b, d(b) = c, d(c) = 0 has d(d(a)) = c != 0
        with pytest.raises(InputError):
            DifferentialSpec(
                gens,
                (
                    FreeNAElement.generator(gens, "b"),
                    FreeNAElement.generator(gens, "c"),
                    FreeNAElement.zero(gens),
                ),
            )


class TestDifferentiate:
    def test_leibniz_on_bracket(self, pair3):
        gens, spec = pair3
        x = FreeNAElement.generator(gens, "x")
        y = FreeNAElement.generator(gens, "y")
        d_xy = differentiate(bracket(x, y), spec)
        assert d_xy.terms == (((1, 1), 1),)  # [y, y]

    def test_square_zero_on_generators(self, pair3):
        gens, spec = pair3
        y = FreeNAElement.generator(gens, "y")
        assert differentiate(y, spec).is_zero()

    def test_square_zero_random_trees(self, pair3):
        gens, spec = pair3
        rng = random.Random(3)
        for _ in range(1000):
            w = rng.randint(1, 8)
            elem = FreeNAElement.from_tree(gens, random_tree(rng, 2, w))
            once = differentiate(elem, spec)
            assert differentiate(once, spec).is_zero()
            if not once.is_zero():
                assert once.weight == w
                assert once.degree == elem.degree - 1

    def test_commutes_with_embedding(self, pair3):
        gens, spec = pair3
        rng = random.Random(4)
        for _ in range(1000):
            w = rng.randint(1, 8)
            elem = FreeNAElement.from_tree(gens, random_tree(rng, 2, w))
            lhs = embed_tensor(differentiate(elem, spec))
            rhs = differentiate(embed_tensor(elem), spec)
            assert (lhs + rhs.scale(-1)).is_zero()

    def test_word_rule_signs(self, pair3):
        gens, spec = pair3
        from liegrowth.freelie import TensorElement

        # d(x x) = y x + x y ; no sign because deg(x) is even
        xx = TensorElement.from_word(gens, (0, 0))
        assert differentiate(xx, spec).terms == (((0, 1), 1), ((1, 0), 1))
        # d(y x) = -y y picks up the Koszul sign passing over y
        yx = TensorElement.from_word(gens, (1, 0))
        assert differentiate(yx, spec).terms == (((1, 1), 2),)


class TestCycles:
    def test_tau_shape(self, pair3):
        gens, spec = pair3
        x = FreeNAElement.generator(gens, "x")
        t1 = tau(x, spec, 1)
        assert t1.terms == (((0, (0, 1)), 1),)  # [x, [x, y]]
        assert t1.degree == 5
        assert t1.weight == 3

    def test_tau_degree_formula(self, pair5):
        gens, spec = pair5
        x = FreeNAElement.generator(gens, "x")
        t1 = tau(x, spec, 1)
        assert t1.degree == 5 * 2 - 1
        assert t1.weight == 5

    def test_parity_guard(self, pair3):
        gens, spec = pair3
        y = FreeNAElement.generator(gens, "y")
        with pytest.raises(ParityError):
            tau(y, spec, 1)
        with pytest.raises(ParityError):
            sigma(y, spec, 1)

    def test_tau_boundary_expansion_by_hand(self, pair3):
        # d(tau_1) = [y, [x, y]] + [x, [y, y]] formally, and the two terms
        # agree in the tensor model: [x,[y,y]] = 2[y,[x,y]] there, so the
        # sum is 3[y,[x,y]] = 0 mod 3
        gens, spec = pair3
        x = FreeNAElement.generator(gens, "x")
        y = FreeNAElement.generator(gens, "y")
        formal = differentiate(tau(x, spec, 1), spec)
        expected = bracket(y, bracket(x, y)) + bracket(x, bracket(y, y))
        assert formal.terms == expected.terms
        lhs = embed_tensor(bracket(x, bracket(y, y)))
        rhs = embed_tensor(bracket(y, bracket(x, y))).scale(2)
        assert (lhs + rhs.scale(-1)).is_zero()
        assert embed_tensor(bracket(y, bracket(y, y))).is_zero()

    def test_sigma_reduces_to_single_bracket_mod_3(self, pair3):
        gens, spec = pair3
        x = FreeNAElement.generator(gens, "x")
        y = FreeNAElement.generator(gens, "y")
        s1 = sigma(x, spec, 1)
        assert s1.degree == 4 and s1.weight == 3
        target = embed_tensor(bracket(y, bracket(x, y)))
        assert (embed_tensor(s1) + target.scale(-1)).is_zero()

    def test_cycles_vanish_under_d(self, pair3, pair5):
        for (gens, spec), ks in ((pair3, (1, 2)), (pair5, (1,))):
            x = FreeNAElement.generator(gens, "x")
            for k in ks:
                for elem in (tau(x, spec, k), sigma(x, spec, k)):
                    assert embed_tensor(differentiate(elem, spec)).is_zero()

    def test_d_commutes_with_embedding_on_cycles(self):
        # the CLI checks d(embed(c)) instead of embed(d(c))
        for p, k in ((3, 1), (3, 2), (5, 1), (7, 1)):
            gens, spec = differential_pair(p, 2)
            x = FreeNAElement.generator(gens, "x")
            for elem in (tau(x, spec, k), sigma(x, spec, k)):
                assert (differentiate(embed_tensor(elem), spec)
                        == embed_tensor(differentiate(elem, spec)))

    def test_size_bound(self, monkeypatch):
        # w = p^k wt(x) is refused when w C(w, 2) > WORD_GUARD, i.e. w > 128,
        # at every prime and before any bracket is formed
        for p, k in ((7, 1), (3, 3)):
            gens, spec = differential_pair(p, 2)
            x = FreeNAElement.generator(gens, "x")
            for elem in (tau(x, spec, k), sigma(x, spec, k)):
                assert differentiate(embed_tensor(elem), spec).is_zero()

        def no_work(*args):
            raise AssertionError("work before the bound")

        monkeypatch.setattr(difflie, "differentiate", no_work)
        monkeypatch.setattr(difflie, "bracket", no_work)
        for p, k, w, size in ((3, 5, 243, 7144929), (131, 1, 131, 1115465)):
            gens, spec = differential_pair(p, 2)
            x = FreeNAElement.generator(gens, "x")
            for cycle in (tau, sigma):
                with pytest.raises(ResourceGuardError) as exc:
                    cycle(x, spec, k)
                msg = str(exc.value)
                assert f">= {w}" in msg and f"= {size} exceeds the guard of 1048576" in msg
                assert "no override" in msg

    def test_k_is_checked_at_the_boundary(self, pair3):
        gens, spec = pair3
        x = FreeNAElement.generator(gens, "x")
        for cycle in (tau, sigma):
            for k in (0, -1):
                with pytest.raises(InputError, match="k must be at least 1"):
                    cycle(x, spec, k)
            start = time.perf_counter()
            with pytest.raises(ResourceGuardError):
                cycle(x, spec, 10 ** 8)  # p ** k itself would not finish
            assert time.perf_counter() - start < 1

    def test_sigma_rejects_p2(self):
        gens, spec = differential_pair(2, 2)
        x = FreeNAElement.generator(gens, "x")
        with pytest.raises(UnsupportedInputError):
            sigma(x, spec, 1)


class TestHomology:
    def test_weight_two_vanishes(self, pair3):
        gens, spec = pair3
        assert homology(gens, spec, 2).total_homology() == 0

    def test_weight_three_two_classes(self, pair3):
        gens, spec = pair3
        report = homology(gens, spec, 3)
        assert report.total_homology() == 2
        assert report.dims_by_degree("H") == {4: 1, 5: 1}

    def test_vanishes_away_from_multiples_of_p(self, pair3, pair5):
        gens3, spec3 = pair3
        for w in (2, 4, 5, 7, 8):
            assert homology(gens3, spec3, w).total_homology() == 0
        gens5, spec5 = pair5
        for w in (2, 3, 4):
            assert homology(gens5, spec5, w).total_homology() == 0

    def test_weight_six_vanishes(self, pair3):
        # p | 6 but there is no even-degree acyclic-pair generator of weight 2
        gens, spec = pair3
        assert homology(gens, spec, 6).total_homology() == 0

    def test_weight_five_at_p5(self, pair5):
        gens, spec = pair5
        report = homology(gens, spec, 5)
        assert report.total_homology() == 2
        assert report.dims_by_degree("H") == {8: 1, 9: 1}

    def test_tau_sigma_classes_independent(self, pair3):
        # the two weight-3 classes are nonzero in homology: each sits in a
        # degree where cycles have dimension 1 and boundaries dimension 0
        gens, spec = pair3
        report = homology(gens, spec, 3)
        by_degree = {r.degree: r for r in report.rows}
        x = FreeNAElement.generator(gens, "x")
        for elem in (tau(x, spec, 1), sigma(x, spec, 1)):
            row = by_degree[elem.degree]
            assert row.dim_boundaries == 0
            assert row.dim_cycles == 1
            assert not embed_tensor(elem).is_zero()

    def test_json_shape(self, pair3):
        gens, spec = pair3
        data = homology(gens, spec, 3).to_json_dict()
        assert data["weight"] == 3
        assert data["H"] == {"4": 1, "5": 1}

    def test_json_of_an_empty_weight(self):
        # [x, x] = 0 for an even x, so weight 2 has no rows over F_3
        gens = GeneratorSet.build([("x", 2)], RingSpec(3, 1))
        spec = DifferentialSpec(gens, (FreeNAElement.zero(gens),))
        data = homology(gens, spec, 2).to_json_dict()
        assert data == {"weight": 2, "Z": {}, "B": {}, "H": {}}

    def test_decompositions_at_higher_exponent(self):
        gens, spec = differential_pair(3, 2, r=2)
        report = homology(gens, spec, 2, u=2)
        # d: span(deg 3) -> span(deg 2) sends [x,y] to [y,y], a unit times yy
        assert report.boundary_decomposition.exponents_at(2) == (2,)
        # cycles: [y,y] at degree 2 (all of it), nothing at degree 3
        assert report.cycle_decomposition.exponents_at(2) == (2,)
        assert report.cycle_decomposition.exponents_at(3) == ()

    def test_weight_three_decompositions_over_z9(self):
        # hand computation: the degree-5 span is one Z/9 generated by the
        # iterated bracket b = [x,[x,y]], and d(b) lands on 3 times a
        # generator of the degree-4 span, so cycles there are 3*Z/9 = Z/3,
        # boundaries below are Z/3, and the whole degree-4 span is cycles
        gens, spec = differential_pair(3, 2, r=2)
        report = homology(gens, spec, 3, u=2)
        assert report.cycle_decomposition.components == ((4, (2,)), (5, (1,)))
        assert report.boundary_decomposition.components == ((4, (1,)),)


class TestAcyclicBasis:
    def test_weight_two_pairs_up(self, pair3):
        gens, spec = pair3
        cx = bigraded_complex(gens, spec, [2])
        basis = acyclic_basis(cx)
        assert len(basis.even_pairs) == 0
        assert len(basis.odd_pairs) == 1
        (top, bottom) = basis.odd_pairs[0]
        assert top[0] == (3, 2) and bottom[0] == (2, 2)

    def test_pairs_satisfy_d(self, pair3):
        import numpy as np

        gens, spec = pair3
        weights = [1, 2, 4, 5]
        cx = bigraded_complex(gens, spec, weights)
        basis = acyclic_basis(cx)
        for top, bottom in basis.all_pairs():
            (deg, w), coords = top
            mat = cx.diff_at(deg, w)
            image = np.array(mat, dtype=np.int64) @ np.array(coords, dtype=np.int64)
            assert [int(x) % 3 for x in image] == list(bottom[1])

    def test_reconstructs_dimensions(self, pair3):
        gens, spec = pair3
        cx = bigraded_complex(gens, spec, [2, 4])
        basis = acyclic_basis(cx)
        total_rank = sum(r for _, r in cx.ranks)
        assert 2 * len(basis.all_pairs()) == total_rank

    def test_rejects_inexact_weight(self, pair3):
        gens, spec = pair3
        cx = bigraded_complex(gens, spec, [3])
        with pytest.raises(NotAcyclicError) as err:
            acyclic_basis(cx)
        assert err.value.spot[1] == 3

    def test_zero_complex(self):
        basis = acyclic_basis(BigradedComplex(3, (), ()))
        assert basis.all_pairs() == ()

    def test_unliftable_target_names_its_degree(self):
        # both vectors of the degree-1 block are cycles and d from degree 2
        # hits exactly one of them, first or second: the homology sits at
        # degree 1, although the counts at degree 2 disagree too
        for image in (((1,), (0,)), ((0,), (1,))):
            cx = BigradedComplex(3, (((1, 2), 2), ((2, 2), 1)), (((2, 2), image),))
            with pytest.raises(NotAcyclicError) as err:
                acyclic_basis(cx)
            assert err.value.spot == (1, 2)

    def test_degree_gap_names_the_block_below_it(self):
        # degrees 4 and 5 cancel, but nothing at degree 3 can hit the
        # degree-2 block, so its whole kernel is homology
        cx = BigradedComplex(
            3, (((2, 5), 1), ((4, 5), 1), ((5, 5), 1)), (((5, 5), ((2,),)),)
        )
        with pytest.raises(NotAcyclicError) as err:
            acyclic_basis(cx)
        assert err.value.spot == (2, 5)
        assert str(err.value) == "nonzero homology at degree 2, weight 5"

    def test_wide_degree_gap_costs_nothing(self):
        # two exact pairs 10^9 degrees apart: no work per absent degree
        top = 10 ** 9
        cx = BigradedComplex(
            3,
            (((0, 1), 1), ((1, 1), 1), ((top, 1), 1), ((top + 1, 1), 1)),
            (((1, 1), ((1,),)), ((top + 1, 1), ((2,),))),
        )
        basis = acyclic_basis(cx)
        assert basis.odd_pairs == (
            (((1, 1), (1,)), ((0, 1), (1,))),
            (((top + 1, 1), (2,)), ((top, 1), (1,))),
        )

    def test_constructed_counterexample_names_spot(self):
        # single block with zero differential: homology everywhere
        cx = BigradedComplex(3, (((4, 2), 1),), ())
        with pytest.raises(NotAcyclicError) as err:
            acyclic_basis(cx)
        assert err.value.spot == (4, 2)


class TestWeightedDim:
    def test_standard_pair_value(self, pair3):
        gens, spec = pair3
        dims = {}
        for w in (1, 2):
            dims[w] = sum(r.dim_total for r in homology(gens, spec, w).rows)
        assert dims == {1: 2, 2: 2}
        assert weighted_dim(dims, 2) == Fraction(3)

    def test_list_input_and_k1(self):
        assert weighted_dim([2], 1) == Fraction(2)

    def test_empty(self):
        assert weighted_dim({}, 5) == Fraction(0)

    def test_additivity(self):
        a = {1: 2, 2: 4}
        b = {1: 1, 3: 6}
        both = {1: 3, 2: 4, 3: 6}
        assert weighted_dim(both, 3) == weighted_dim(a, 3) + weighted_dim(b, 3)


class TestInequalities:
    def test_p3_all_hold(self, pair3):
        gens, spec = pair3
        rows = check_weight_inequalities(gens, spec, 6)
        assert all(r.homology_small and r.boundaries_large for r in rows)

    def test_p5_all_hold(self, pair5):
        gens, spec = pair5
        rows = check_weight_inequalities(gens, spec, 5)
        assert all(r.homology_small and r.boundaries_large for r in rows)

    def test_k1_trivial_homology(self, pair3):
        gens, spec = pair3
        row = check_weight_inequalities(gens, spec, 1)[0]
        assert row.dim_h == 0
        assert row.dim_l == 2

    def test_rejects_non_acyclic_generators(self):
        ring = RingSpec(3, 1)
        gens = GeneratorSet.build([("x", 2), ("y", 1)], ring)
        spec = DifferentialSpec(
            gens, (FreeNAElement.zero(gens), FreeNAElement.zero(gens))
        )
        with pytest.raises(NotAcyclicError):
            check_weight_inequalities(gens, spec, 2)

    @pytest.mark.parametrize("check", [check_weight_inequalities, boundary_growth])
    def test_non_acyclic_generators_name_their_spot(self, check):
        # d(a) = b cancels degrees 1 and 2; c alone in degree 4 is homology
        ring = RingSpec(3, 1)
        gens = GeneratorSet.build([("a", 2), ("b", 1), ("c", 4)], ring)
        zero = FreeNAElement.zero(gens)
        spec = DifferentialSpec(gens, (FreeNAElement.generator(gens, "b"), zero, zero))
        with pytest.raises(NotAcyclicError) as err:
            check(gens, spec, 2)
        assert err.value.spot == (4, 1)


class TestBoundaryGrowth:
    def test_small_case_value(self, pair3):
        gens, spec = pair3
        report = boundary_growth(gens, spec, 2)
        k2 = report.rows[1]
        assert k2.k == 2
        # boundary [y,y] sits in degree 2; cumulative through degree 4 >= 1
        assert k2.cumulative_boundaries >= 1
        assert k2.lower_bound == Fraction(2, 12) * 1
        assert k2.holds

    def test_holds_up_to_five(self, pair3):
        gens, spec = pair3
        report = boundary_growth(gens, spec, 5)
        assert all(r.holds for r in report.rows)

    def test_single_generator_rejected(self):
        ring = RingSpec(3, 1)
        gens = GeneratorSet.build([("a", 2)], ring)
        spec = DifferentialSpec(gens, (FreeNAElement.zero(gens),))
        with pytest.raises(PreconditionError):
            boundary_growth(gens, spec, 2)
