import itertools
import time

import pytest

from liegrowth.errors import (
    DegenerateInputError,
    InputError,
    InvalidCoefficientError,
    ResourceGuardError,
    UnsupportedInputError,
)
from liegrowth.freelie import basic_products, witt
from liegrowth.moore import (
    GrowthParams,
    MooreSummand,
    MooreWedge,
    crt_split,
    growth_certificate,
    hilton_milnor_expansion,
    homology_poincare,
    smash,
    smash_power_binomial,
)


def P(dim, p=3, r=1):
    return MooreSummand(dim, p, r)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


class TestSummandAndWedge:
    def test_validation(self):
        with pytest.raises(InputError):
            MooreSummand(1, 3, 1)
        with pytest.raises(InputError):
            MooreSummand(3, 4, 1)
        with pytest.raises(InputError):
            MooreSummand(3, 3, 0)

    def test_canonical_merge(self):
        w = MooreWedge.from_pairs([(P(4), 1), (P(3), 2), (P(4), 1)])
        assert w.terms == ((P(3), 2), (P(4), 2))
        assert w.total_summands() == 4

    def test_json_round_trip(self):
        w = MooreWedge.from_pairs([(P(5, 3, 2), 2), (P(4, 3, 2), 1)])
        data = w.to_json()
        assert data == [
            {"dim": 4, "p": 3, "r": 2, "mult": 1},
            {"dim": 5, "p": 3, "r": 2, "mult": 2},
        ]
        assert MooreWedge.from_json(data) == w

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.5), ("p", 3.0), ("r", "2"), ("mult", 1.9)])
    def test_parse_rejects_non_integers(self, field, value):
        data = [{"dim": 4, "p": 3, "r": 2, "mult": 1}]
        data[0][field] = value
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            MooreWedge.from_json(data)

    def test_emitted_wedges_are_canonical(self):
        # normalization is idempotent on everything the module emits
        outputs = [
            crt_split(5, 360),
            smash(MooreWedge.of(P(2), P(3)), MooreWedge.of(P(2))),
            smash_power_binomial(2, 3, 3, 2, 3, 1),
        ]
        outputs.extend(f.wedge for f in hilton_milnor_expansion(2, 3, 3, 1, 4))
        for w in outputs:
            assert MooreWedge(w.terms) == w
            assert list(w.terms) == sorted(w.terms, key=lambda t: t[0])


class TestCrtSplit:
    def test_two_prime_powers(self):
        assert crt_split(4, 12) == MooreWedge.of(
            MooreSummand(4, 2, 2), MooreSummand(4, 3, 1)
        )

    def test_single_prime_power(self):
        assert crt_split(4, 9) == MooreWedge.of(MooreSummand(4, 3, 2))

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            crt_split(4, 1)

    def test_low_dimension_rejected(self):
        with pytest.raises(InputError):
            crt_split(2, 6)

    def test_recombines_multiplicatively(self):
        for ell in range(2, 200):
            wedge = crt_split(5, ell)
            product = 1
            for s, m in wedge.terms:
                assert m == 1
                product *= s.order
            assert product == ell

    def test_large_prime_factors_split_at_once(self):
        start = time.perf_counter()
        assert crt_split(5, 10 ** 14 + 31) == MooreWedge.of(MooreSummand(5, 10 ** 14 + 31, 1))
        assert crt_split(5, 72 * (10 ** 16 + 61)) == MooreWedge.of(
            MooreSummand(5, 2, 3), MooreSummand(5, 3, 2), MooreSummand(5, 10 ** 16 + 61, 1)
        )
        assert crt_split(5, 1000003 * 1000033) == MooreWedge.of(
            MooreSummand(5, 1000003, 1), MooreSummand(5, 1000033, 1)
        )
        assert time.perf_counter() - start < 1

    def test_smooth_ell_beyond_primality_bound_splits(self):
        assert crt_split(5, 10 ** 25) == MooreWedge.of(
            MooreSummand(5, 2, 25), MooreSummand(5, 5, 25)
        )
        assert crt_split(5, 2 ** 100) == MooreWedge.of(MooreSummand(5, 2, 100))
        assert crt_split(5, 360 ** 10) == MooreWedge.of(
            MooreSummand(5, 2, 30), MooreSummand(5, 3, 20), MooreSummand(5, 5, 10)
        )

    def test_prime_power_above_trial_bound_splits(self):
        q = 1048583  # the least prime above 2^20
        start = time.perf_counter()
        assert crt_split(5, q ** 2) == MooreWedge.of(MooreSummand(5, q, 2))
        assert crt_split(5, q ** 3) == MooreWedge.of(MooreSummand(5, q, 3))
        assert crt_split(5, 12 * q ** 6) == MooreWedge.of(
            MooreSummand(5, 2, 2), MooreSummand(5, 3, 1), MooreSummand(5, q, 6)
        )
        assert time.perf_counter() - start < 1

    def test_cofactor_without_small_factor_is_refused(self):
        # two primes near sqrt(3.3e24), psi13 (at the primality bound),
        # 6 times two primes above 2^20, and the square of such a product
        for ell, cofactor in (
            (1821275394067 * 1821275393963, 1821275394067 * 1821275393963),
            (1287836182261 * 2575672364521, 1287836182261 * 2575672364521),
            (6 * 1048583 * 1048601, 1048583 * 1048601),
            ((1048583 * 1048601) ** 2, (1048583 * 1048601) ** 2),
        ):
            start = time.perf_counter()
            with pytest.raises(ResourceGuardError, match=f"{cofactor} of {ell}.* 1048576"):
                crt_split(5, ell)
            assert time.perf_counter() - start < 1


class TestPoincare:
    def test_single_summand(self):
        assert homology_poincare(MooreWedge.of(P(2, 3, 2)), 3, 2) == [0, 1, 1]

    def test_additive_over_wedge(self):
        w = MooreWedge.from_pairs([(P(4), 1), (P(3), 2)])
        assert homology_poincare(w, 3, 1) == [0, 0, 2, 3, 1]

    def test_other_primes_contribute_nothing(self):
        w = MooreWedge.of(P(4, 3, 1), P(4, 5, 1))
        assert homology_poincare(w, 3, 1) == [0, 0, 0, 1, 1]

    def test_coefficient_exponent_guard(self):
        with pytest.raises(InvalidCoefficientError):
            homology_poincare(MooreWedge.of(P(4, 3, 1)), 3, 2)


class TestSmash:
    def test_pairwise_rule(self):
        a = MooreWedge.of(P(2))
        assert smash(a, a) == MooreWedge.of(P(4), P(3))

    def test_distributes(self):
        left = MooreWedge.of(P(2), P(3))
        right = MooreWedge.of(P(2))
        out = smash(left, right)
        assert out == MooreWedge.from_pairs([(P(4), 2), (P(3), 1), (P(5), 1)])

    def test_kunneth_oracle(self):
        # the Poincare polynomial of a smash is the product of the factors'
        for dims_a, dims_b in itertools.product(
            [(2,), (2, 3), (3, 3)], repeat=2
        ):
            a = MooreWedge.from_pairs([(P(d), 1) for d in dims_a])
            b = MooreWedge.from_pairs([(P(d), 1) for d in dims_b])
            lhs = trim(homology_poincare(smash(a, b), 3, 1))
            rhs = trim(poly_mul(homology_poincare(a, 3, 1), homology_poincare(b, 3, 1)))
            assert lhs == rhs

    def test_associative_by_oracle(self):
        a = MooreWedge.of(P(2))
        b = MooreWedge.of(P(3))
        c = MooreWedge.of(P(2), P(4))
        assert smash(smash(a, b), c) == smash(a, smash(b, c))

    def test_rejects_mixed_primes(self):
        with pytest.raises(UnsupportedInputError):
            smash(MooreWedge.of(P(2, 3, 1)), MooreWedge.of(P(2, 5, 1)))

    def test_rejects_order_two(self):
        with pytest.raises(UnsupportedInputError):
            smash(MooreWedge.of(P(2, 2, 1)), MooreWedge.of(P(2, 2, 1)))


class TestSmashPowerBinomial:
    def test_worked_example(self):
        out = smash_power_binomial(2, 2, 2, 1, 3, 1)
        assert out == MooreWedge.from_pairs([(P(6), 1), (P(5), 2), (P(4), 1)])

    def test_single_factor(self):
        assert smash_power_binomial(7, 2, 1, 0, 3, 1) == MooreWedge.of(P(7))

    def test_matches_iterated_smash(self):
        for n, m in itertools.product((2, 3), repeat=2):
            for k1 in range(0, 7):
                for k2 in range(0, 7 - k1):
                    if k1 + k2 < 1:
                        continue
                    closed = smash_power_binomial(n, m, k1, k2, 3, 2)
                    acc = None
                    for _ in range(k1):
                        w = MooreWedge.of(P(n, 3, 2))
                        acc = w if acc is None else smash(acc, w)
                    for _ in range(k2):
                        w = MooreWedge.of(P(m, 3, 2))
                        acc = w if acc is None else smash(acc, w)
                    assert closed == acc

    def test_polynomial_oracle(self):
        # (t^n + t^{n-1})^{k1} (t^m + t^{m-1})^{k2} equals the wedge polynomial
        for n, m, k1, k2 in [(2, 3, 2, 2), (3, 3, 1, 3), (2, 2, 4, 1)]:
            wedge = smash_power_binomial(n, m, k1, k2, 5, 1)
            poly = [1]
            for _ in range(k1):
                base = [0] * (n + 1)
                base[n] = base[n - 1] = 1
                poly = poly_mul(poly, base)
            for _ in range(k2):
                base = [0] * (m + 1)
                base[m] = base[m - 1] = 1
                poly = poly_mul(poly, base)
            assert trim(homology_poincare(wedge, 5, 1)) == trim(poly)


class TestLoopFactorExpansion:
    def test_weight_one_factors(self):
        factors = hilton_milnor_expansion(2, 4, 3, 2, 1)
        assert len(factors) == 2
        wedges = {f.wedge for f in factors}
        assert MooreWedge.of(P(3, 3, 2)) in wedges
        assert MooreWedge.of(P(5, 3, 2)) in wedges

    def test_weight_two_factor(self):
        factors = [f for f in hilton_milnor_expansion(2, 2, 3, 2, 2) if f.weight == 2]
        assert len(factors) == 1
        assert factors[0].wedge == MooreWedge.of(P(5, 3, 2), P(4, 3, 2))

    def test_counts_sum_to_witt(self):
        factors = hilton_milnor_expansion(2, 3, 3, 1, 40)
        for k in range(1, 41):
            count = sum(f.count for f in factors if f.weight == k)
            assert count == witt(2, k)

    def test_necklace_counts_match_enumerated_basic_products(self):
        def letter_counts(tree):
            if isinstance(tree, int):
                return (1 - tree, tree)
            a, b = letter_counts(tree[0]), letter_counts(tree[1])
            return (a[0] + b[0], a[1] + b[1])

        expected = {}
        for k in range(1, 15):
            for tree in basic_products(2, k):
                key = letter_counts(tree)
                expected[key] = expected.get(key, 0) + 1
        factors = hilton_milnor_expansion(2, 3, 3, 1, 14)
        assert {(f.k1, f.k2): f.count for f in factors} == expected
        assert [(f.k1, f.k2) for f in factors] == sorted(
            expected, key=lambda c: (sum(c), c)
        )

    def test_summand_guard_counts_what_is_built(self, monkeypatch):
        from liegrowth import moore

        factors = hilton_milnor_expansion(2, 3, 3, 1, 20)
        for top in range(1, 21):
            built = sum(len(f.wedge.terms) for f in factors if f.weight <= top)
            assert built == 2 + (top - 1) * top * (top + 1) // 3
        # the bound is inclusive: 1362 summands to weight 16, 1634 to 17
        monkeypatch.setattr(moore, "HM_GUARD", 1362)
        assert len(hilton_milnor_expansion(2, 2, 3, 2, 16)) == 2 + 15 * 16 // 2
        with pytest.raises(ResourceGuardError) as err:
            hilton_milnor_expansion(2, 2, 3, 2, 17)
        assert str(err.value) == (
            "the expansion to weight 17 has 1634 Moore summands, above the "
            "guard of 1362; this guard has no override"
        )

    def test_summand_guard_refuses_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="8999902 Moore summands"):
            hilton_milnor_expansion(2, 2, 3, 2, 300)
        assert time.perf_counter() - start < 1


class TestGrowthCertificate:
    def test_params_validation(self):
        with pytest.raises(InputError):
            GrowthParams(1, 2, 3, 1, 1, 0, 5)
        with pytest.raises(InputError):
            GrowthParams(2, 2, 3, 1, 2, 0, 5)  # s > r
        with pytest.raises(UnsupportedInputError):
            GrowthParams(2, 2, 2, 1, 1, 0, 5)  # p^r = 2

    def test_weight_cap_keeps_the_asymptote_a_float(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 517))
        assert cert.contributions[-1].to_json_dict()["asymptote"] > 1e308
        with pytest.raises(InputError, match="above 517"):
            GrowthParams(2, 2, 5, 2, 2, 7, 518)

    def test_per_weight_counts(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 14))
        by_k = {c.weight: c for c in cert.contributions}
        assert by_k[3].count == 8  # 2^2 * W_2(3)
        assert by_k[1].count == 2
        for k, c in by_k.items():
            assert c.count == 2 ** (k - 1) * witt(2, k)

    def test_threshold(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 14))
        for c in cert.contributions:
            assert c.contributes == (c.weight > 8)  # (j+1)/(n-1) = 8

    def test_booked_dimensions(self):
        cert = growth_certificate(GrowthParams(2, 4, 3, 1, 1, 2, 6))
        for c in cert.contributions:
            assert c.booked_dim == c.weight * 4 + 1 + 2
            assert c.contributes == (c.weight * 1 > 3)

    def test_cumulative_monotone(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 14))
        values = [a for _, a in cert.cumulative]
        assert values == sorted(values)
        dims = [d for d, _ in cert.cumulative]
        assert dims == sorted(dims)

    def test_json_layout(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 10))
        data = cert.to_json_dict()
        assert data["params"]["K"] == 10
        assert data["contributions"][2]["k"] == 3
        assert data["contributions"][2]["count"] == 8
        assert all(len(pair) == 2 for pair in data["cumulative"])
