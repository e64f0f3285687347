import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegrowth.errors import (
    InputError,
    InvalidExponentError,
    NotInjectiveError,
    PreconditionError,
    RingMismatchError,
    UnsupportedInputError,
)
from liegrowth import _fp
from liegrowth.difflie import BigradedComplex
from liegrowth.zpmod import (
    SNF_NUMPY_ENTRIES,
    BasisChange,
    DirectSumSplit,
    GradedModule,
    ModuleMorphism,
    RingSpec,
    SNFResult,
    compose,
    dim_of,
    elements_at,
    factor_tensor_check,
    image_dims,
    is_injective,
    is_prime,
    is_surjective,
    smith_normal_form,
    smith_normal_form_matrix,
    split_injection_normalize,
    tensor_morphism,
    tensor_reduce,
    tor,
    _snf_lists,
    _snf_numpy,
)

R9 = RingSpec(3, 2)
R27 = RingSpec(3, 3)


def mod(ring, exps, degree=0):
    return GradedModule.single(ring, exps, degree)


class TestRingSpec:
    def test_rejects_composite_p(self):
        with pytest.raises(InputError):
            RingSpec(6, 1)

    def test_rejects_zero_exponent(self):
        with pytest.raises(InvalidExponentError):
            RingSpec(3, 0)

    def test_valuation(self):
        assert R27.valuation(18) == 2
        assert R27.valuation(5) == 0
        assert R27.valuation(0) == 3
        assert R27.valuation(27) == 3


class TestIsPrime:
    def test_matches_trial_division(self):
        def by_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(-3, 5000) if is_prime(n)] == [
            n for n in range(-3, 5000) if by_division(n)
        ]

    def test_large_primes_and_composites(self):
        assert is_prime(2 ** 61 - 1)  # Mersenne prime
        assert is_prime(10 ** 14 + 31)
        assert not is_prime((2 ** 31 - 1) * (10 ** 14 + 31))
        for carmichael in (561, 41041, 3215031751):
            assert not is_prime(carmichael)
        # a strong pseudoprime to every prime base up to 23
        assert not is_prime(3825123056546413051)

    def test_bound(self):
        # the least strong pseudoprime to the first 13 prime bases
        psi13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521
        assert not is_prime(psi13 - 2)
        assert is_prime(3317044064679887385961813)  # the largest prime below
        with pytest.raises(InputError):
            is_prime(psi13)
        with pytest.raises(InputError):
            RingSpec(psi13 + 2, 1)


class TestGradedModule:
    def test_canonical_sorting(self):
        m1 = GradedModule.from_dict(R9, {4: (1, 2, 1)})
        m2 = GradedModule.from_dict(R9, {4: (2, 1, 1)})
        assert m1 == m2
        assert m1.exponents_at(4) == (2, 1, 1)

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(InvalidExponentError):
            GradedModule.from_dict(R9, {0: (3,)})

    def test_json_round_trip(self):
        m = GradedModule.from_dict(R9, {4: (2, 1, 1), -1: (1,)})
        data = m.to_json_dict()
        assert data == {"p": 3, "s": 2, "components": {"-1": [1], "4": [2, 1, 1]}}
        assert GradedModule.from_json_dict(data) == m

    def test_parse_rejects_non_torsion_summands(self):
        # no free-Z or off-prime summands: exponents must sit in [1, s]
        with pytest.raises(InvalidExponentError):
            GradedModule.from_json_dict({"p": 3, "s": 2, "components": {"0": [0]}})
        with pytest.raises(InvalidExponentError):
            GradedModule.from_json_dict({"p": 3, "s": 2, "components": {"0": [5]}})

    @pytest.mark.parametrize("field, value", [
        ("p", 3.9), ("s", 2.2), ("p", "3"), ("exponent", 2.7), ("exponent", 2.0)])
    def test_parse_rejects_non_integers(self, field, value):
        # int() would truncate these to p = 3, s = 2 or exponent 2
        data = {"p": 3, "s": 2, "components": {"0": [1]}}
        if field == "exponent":
            data["components"]["0"] = [value]
        else:
            data[field] = value
        with pytest.raises(InputError, match="must be an integer"):
            GradedModule.from_json_dict(data)


class TestDimOf:
    def test_reads_off_counts(self):
        m = mod(R9, (2, 1, 1))  # Z/9 + Z/3 + Z/3
        assert dim_of(m, 2) == 1
        assert dim_of(m, 1) == 2

    def test_zero_module(self):
        assert dim_of(GradedModule.zero(R9), 1) == 0

    def test_degree_range(self):
        m = GradedModule.from_dict(R9, {0: (2,), 3: (2, 2), 7: (2,)})
        assert dim_of(m, 2, (0, 3)) == 3
        assert dim_of(m, 2) == 4

    def test_bad_exponent(self):
        with pytest.raises(InvalidExponentError):
            dim_of(mod(R9, (1,)), 3)


class TestTensorReduce:
    def test_min_rule(self):
        assert tensor_reduce(mod(R9, (2, 1)), 1) == mod(RingSpec(3, 1), (1, 1))

    def test_identity_at_full_exponent(self):
        m = mod(R27, (3, 2, 1))
        assert tensor_reduce(m, 3) == m

    def test_result_ring(self):
        m = tensor_reduce(mod(R27, (3, 1)), 2)
        assert m.ring == RingSpec(3, 2)
        assert m.exponents_at(0) == (2, 1)

    def test_dimension_count_identity_exhaustive(self):
        # dim_{Z/p^s}(M (x) Z/p^s) == sum_{t=s}^{r} dim_{Z/p^t}(M),
        # all modules with <= 3 summands, ambient exponent <= 4
        import itertools

        for r in range(1, 5):
            ring = RingSpec(3, r)
            for size in range(1, 4):
                for exps in itertools.combinations_with_replacement(range(1, r + 1), size):
                    m = mod(ring, exps)
                    for s in range(1, r + 1):
                        lhs = dim_of(tensor_reduce(m, s), s)
                        rhs = sum(dim_of(m, t) for t in range(s, r + 1))
                        assert lhs == rhs

    def test_composition_is_min(self):
        m = mod(R27, (3, 2, 1))
        assert tensor_reduce(tensor_reduce(m, 2), 1) == tensor_reduce(m, 1)


def brute_force_tor_exponent(p, s, t, u):
    """Tor of cyclic pieces from the 2-periodic free resolution.

    Resolving Z/p^t over Z/p^s by ... -> Z/p^s --p^{s-t}--> Z/p^s --p^t-->
    Z/p^s and tensoring with Z/p^u leaves ker(p^t)/im(p^{s-t}) on Z/p^u.
    """
    q = p ** u
    kernel = {x for x in range(q) if x * p ** t % q == 0}
    image = {x * p ** (s - t) % q for x in range(q)}
    size = len(kernel) // len(image)
    e = 0
    while p ** e < size:
        e += 1
    return e


@st.composite
def rings(draw):
    return RingSpec(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 4)))


@st.composite
def graded_modules(draw, ring, degrees=st.integers(-2, 3)):
    comps = draw(st.dictionaries(
        degrees, st.lists(st.integers(1, ring.s), max_size=4), max_size=3))
    return GradedModule.from_dict(ring, comps)


@st.composite
def morphisms(draw, domain, codomain):
    """A module map: entry (i, j) is a multiple of p^(t_i - t_j) when t_i > t_j."""
    p = domain.ring.p
    mats = {}
    for d in domain.degrees():
        cod_exps = codomain.exponents_at(d)
        if cod_exps:
            mats[d] = tuple(
                tuple(draw(st.integers(0, p ** t_i - 1)) * p ** max(0, t_i - t_j)
                      for t_j in domain.exponents_at(d))
                for t_i in cod_exps
            )
    return ModuleMorphism.from_dict(domain, codomain, mats)


class TestTor:
    def test_free_kills_tor(self):
        free = GradedModule.free(R27, 2)
        assert tor(free, mod(R27, (2, 1))).is_zero()
        assert tor(mod(R27, (2, 1)), free).is_zero()

    def test_cyclic_example_over_z9(self):
        t = tor(mod(R9, (1,)), mod(R9, (1,)))
        assert t == mod(R9, (1,))

    def test_matches_resolution_oracle(self):
        for s in range(1, 4):
            ring = RingSpec(3, s)
            for t in range(1, s + 1):
                for u in range(1, s + 1):
                    e = brute_force_tor_exponent(3, s, t, u)
                    got = tor(mod(ring, (t,)), mod(ring, (u,)))
                    assert got.exponents_at(0) == ((e,) if e else ())

    def test_symmetric_and_annihilated(self):
        import itertools

        for s in range(1, 5):
            ring = RingSpec(3, s)
            mods = [
                mod(ring, exps)
                for size in (1, 2)
                for exps in itertools.combinations_with_replacement(range(1, s + 1), size)
            ]
            for a in mods:
                for b in mods:
                    t = tor(a, b)
                    assert t == tor(b, a)
                    assert all(e <= s - 1 for _, ee in t.components for e in ee)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_symmetric_on_graded_modules(self, data):
        ring = data.draw(rings())
        m, n = data.draw(graded_modules(ring)), data.draw(graded_modules(ring))
        assert tor(m, n) == tor(n, m)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            tor(mod(R9, (1,)), mod(R27, (1,)))

    def test_degrees_convolve(self):
        a = GradedModule.from_dict(R9, {1: (1,)})
        b = GradedModule.from_dict(R9, {2: (1,)})
        assert tor(a, b).degrees() == (3,)


class TestMorphism:
    def test_well_definedness_enforced(self):
        dom = mod(R9, (1,))
        cod = mod(R9, (2,))
        with pytest.raises(InputError):
            ModuleMorphism.from_dict(dom, cod, {0: ((1,),)})
        ModuleMorphism.from_dict(dom, cod, {0: ((3,),)})  # fine

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_compose_of_module_maps_is_a_module_map(self, data):
        ring = data.draw(rings())
        a, b, c = (data.draw(graded_modules(ring, st.integers(0, 2))) for _ in range(3))
        f = data.draw(morphisms(a, b))
        g = data.draw(morphisms(b, c))
        gf = compose(g, f)  # the constructor checks well-definedness
        for d in a.degrees():
            x = tuple(data.draw(st.integers(0, ring.p ** t - 1)) for t in a.exponents_at(d))
            assert gf.apply_at(d, x) == g.apply_at(d, f.apply_at(d, x))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_entry_breaking_divisibility_is_rejected(self, data):
        ring = RingSpec(data.draw(st.sampled_from((2, 3, 5, 7))), data.draw(st.integers(2, 4)))
        t_j = data.draw(st.integers(1, ring.s - 1))
        t_i = data.draw(st.integers(t_j + 1, ring.s))
        dom, cod = mod(ring, (t_j,)), mod(ring, (t_i,))
        # a unit times p^e with e < t_i - t_j
        unit = data.draw(st.integers(1, ring.p - 1))
        entry = unit * ring.p ** data.draw(st.integers(0, t_i - t_j - 1))
        with pytest.raises(InputError, match="well-definedness"):
            ModuleMorphism.from_dict(dom, cod, {0: ((entry,),)})
        ModuleMorphism.from_dict(dom, cod, {0: ((entry * ring.p ** (t_i - t_j),),)})

    def test_entries_reduced_mod_row_order(self):
        dom = mod(R9, (2,))
        cod = mod(R9, (1,))
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((5,),)})
        assert phi.matrix_at(0) == ((2,),)

    def test_compose_shifts_add(self):
        a = GradedModule.from_dict(R9, {2: (2,)})
        b = GradedModule.from_dict(R9, {1: (2,)})
        c = GradedModule.from_dict(R9, {0: (2,)})
        f = ModuleMorphism.from_dict(a, b, {2: ((1,),)}, shift=-1)
        g = ModuleMorphism.from_dict(b, c, {1: ((2,),)}, shift=-1)
        gf = compose(g, f)
        assert gf.shift == -2
        assert gf.matrix_at(2) == ((2,),)

    def test_apply(self):
        phi = ModuleMorphism.from_dict(mod(R9, (2, 1)), mod(R9, (2,)), {0: ((1, 3),)})
        assert phi.apply_at(0, (2, 2)) == ((2 + 6) % 9,)

    def test_json_round_trip(self):
        phi = ModuleMorphism.from_dict(mod(R9, (2, 1)), mod(R9, (2,)), {0: ((1, 3),)})
        assert ModuleMorphism.from_json_dict(phi.to_json_dict()) == phi

    @pytest.mark.parametrize("shift", [0.6, 1.0, "1"])
    def test_parse_rejects_a_non_integer_shift(self, shift):
        data = ModuleMorphism.identity(mod(R9, (2,))).to_json_dict()
        data["shift"] = shift
        with pytest.raises(InputError, match="shift must be an integer"):
            ModuleMorphism.from_json_dict(data)

    @pytest.mark.parametrize("entry", [1.5, 4.0, "4"])
    def test_non_integer_entries_are_rejected(self, entry):
        dom, cod = mod(R9, (2,)), mod(R9, (2,))
        with pytest.raises(InputError, match="integers"):
            ModuleMorphism.from_dict(dom, cod, {0: ((entry,),)})
        data = ModuleMorphism.identity(dom).to_json_dict()
        data["matrices"]["0"] = [[entry]]
        with pytest.raises(InputError, match="integers"):
            ModuleMorphism.from_json_dict(data)

    def test_numpy_integer_entries_are_accepted(self):
        phi = ModuleMorphism.from_dict(mod(R9, (2,)), mod(R9, (2,)), {0: ((np.int64(4),),)})
        assert phi.matrix_at(0) == ((4,),)
        assert type(phi.matrix_at(0)[0][0]) is int


@st.composite
def snf_cases(draw):
    """A matrix over Z/p^s with m, n <= 6, biased to non-units and zero rows."""
    p = draw(st.sampled_from((2, 3, 5)))
    ring = RingSpec(p, draw(st.integers(1, 3)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    entry = st.one_of(
        st.integers(0, ring.modulus - 1),
        st.sampled_from([0, p, p ** (ring.s - 1)]),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    zero = draw(st.sets(st.integers(0, m - 1)))
    return ring, [[0] * n if i in zero else row for i, row in enumerate(rows)]


class TestSmithNormalForm:
    def test_permutation_pivots(self):
        u, uinv, v, vinv, vals = smith_normal_form_matrix([[0, 3], [3, 0]], R9)
        assert vals == [1, 1]

    def test_unit_and_zero(self):
        _, _, _, _, vals = smith_normal_form_matrix([[1, 0], [0, 0]], R9)
        assert vals == [0, 2]

    def test_morphism_interface(self):
        dom = GradedModule.free(R9, 2)
        cod = GradedModule.free(R9, 2)
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((0, 3), (3, 0))})
        result = smith_normal_form(phi)
        assert result.valuations_at(0) == (1, 1)
        assert result.u.matrix_at(0) is not None

    def test_rejects_non_free(self):
        phi = ModuleMorphism.from_dict(mod(R9, (1,)), mod(R9, (2,)), {0: ((3,),)})
        with pytest.raises(UnsupportedInputError):
            smith_normal_form(phi)

    def test_randomized_transform_properties(self):
        # U*A*V diagonal with sorted p-valuations, U and V invertible
        rng = random.Random(42)
        ring = R27
        m = ring.modulus
        for _ in range(1000):
            a = [[rng.randrange(m) for _ in range(6)] for _ in range(6)]
            u, uinv, v, vinv, vals = smith_normal_form_matrix(a, ring)
            assert vals == sorted(vals)
            ua = [[sum(u[i][k] * a[k][j] for k in range(6)) % m for j in range(6)]
                  for i in range(6)]
            uav = [[sum(ua[i][k] * v[k][j] for k in range(6)) % m for j in range(6)]
                   for i in range(6)]
            for i in range(6):
                for j in range(6):
                    assert uav[i][j] == (3 ** vals[i] % m if i == j else 0)
            for mat, inv in ((u, uinv), (v, vinv)):
                prod = [
                    [sum(mat[i][k] * inv[k][j] for k in range(6)) % m for j in range(6)]
                    for i in range(6)
                ]
                assert all(
                    prod[i][j] == (1 if i == j else 0)
                    for i in range(6)
                    for j in range(6)
                )

    def test_deterministic(self):
        a = [[3, 6, 1], [9, 2, 0], [5, 5, 5]]
        first = smith_normal_form_matrix(a, R27)
        second = smith_normal_form_matrix(a, R27)
        assert first == second

    def test_rectangular_shapes(self):
        rng = random.Random(77)
        for _ in range(300):
            s = rng.randint(1, 4)
            ring = RingSpec(3, s)
            m_rows = rng.randint(1, 5)
            n_cols = rng.randint(1, 5)
            modulus = ring.modulus
            a = [[rng.randrange(modulus) for _ in range(n_cols)] for _ in range(m_rows)]
            u, uinv, v, vinv, vals = smith_normal_form_matrix(a, ring)
            assert len(vals) == min(m_rows, n_cols)
            assert vals == sorted(vals)
            ua = [
                [sum(u[i][k] * a[k][j] for k in range(m_rows)) % modulus
                 for j in range(n_cols)]
                for i in range(m_rows)
            ]
            uav = [
                [sum(ua[i][k] * v[k][j] for k in range(n_cols)) % modulus
                 for j in range(n_cols)]
                for i in range(m_rows)
            ]
            for i in range(m_rows):
                for j in range(n_cols):
                    want = 3 ** vals[i] % modulus if i == j and i < len(vals) else 0
                    assert uav[i][j] == want
            for mat, inv, size in ((u, uinv, m_rows), (v, vinv, n_cols)):
                prod = [
                    [sum(mat[i][k] * inv[k][j] for k in range(size)) % modulus
                     for j in range(size)]
                    for i in range(size)
                ]
                assert all(
                    prod[i][j] == (1 if i == j else 0)
                    for i in range(size)
                    for j in range(size)
                )

    @settings(max_examples=200, deadline=None)
    @given(snf_cases())
    def test_transform_properties(self, case):
        # U A V = D with sorted valuations, U and V invertible, and the rows
        # of U scaled by p^(s - v) (v = s past the diagonal) are killed by A
        ring, a = case
        p, s, modulus = ring.p, ring.s, ring.modulus
        m, n = len(a), len(a[0])
        u, uinv, v, vinv, vals = smith_normal_form_matrix(a, ring)
        assert len(vals) == min(m, n)
        assert vals == sorted(vals) and all(0 <= x <= s for x in vals)

        def mul(x, y):
            return [[sum(x[i][t] * y[t][j] for t in range(len(y))) % modulus
                     for j in range(len(y[0]) if y else 0)] for i in range(len(x))]

        assert mul(mul(u, a), v) == [
            [p ** vals[i] % modulus if i == j else 0 for j in range(n)]
            for i in range(m)
        ]
        for mat, inv, size in ((u, uinv, m), (v, vinv, n)):
            assert mul(mat, inv) == [[int(i == j) for j in range(size)]
                                     for i in range(size)]
        full = vals + [s] * (m - len(vals))
        scaled = [[p ** (s - x) * y for y in row] for row, x in zip(u, full)]
        assert all(not any(row) for row in mul(scaled, a))

    def test_morphism_with_shift_multi_degree(self):
        dom = GradedModule.from_dict(R9, {2: (2, 2), 5: (2,)})
        cod = GradedModule.from_dict(R9, {1: (2, 2), 4: (2, 2)})
        phi = ModuleMorphism.from_dict(
            dom, cod, {2: ((1, 3), (0, 1)), 5: ((3,), (6,))}, shift=-1
        )
        result = smith_normal_form(phi)
        assert result.valuations_at(2) == (0, 0)
        assert result.valuations_at(5) == (1,)
        assert result.u.matrix_at(1) is not None
        assert result.v.matrix_at(5) is not None
        image = image_dims(phi)
        assert image.exponents_at(1) == (2, 2)
        assert image.exponents_at(4) == (1,)
        change = split_injection_normalize(
            ModuleMorphism.from_dict(dom, cod, {2: ((1, 0), (0, 1)), 5: ((1,), (0,))},
                                     shift=-1)
        )
        assert change.matrix_at(1) is not None and change.matrix_at(4) is not None


@st.composite
def snf_kernel_cases(draw):
    """A matrix over Z/p^s on either side of SNF_NUMPY_ENTRIES, possibly
    with zero rows, zero columns or no entries at all.  The side is drawn
    first, so each kernel gets a steady share of the examples."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ring = RingSpec(p, draw(st.integers(1, 4)))
    r = math.isqrt(SNF_NUMPY_ENTRIES)
    sizes = (0, 1, 2, 3, 8, r - 1, r, r + 1, 2 * r)
    wide = draw(st.booleans())
    # a wide side needs an m that reaches the threshold with the largest n
    m = draw(st.sampled_from(
        [x for x in sizes if not wide or x * sizes[-1] >= SNF_NUMPY_ENTRIES]
    ))
    n = draw(st.sampled_from([x for x in sizes if (m * x >= SNF_NUMPY_ENTRIES) == wide]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pool = [0, p, p ** (ring.s - 1)]
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.choice(pool) if rng.random() < 0.3 else rng.randrange(ring.modulus)
    if m and n:
        a[sorted(draw(st.sets(st.integers(0, m - 1))))] = 0
        a[:, sorted(draw(st.sets(st.integers(0, n - 1))))] = 0
    return ring, a


def assert_rows_are_scaled_vinv(rows, expected, ring):
    """The numpy kernel's U*A rows are p^v V^-1[i] mod p^s, for each
    valuation v < s of the list kernel's run."""
    vinv, vals = expected[3], expected[4]
    scaled = [[ring.p ** v * x % ring.modulus for x in vinv[i]]
              for i, v in enumerate(vals) if v < ring.s]
    assert rows.shape == (len(scaled), len(vinv))
    assert rows.tolist() == scaled


def assert_carried_is_u_times(carried, u, c, ring):
    """The numpy kernel's carried block is U*C mod p^s, for the list
    kernel's U and a 2-D array C."""
    cols = c.T.tolist()
    product = [[sum(x * y for x, y in zip(row, col)) % ring.modulus for col in cols]
               for row in u]
    assert carried.shape == c.shape
    assert carried.tolist() == product


def without_transforms(expected):
    return (None,) * 4 + (expected[4],)


class TestSmithKernels:
    @settings(max_examples=150, deadline=None)
    @given(snf_kernel_cases(), st.booleans(), st.integers(0, 3), st.integers(0, 2 ** 32))
    def test_numpy_kernel_matches_list_kernel(self, case, transforms, carry, seed):
        ring, a = case
        m, n = a.shape
        expected = _snf_lists(a.tolist(), m, n, ring)
        vals, ua, *_ = _snf_numpy(a, m, n, ring)
        assert vals == expected[4]
        assert_rows_are_scaled_vinv(ua, expected, ring)
        assert smith_normal_form_matrix(a, ring) == expected
        if m:
            assert smith_normal_form_matrix(a.tolist(), ring) == expected
        # without transforms a run gets the full run's valuations and None
        # in the four matrix slots; carried columns C come back as U*C
        requested = expected if transforms else without_transforms(expected)
        assert _snf_lists(a.tolist(), m, n, ring, transforms) == requested
        rng = random.Random(seed)
        c = np.array([[rng.randrange(ring.modulus) for _ in range(carry)] for _ in range(m)],
                     dtype=np.int64).reshape(m, carry)
        vals, ua, carried, *_ = _snf_numpy(np.concatenate([a, c], axis=1), m, n, ring)
        assert vals == expected[4]
        assert_rows_are_scaled_vinv(ua, expected, ring)
        assert_carried_is_u_times(carried, expected[0], c, ring)
        assert smith_normal_form_matrix(a, ring, transforms=transforms) == requested

    def test_object_dtype_path(self):
        # p^2 overflows int64, so the numpy kernel runs on Python ints
        ring = RingSpec(4294967311, 1)
        assert _fp.int_dtype(ring.modulus) is object
        rng = random.Random(5)
        a = [[rng.randrange(ring.modulus) if rng.random() < 0.7 else 0 for _ in range(30)]
             for _ in range(30)]
        expected = _snf_lists(a, 30, 30, ring)
        vals, ua, *_ = _snf_numpy(a, 30, 30, ring)
        assert vals == expected[4]
        assert_rows_are_scaled_vinv(ua, expected, ring)
        assert smith_normal_form_matrix(np.array(a, dtype=object), ring) == expected
        assert all(type(x) is int for x in expected[3][0])
        c = np.array([[rng.randrange(ring.modulus) for _ in range(2)] for _ in range(30)],
                     dtype=object)
        vals, ua, carried, *_ = _snf_numpy(
            [row + extra for row, extra in zip(a, c.tolist())], 30, 30, ring)
        assert vals == expected[4]
        assert_rows_are_scaled_vinv(ua, expected, ring)
        assert_carried_is_u_times(carried, expected[0], c, ring)
        assert all(type(x) is int for x in carried[0])
        for transforms in (True, False):
            requested = expected if transforms else without_transforms(expected)
            assert _snf_lists(a, 30, 30, ring, transforms) == requested
            assert smith_normal_form_matrix(a, ring, transforms=transforms) == requested

    @pytest.mark.parametrize("ring", [R27, RingSpec(2, 4)], ids=["Z/27", "Z/16"])
    @pytest.mark.parametrize("shape", [(120, 96), (96, 120), (200, 40), (40, 200)])
    def test_wide_rank_deficient_blocks(self, ring, shape):
        # past the hypothesis sizes: the transforms built after the
        # elimination still diagonalize and invert
        m, n = shape
        rng = np.random.default_rng(m * n + ring.p)
        r = min(m, n) * 3 // 4
        a = rng.integers(0, ring.modulus, (m, r)) @ rng.integers(0, ring.modulus, (r, n))
        a[: m // 5] *= ring.p  # some entries of positive valuation
        a %= ring.modulus
        u, uinv, v, vinv, vals = smith_normal_form_matrix(a, ring)
        assert vals == sorted(vals) and vals.count(ring.s) >= min(m, n) - r
        d = np.zeros((m, n), dtype=np.int64)
        d[range(len(vals)), range(len(vals))] = [ring.p ** x % ring.modulus for x in vals]
        assert np.array_equal(np.array(u) @ a % ring.modulus @ np.array(v) % ring.modulus, d)
        assert np.array_equal(np.array(u) @ np.array(uinv) % ring.modulus, np.eye(m))
        assert np.array_equal(np.array(v) @ np.array(vinv) % ring.modulus, np.eye(n))
        if shape == (96, 120) and ring == R27:
            assert [u, uinv, v, vinv, vals] == list(_snf_lists(a.tolist(), m, n, ring))

    def test_int64_kernel_with_object_back_substitution(self):
        # 2 * mod^2 fits int64, so the kernel runs there, while a back
        # substitution over rank >= 2 rows needs Python ints
        ring = RingSpec(2 ** 31 - 1, 1)
        assert _fp.int_dtype(ring.modulus, 2) is np.int64
        assert _fp.int_dtype(ring.modulus, 2 * 2) is object
        rng = random.Random(31)
        for m, n in ((20, 20), (16, 40), (40, 16)):
            a = [[rng.randrange(ring.modulus) if rng.random() < 0.6 else 0 for _ in range(n)]
                 for _ in range(m)]
            a[1] = a[0][:]  # rank deficient, whichever side is shorter
            for row in a:
                row[1] = row[0]
            result = smith_normal_form_matrix(a, ring)
            assert result == _snf_lists(a, m, n, ring)
            assert result[4][-1] == 1
            assert all(type(x) is int for mat in result[:4] for row in mat for x in row)

    def test_zero_rows_array(self):
        for n in (0, 3, SNF_NUMPY_ENTRIES + 1):
            u, uinv, v, vinv, vals = smith_normal_form_matrix(np.zeros((0, n)), R9)
            assert u == uinv == [] and vals == []
            assert v == vinv == [[int(i == j) for j in range(n)] for i in range(n)]
            assert smith_normal_form_matrix(np.zeros((0, n)), R9, transforms=False) == (
                None, None, None, None, []
            )


class TestBasisChange:
    def test_wrong_inverse_is_rejected(self):
        rng = random.Random(8)
        for size in (2, 40):
            a = [[rng.randrange(27) for _ in range(size)] for _ in range(size)]
            u, uinv, _, _, _ = smith_normal_form_matrix(a, R27)
            as_mat = lambda rows: tuple(map(tuple, rows))
            BasisChange(R27, ((0, (as_mat(u), as_mat(uinv))),))
            uinv[size - 1][0] = (uinv[size - 1][0] + 9) % 27
            with pytest.raises(InputError, match="not the identity"):
                BasisChange(R27, ((0, (as_mat(u), as_mat(uinv))),))

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(InputError, match="size mismatch"):
            BasisChange(R9, ((0, (((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0)))),))


class TestImageDims:
    def test_worked_example(self):
        # [1 3]: Z/9 + Z/3 -> Z/9 has image all of Z/9
        dom = mod(R9, (2, 1))
        cod = GradedModule.free(R9, 1)
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((1, 3),)})
        assert image_dims(phi) == mod(R9, (2,))
        hits = {phi.apply_at(0, c) for c in elements_at(dom, 0)}
        assert len(hits) == 9

    def test_mod_p_rank_matches(self):
        dom = mod(R9, (2, 1))
        cod = GradedModule.free(R9, 1)
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((1, 3),)})
        reduced = tensor_morphism(phi, 1)
        assert reduced.matrix_at(0) == ((1, 0),)

    def test_zero_map(self):
        phi = ModuleMorphism.zero(mod(R9, (2,)), GradedModule.free(R9, 2))
        assert image_dims(phi).is_zero()

    def test_identity_on_free(self):
        m = GradedModule.free(R9, 3)
        assert image_dims(ModuleMorphism.identity(m)) == m

    def test_rejects_non_free_codomain(self):
        phi = ModuleMorphism.from_dict(mod(R9, (2,)), mod(R9, (1,)), {0: ((1,),)})
        with pytest.raises(UnsupportedInputError):
            image_dims(phi)


class TestSplitInjection:
    def test_worked_example(self):
        # 1 |-> (1, 1) in Z/9 + Z/3: image becomes the first summand
        dom = GradedModule.free(R9, 1)
        cod = mod(R9, (2, 1))
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((1,), (1,))})
        change = split_injection_normalize(phi)
        inv = change.inverse_at(0)
        labels = change.exponents_at(0)
        assert tuple(sorted(labels, reverse=True)) == (2, 1)
        coords = [
            (inv[i][0] * 1 + inv[i][1] * 1) % 3 ** labels[i] for i in range(2)
        ]
        assert coords == [1, 0]

    def test_identity(self):
        m = GradedModule.free(R9, 2)
        change = split_injection_normalize(ModuleMorphism.identity(m))
        assert change.matrix_at(0) == ((1, 0), (0, 1))

    def test_order_obstruction(self):
        dom = GradedModule.free(R9, 1)
        cod = mod(R9, (1,))
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((1,),)})
        with pytest.raises(NotInjectiveError) as err:
            split_injection_normalize(phi)
        degree, witness = err.value.witness
        assert any(c % 9 for c in witness)
        assert not any(phi.apply_at(degree, witness))

    @pytest.mark.parametrize("shift", [0, 2])
    def test_domain_degree_over_zero_codomain(self, shift):
        # Z/3 in degrees 0 and 1, the identity at degree 0: degree 1 maps to 0
        ring = RingSpec(3, 1)
        dom = GradedModule.from_dict(ring, {0: (1,), 1: (1,)})
        cod = GradedModule.from_dict(ring, {shift: (1,)})
        phi = ModuleMorphism.from_dict(dom, cod, {0: ((1,),)}, shift)
        assert not is_injective(phi)
        with pytest.raises(NotInjectiveError, match="at degree 1") as err:
            split_injection_normalize(phi)
        assert err.value.witness == (1, (1,))
        two = ModuleMorphism.from_dict(
            GradedModule.from_dict(R9, {0: (2,), 1: (2, 2)}), GradedModule.free(R9, 1),
            {0: ((1,),)})
        with pytest.raises(NotInjectiveError) as err:
            split_injection_normalize(two)
        assert err.value.witness == (1, (3, 0))

    def test_exhaustive_small_case(self):
        # every map Z/9 -> Z/9 + Z/3, checked against brute-force injectivity
        dom = GradedModule.free(R9, 1)
        cod = mod(R9, (2, 1))
        for a in range(9):
            for b in range(3):
                phi = ModuleMorphism.from_dict(dom, cod, {0: ((a,), (b,))})
                brute = len({phi.apply_at(0, (x,)) for x in range(9)}) == 9
                try:
                    split_injection_normalize(phi)
                    outcome = True
                except NotInjectiveError:
                    outcome = False
                assert outcome == brute
                if brute:
                    assert dim_of(cod, 2) >= dim_of(dom, 2)


class TestKernelMachinery:
    def test_injective_iff_enumeration_agrees(self):
        # domain degrees 0 and 1 map to codomain degrees shift and 1 + shift;
        # in every fourth case the domain also has a degree 2 over a zero
        # codomain, and in another fourth the codomain has a degree 2 + shift
        # that no domain degree maps to
        rng = random.Random(7)
        seen = set()
        for trial in range(240):
            p = (2, 3, 5)[trial % 3]
            ring = RingSpec(p, rng.randint(1, 3 if p < 5 else 2))
            shift = rng.choice((-1, 0, 1))

            def exps():
                return tuple(rng.randint(1, ring.s) for _ in range(rng.randint(1, 2)))

            dom_comps = {0: exps(), 1: exps()}
            cod_comps = {shift: exps(), 1 + shift: exps()}
            if trial % 4 == 0:
                dom_comps[2] = exps()
            elif trial % 4 == 2:
                cod_comps[2 + shift] = exps()
            dom = GradedModule.from_dict(ring, dom_comps)
            cod = GradedModule.from_dict(ring, cod_comps)
            mats = {
                d: tuple(
                    tuple(p ** max(t_i - t_j, 0) * rng.randrange(p ** t_i)
                          for t_j in dom.exponents_at(d))
                    for t_i in cod.exponents_at(d + shift)
                )
                for d in (0, 1)
            }
            phi = ModuleMorphism.from_dict(dom, cod, mats, shift=shift)

            def image_size(d):
                return len({phi.apply_at(d, c) for c in elements_at(dom, d)})

            brute_inj = all(
                image_size(d) == p ** sum(dom.exponents_at(d)) for d in dom.degrees()
            )
            brute_surj = all(
                image_size(d - shift) == p ** sum(cod.exponents_at(d))
                for d in cod.degrees()
            )
            assert is_injective(phi) == brute_inj
            assert is_surjective(phi) == brute_surj
            seen.add((brute_inj, brute_surj))
        assert len(seen) == 4

    def test_map_to_zero_module(self):
        phi = ModuleMorphism.zero(mod(R9, (1,)), GradedModule.zero(R9))
        assert not is_injective(phi)
        assert is_surjective(phi)

    def test_kernel_with_degree_shift(self):
        from liegrowth.zpmod import kernel_generators

        m = GradedModule.from_dict(R9, {0: (2,), 1: (2,)})
        d = ModuleMorphism.from_dict(m, m, {1: ((3,),)}, shift=-1)
        gens = dict(kernel_generators(d))
        assert gens[0] == (1,)   # degree 0 maps into the zero component
        assert gens[1] == (3,)   # kernel of multiplication by 3 on Z/9
        assert not is_injective(d)

    def test_tensor_reduction_respects_composition(self):
        rng = random.Random(23)
        for _ in range(80):
            mods = [
                mod(R27, tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))))
                for _ in range(3)
            ]

            def rand(dom, cod):
                rows = []
                for t_i in cod.exponents_at(0):
                    row = []
                    for t_j in dom.exponents_at(0):
                        step = 3 ** max(t_i - t_j, 0)
                        row.append(step * rng.randrange(3 ** t_i // step + 1))
                    rows.append(tuple(row))
                return ModuleMorphism.from_dict(dom, cod, {0: tuple(rows)})

            f = rand(mods[0], mods[1])
            g = rand(mods[1], mods[2])
            for t in (1, 2):
                lhs = tensor_morphism(compose(g, f), t)
                rhs = compose(tensor_morphism(g, t), tensor_morphism(f, t))
                assert lhs == rhs


class TestFactorTensorCheck:
    def test_b_zero_reduces_to_composite(self):
        x = GradedModule.free(R9, 1)
        a = mod(R9, (2,))
        split = DirectSumSplit(a, GradedModule.zero(R9))
        f = ModuleMorphism.from_dict(x, split.module, {0: ((1,),)})
        g = ModuleMorphism.identity(split.module)
        assert factor_tensor_check(f, g, split) is True

    def test_random_instances_always_true(self):
        rng = random.Random(11)
        ring = R9

        def rand_morphism(dom, cod):
            rows = []
            for t_i in cod.exponents_at(0):
                row = []
                for t_j in dom.exponents_at(0):
                    step = 3 ** max(t_i - t_j, 0)
                    row.append(step * rng.randrange(3 ** t_i // step + 1))
                rows.append(tuple(row))
            if not rows or not rows[0]:
                return ModuleMorphism.zero(dom, cod)
            return ModuleMorphism.from_dict(dom, cod, {0: tuple(rows)})

        checked = 0
        while checked < 120:
            x = GradedModule.free(ring, rng.randint(1, 2))
            a = mod(ring, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2))))
            b_exps = tuple(1 for _ in range(rng.randint(0, 2)))
            b = mod(ring, b_exps) if b_exps else GradedModule.zero(ring)
            split = DirectSumSplit(a, b)
            y = mod(ring, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
            f = rand_morphism(x, split.module)
            g = rand_morphism(split.module, y)
            if not is_injective(compose(g, f)):
                continue
            checked += 1
            assert factor_tensor_check(f, g, split) is True

    def test_large_b_rejected(self):
        x = GradedModule.free(R9, 1)
        a = mod(R9, (2,))
        b = mod(R9, (2,))  # exponent s: p^{s-1} B != 0
        split = DirectSumSplit(a, b)
        f = ModuleMorphism.from_dict(x, split.module, {0: ((1,), (0,))})
        g = ModuleMorphism.identity(split.module)
        with pytest.raises(PreconditionError):
            factor_tensor_check(f, g, split)

    def test_non_injective_composite_rejected(self):
        x = GradedModule.free(R9, 1)
        a = mod(R9, (2,))
        split = DirectSumSplit(a, GradedModule.zero(R9))
        f = ModuleMorphism.from_dict(x, split.module, {0: ((3,),)})
        g = ModuleMorphism.identity(split.module)
        with pytest.raises(PreconditionError):
            factor_tensor_check(f, g, split)


class TestSurjectionsAndSandwich:
    def test_surjection_monotonicity_random(self):
        rng = random.Random(13)
        found = 0
        while found < 150:
            s = rng.randint(1, 3)
            ring = RingSpec(3, s)
            dom = mod(ring, tuple(rng.randint(1, s) for _ in range(rng.randint(1, 3))))
            cod = mod(ring, tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
            rows = []
            for t_i in cod.exponents_at(0):
                row = []
                for t_j in dom.exponents_at(0):
                    step = 3 ** max(t_i - t_j, 0)
                    row.append(step * rng.randrange(3 ** t_i // step + 1))
                rows.append(tuple(row))
            phi = ModuleMorphism.from_dict(dom, cod, {0: tuple(rows)})
            if not is_surjective(phi):
                continue
            found += 1
            assert dim_of(dom, s) >= dim_of(cod, s)

    def test_saturation_into_equality(self):
        # A + pN = N forces A = N for two-generator spans inside Z/9 + Z/3
        ring = R9
        n_mod = mod(ring, (2, 1))
        orders = n_mod.orders_at(0)
        full = set(elements_at(n_mod, 0))
        for a in full:
            for b in full:
                span = {
                    tuple((i * x + j * y) % o for x, y, o in zip(a, b, orders))
                    for i in range(9)
                    for j in range(9)
                }
                plus_p = {
                    tuple((x + 3 * y) % o for x, y, o in zip(v, w, orders))
                    for v in span
                    for w in full
                }
                if plus_p == full:
                    assert span == full


class TestTensorMorphism:
    def test_injection_persists_under_reduction(self):
        rng = random.Random(17)
        ring = R27
        found = 0
        while found < 100:
            rank = rng.randint(1, 2)
            dom = GradedModule.free(ring, rank)
            cod = mod(ring, tuple(sorted((3,) * rank + (rng.randint(1, 3),), reverse=True)))
            rows = []
            for t_i in cod.exponents_at(0):
                row = []
                for _ in range(rank):
                    step = 1  # domain is free of top exponent
                    row.append(rng.randrange(3 ** t_i))
                rows.append(tuple(row))
            phi = ModuleMorphism.from_dict(dom, cod, {0: tuple(rows)})
            if not is_injective(phi):
                continue
            found += 1
            for t in (1, 2):
                assert is_injective(tensor_morphism(phi, t))


_ONE = ((1,),)
_ACCESSORS = [
    # (object, accessor, a present key, its value, the default for a missing key)
    (mod(R9, (2, 1)), "exponents_at", (0,), (2, 1), ()),
    (ModuleMorphism.identity(mod(R9, (2,))), "matrix_at", (0,), _ONE, None),
    (BasisChange(R9, ((0, (_ONE, _ONE)),), ((0, (2,)),)), "matrix_at", (0,), _ONE, None),
    (BasisChange(R9, ((0, (((2,),), ((5,),))),)), "inverse_at", (0,), ((5,),), None),
    (BasisChange(R9, ((0, (_ONE, _ONE)),), ((0, (2,)),)), "exponents_at", (0,), (2,), None),
    (SNFResult(BasisChange(R9, ()), BasisChange(R9, ()), ((0, (0, 2)),)),
     "valuations_at", (0,), (0, 2), None),
    (BigradedComplex(3, (((1, 1), 1),), ()), "rank_at", (1, 1), 1, 0),
    (BigradedComplex(3, (((1, 1), 1), ((2, 1), 1)), (((2, 1), ((0,),)),)),
     "diff_at", (2, 1), ((0,),), None),
]


@pytest.mark.parametrize(
    "obj, accessor, key, value, default", _ACCESSORS,
    ids=[f"{type(obj).__name__}.{name}" for obj, name, *_ in _ACCESSORS],
)
def test_accessor_default_for_a_missing_degree(obj, accessor, key, value, default):
    read = getattr(obj, accessor)
    assert read(*key) == value
    assert read(5, *key[1:]) == default
