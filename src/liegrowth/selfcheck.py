"""Exhaustive small-modulus and seeded randomized verification suites.

These functions back both the test suite and the CLI ``selftest``
subcommand.  Each returns a SuiteResult with a case count and a list of
failure descriptions; an empty list means the suite passed.  Randomized
suites take an explicit seed so runs are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import _fp
from .errors import InputError, NotInjectiveError
from .freelie import (
    FreeNAElement,
    GeneratorSet,
    TensorElement,
    basic_products,
    bracket,
    embed_tensor,
    witt,
    zeta,
)
from .difflie import differential_pair, differentiate, sigma, tau
from .zpmod import (
    DirectSumSplit,
    GradedModule,
    ModuleMorphism,
    RingSpec,
    compose,
    dim_of,
    elements_at,
    factor_tensor_check,
    is_injective,
    is_surjective,
    smith_normal_form_matrix,
    split_injection_normalize,
    tensor_morphism,
    tensor_reduce,
    tor,
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures.append("... more failures suppressed")
            raise _TooManyFailures

    def __str__(self):
        status = "ok" if self.ok() else "FAIL"
        return f"{status:4s} {self.name} ({self.cases} cases)"


class _TooManyFailures(Exception):
    pass


def _run(result, body):
    try:
        body()
    except _TooManyFailures:
        pass
    return result


# ---------------------------------------------------------------------------
# Generation helpers


def exponent_multisets(s: int, max_summands: int, min_summands: int = 1):
    for size in range(min_summands, max_summands + 1):
        yield from itertools.combinations_with_replacement(range(s, 0, -1), size)


def random_exponents(rng, s: int, max_summands: int, min_summands: int = 1):
    size = rng.randint(min_summands, max_summands)
    return tuple(sorted((rng.randint(1, s) for _ in range(size)), reverse=True))


def random_matrix(rng, dom_exps, cod_exps, ring: RingSpec):
    """A random well-defined matrix: forced divisibility where orders drop."""
    p = ring.p
    rows = []
    for t_i in cod_exps:
        row = []
        for t_j in dom_exps:
            step = p ** max(t_i - t_j, 0)
            row.append(step * rng.randrange(0, p ** t_i // step + 1) % p ** t_i)
        rows.append(tuple(row))
    return tuple(rows)


def random_morphism(rng, dom: GradedModule, cod: GradedModule) -> ModuleMorphism:
    mats = {}
    for d in dom.degrees():
        cod_exps = cod.exponents_at(d)
        if cod_exps:
            mats[d] = random_matrix(rng, dom.exponents_at(d), cod_exps, dom.ring)
    return ModuleMorphism.from_dict(dom, cod, mats)


def _exact_log(n: int, p: int) -> int:
    """The e with p^e = n, for n a power of p, by repeated division."""
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def structure_from_elements(group, ring: RingSpec, orders):
    """Exponent multiset of an already-closed subgroup, from torsion counts.

    log_p |S[p^t]| = sum_i min(t, e_i), so consecutive differences count
    the summands with exponent >= t.
    """
    p, s = ring.p, ring.s
    counts = []
    for t in range(s + 1):
        q = p ** t
        counts.append(
            sum(1 for g in group if all(x * q % o == 0 for x, o in zip(g, orders)))
        )
    logs = [_exact_log(c, p) for c in counts]
    deltas = [logs[t] - logs[t - 1] for t in range(1, s + 1)]
    exps = []
    for t in range(1, s + 1):
        here = deltas[t - 1] - (deltas[t] if t < s else 0)
        exps.extend([t] * here)
    return tuple(sorted(exps, reverse=True))


def subgroup_structure(vectors, ring: RingSpec, orders):
    """Exponent multiset of the subgroup generated by ``vectors``."""
    zero = tuple(0 for _ in orders)
    group = {zero}
    for vec in vectors:
        gen = tuple(v % o for v, o in zip(vec, orders))
        order = 1
        acc = gen
        while acc != zero:
            acc = tuple((x + y) % o for x, y, o in zip(acc, gen, orders))
            order += 1
        group = {
            tuple((h[i] + k * gen[i]) % orders[i] for i in range(len(orders)))
            for h in group
            for k in range(order)
        }
    return structure_from_elements(group, ring, orders)


# ---------------------------------------------------------------------------
# Module-theory suites


def check_basis_maneuvers(p: int = 3, max_s: int = 3, max_summands: int = 3):
    """Unit scalings and transvections onto higher-order generators keep bases."""
    result = SuiteResult("basis maneuvers")

    def body():
        for s in range(1, max_s + 1):
            ring = RingSpec(p, s)
            mod = ring.modulus
            units = [u for u in range(1, mod) if u % p]
            for exps in exponent_multisets(s, max_summands):
                module = GradedModule.single(ring, exps)
                n = len(exps)
                maneuvers = []
                for k in range(n):
                    for lam in units:
                        col = [[(lam if i == k else 1) if i == j else 0
                                for j in range(n)] for i in range(n)]
                        maneuvers.append(("scale", k, lam, col))
                for j in range(n):
                    for k in range(n):
                        if j == k or exps[j] > exps[k]:
                            continue  # adding mu*e_j to e_k needs s_j <= s_k
                        for mu in range(mod):
                            col = [[1 if a == b else 0 for b in range(n)]
                                   for a in range(n)]
                            col[j][k] = mu
                            maneuvers.append(("shear", (j, k), mu, col))
                for kind, where, param, matrix in maneuvers:
                    result.cases += 1
                    try:
                        phi = ModuleMorphism.from_dict(module, module, {0: matrix})
                    except InputError as exc:
                        result.fail(f"{kind} {where} {param} on {exps}: rejected ({exc})")
                        continue
                    if not is_injective(phi):
                        result.fail(f"{kind} {where} {param} on {exps}: not a basis")

    return _run(result, body)


def check_split_injections(p: int = 3, s: int = 3, trials: int = 200,
                           seed: int = 0, max_summands: int = 3):
    """Normalizing a split injection exhibits the image as a summand."""
    result = SuiteResult(f"split injections (s={s})")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, s)
        for _ in range(trials):
            m = rng.randint(1, 2)
            dom = GradedModule.free(ring, m)
            cod_exps = tuple(
                sorted(random_exponents(rng, s, max_summands), reverse=True)
            )
            if sum(1 for t in cod_exps if t == s) < m:
                cod_exps = tuple(sorted(cod_exps + (s,) * m, reverse=True))
            cod = GradedModule.single(ring, cod_exps)
            phi = random_morphism(rng, dom, cod)
            result.cases += 1
            injective = is_injective(phi)
            try:
                change = split_injection_normalize(phi)
            except NotInjectiveError as exc:
                if injective:
                    result.fail(f"{phi.matrix_at(0)} into {cod_exps}: spurious rejection")
                    continue
                deg, witness = exc.witness
                if all(c % ring.p ** t == 0 for c, t in zip(witness, dom.exponents_at(deg))):
                    result.fail("witness is zero in the domain")
                if any(phi.apply_at(deg, witness)):
                    result.fail("witness does not map to zero")
                continue
            if not injective:
                result.fail(f"{phi.matrix_at(0)} into {cod_exps}: missed non-injectivity")
                continue
            labels = change.exponents_at(0)
            if tuple(sorted(labels, reverse=True)) != cod_exps:
                result.fail("basis change scrambled the order multiset")
            inv = change.inverse_at(0)
            mat = phi.matrix_at(0)
            n = len(cod_exps)
            for j in range(m):
                coords = [
                    sum(inv[i][k] * mat[k][j] for k in range(n)) % ring.modulus
                    for i in range(n)
                ]
                coords = [c % p ** labels[i] for i, c in enumerate(coords)]
                expected = [1 if i == j else 0 for i in range(n)]
                if coords != expected:
                    result.fail(f"phi(x_{j}) is not e_{j} after the change")
            if dim_of(cod, s) < dim_of(dom, s):
                result.fail("dimension inequality failed on a split injection")

    return _run(result, body)


def check_split_injections_exhaustive(p: int = 3):
    """All 27 maps Z/9 -> Z/9 + Z/3: outcome matches brute-force injectivity."""
    result = SuiteResult("split injections (exhaustive Z/9 -> Z/9+Z/3)")

    def body():
        ring = RingSpec(p, 2)
        dom = GradedModule.free(ring, 1)
        cod = GradedModule.single(ring, (2, 1))
        for a in range(9):
            for b in range(3):
                result.cases += 1
                phi = ModuleMorphism.from_dict(dom, cod, {0: ((a,), (b,))})
                hits = {phi.apply_at(0, (x,)) for x in range(9)}
                brute_injective = len(hits) == 9
                try:
                    split_injection_normalize(phi)
                    outcome = True
                except NotInjectiveError:
                    outcome = False
                if outcome != brute_injective:
                    result.fail(f"map (a={a}, b={b}): normalize says {outcome}")

    return _run(result, body)


def check_factor_tensor(p: int = 3, s: int = 2, trials: int = 200, seed: int = 1):
    """Composites through the A-projection stay injective when B is small."""
    result = SuiteResult("factor through the A part")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, s)
        attempts = 0
        while result.cases < trials and attempts < trials * 60:
            attempts += 1
            x = GradedModule.free(ring, rng.randint(1, 2))
            a = GradedModule.single(ring, random_exponents(rng, s, 2))
            b_exps = tuple(
                rng.randint(1, s - 1) for _ in range(rng.randint(0, 2))
            )
            b = (GradedModule.single(ring, b_exps) if b_exps
                 else GradedModule.zero(ring))
            split = DirectSumSplit(a, b)
            y = GradedModule.single(ring, random_exponents(rng, s, 3))
            f = random_morphism(rng, x, split.module)
            g = random_morphism(rng, split.module, y)
            if not is_injective(compose(g, f)):
                continue
            result.cases += 1
            if not factor_tensor_check(f, g, split):
                result.fail(
                    f"lost injectivity: f={f.matrix_at(0)}, g={g.matrix_at(0)}, "
                    f"A={a.exponents_at(0)}, B={b.exponents_at(0)}"
                )

    return _run(result, body)


def check_surjection_monotonicity(p: int = 3, max_s: int = 3, trials: int = 300,
                                  seed: int = 2):
    """Surjections cannot raise the count of maximal-order summands."""
    result = SuiteResult("surjection monotonicity")

    def body():
        rng = random.Random(seed)
        for s in range(1, max_s + 1):
            ring = RingSpec(p, s)
            found = 0
            attempts = 0
            while found < trials // max_s and attempts < trials * 40:
                attempts += 1
                dom = GradedModule.single(ring, random_exponents(rng, s, 3))
                cod = GradedModule.single(ring, random_exponents(rng, s, 2))
                phi = random_morphism(rng, dom, cod)
                if not is_surjective(phi):
                    continue
                found += 1
                result.cases += 1
                if dim_of(dom, s) < dim_of(cod, s):
                    result.fail(
                        f"s={s}: {dom.exponents_at(0)} onto {cod.exponents_at(0)}"
                    )

    return _run(result, body)


def check_image_dims(p: int = 3, s: int = 3, trials: int = 200, seed: int = 3):
    """Image decompositions match both the mod-p rank and brute enumeration."""
    from .zpmod import image_dims

    result = SuiteResult("image decompositions")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, s)
        for _ in range(trials):
            dom = GradedModule.single(ring, random_exponents(rng, s, 2))
            cod = GradedModule.free(ring, rng.randint(1, 2))
            phi = random_morphism(rng, dom, cod)
            result.cases += 1
            image = image_dims(phi)
            mat = phi.matrix_at(0)
            rank_p = _fp.rank(np.array(mat, dtype=np.int64), p) if mat else 0
            if dim_of(image, s) != rank_p:
                result.fail(f"top count != mod-p rank for {mat}")
            hits = {
                phi.apply_at(0, coords) for coords in elements_at(dom, 0)
            }
            # the image of a homomorphism is already closed
            brute = structure_from_elements(hits, ring, cod.orders_at(0))
            if brute != image.exponents_at(0):
                result.fail(
                    f"{mat}: enumerated {brute}, computed {image.exponents_at(0)}"
                )

    return _run(result, body)


def check_sandwich(p: int = 3, r: int = 3, s: int = 2, trials: int = 200,
                   seed: int = 4):
    """Factorizations of surjections bound the middle module from below."""
    result = SuiteResult("sandwich inequality")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, r)
        found = 0
        attempts = 0
        while found < trials and attempts < trials * 60:
            attempts += 1
            mid = GradedModule.single(ring, random_exponents(rng, r, 3))
            n_exps = tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2)))
            bottom = GradedModule.single(ring, n_exps)
            m = GradedModule.single(ring, random_exponents(rng, r, 3))
            up = random_morphism(rng, m, mid)
            down = random_morphism(rng, mid, bottom)
            if not is_surjective(compose(down, up)):
                continue
            found += 1
            result.cases += 1
            middle_count = sum(dim_of(mid, t) for t in range(s, r + 1))
            if middle_count < dim_of(bottom, s):
                result.fail(
                    f"mid {mid.exponents_at(0)} vs bottom {bottom.exponents_at(0)}"
                )

    return _run(result, body)


def _lattice_is_full(cols, orders):
    """Whether the integer columns plus diag(orders) span Z^2 (or Z^1)."""
    rank = len(orders)
    mats = [list(c) for c in cols]
    for i, o in enumerate(orders):
        mats.append([o if j == i else 0 for j in range(rank)])
    if rank == 1:
        return math.gcd(*(m[0] for m in mats)) == 1
    minors = []
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            minors.append(mats[a][0] * mats[b][1] - mats[a][1] * mats[b][0])
    return math.gcd(*minors) == 1


def _pair_minors(a1, a2, b1, b2, o1, o2):
    """The six 2 x 2 minors of the columns a, b, (o1, 0) and (0, o2)."""
    return a1 * b2 - a2 * b1, -a2 * o1, a1 * o2, -b2 * o1, b1 * o2, o1 * o2


def _saturation_chunk(o1: int, o2: int, a1: int):
    """Every pair a = (a1, a2), b = (b1, b2) of Z/o1 + Z/o2 with a1 fixed, in
    row-major order of (a2, b1, b2).  Returns a2, b1, b2, det(a, b) and
    whether a, b and diag(o1, o2) span Z^2: the gcd of their 2 x 2 minors
    is 1, as _lattice_is_full decides one case at a time."""
    a2, b1, b2 = np.indices((o2, o1, o2)).reshape(3, -1)
    minors = _pair_minors(a1, a2, b1, b2, o1, o2)
    return a2, b1, b2, minors[0], np.gcd.reduce(np.broadcast_arrays(*minors)) == 1


def check_saturation(p: int = 3, max_s: int = 3, trials: int = 1000,
                     seed: int = 5, random_s: int = 4):
    """A + pN = N forces A = N, over all 2-generated submodules.

    Exhaustive over all one- and two-summand N with exponents <= max_s and
    all generator pairs, via integer-lattice index arithmetic; then a
    seeded random pass at exponent random_s.  Both sides come down to p
    not dividing det(a, b) (Nakayama), so the suite checks the lattice
    arithmetic, not zpmod.  The two-summand sweep runs one numpy chunk per
    (s1, s2, a1), of at most p^(3 max_s) pairs.
    """
    result = SuiteResult("submodule saturation")

    def case(orders, a_vec, b_vec):
        result.cases += 1
        cols = [a_vec, b_vec] if b_vec is not None else [a_vec]
        hyp = _lattice_is_full(cols, [p] * len(orders))
        if not hyp:
            return
        if not _lattice_is_full(cols, orders):
            result.fail(f"orders {orders}: span{cols} + pN = N but != N")

    def body():
        for s1 in range(1, max_s + 1):
            o1 = p ** s1
            for a in range(o1):
                case((o1,), (a,), None)
        for s1 in range(1, max_s + 1):
            for s2 in range(s1, max_s + 1):
                o1, o2 = p ** s1, p ** s2
                for a1 in range(o1):
                    a2, b1, b2, det, full = _saturation_chunk(o1, o2, a1)
                    result.cases += len(det)
                    # hypothesis: the images of a, b span (Z/p)^2
                    for i in np.flatnonzero((det % p != 0) & ~full).tolist():
                        pair = [(a1, int(a2[i])), (int(b1[i]), int(b2[i]))]
                        result.fail(f"orders ({o1},{o2}): span{pair}")
        rng = random.Random(seed)
        o = p ** random_s
        for _ in range(trials):
            orders = (p ** rng.randint(1, random_s), o)
            case(orders, (rng.randrange(orders[0]), rng.randrange(orders[1])),
                 (rng.randrange(orders[0]), rng.randrange(orders[1])))

    return _run(result, body)


def check_tor(p: int = 3, max_s: int = 4, oracle_max_s: int = 3):
    """Symmetry, p^{s-1}-annihilation, freeness, and the resolution oracle."""
    result = SuiteResult("torsion products")

    def body():
        for s in range(1, max_s + 1):
            ring = RingSpec(p, s)
            for exps_m in exponent_multisets(s, 2):
                m = GradedModule.single(ring, exps_m)
                for exps_n in exponent_multisets(s, 2):
                    n = GradedModule.single(ring, exps_n)
                    result.cases += 1
                    t_mn = tor(m, n)
                    if t_mn != tor(n, m):
                        result.fail(f"asymmetric on {exps_m}, {exps_n}")
                    if any(e > s - 1 for _, ee in t_mn.components for e in ee):
                        result.fail(f"p^{s-1} does not kill tor({exps_m}, {exps_n})")
            free = GradedModule.free(ring, 2)
            for exps_n in exponent_multisets(s, 2):
                result.cases += 1
                if not tor(free, GradedModule.single(ring, exps_n)).is_zero():
                    result.fail(f"tor(free, {exps_n}) nonzero at s={s}")
        # independent 2-periodic resolution oracle on cyclic pairs
        for s in range(1, oracle_max_s + 1):
            ring = RingSpec(p, s)
            for t in range(1, s + 1):
                for u in range(1, s + 1):
                    result.cases += 1
                    q = p ** u
                    kernel = {x for x in range(q) if x * p ** t % q == 0}
                    image = {x * p ** (s - t) % q for x in range(q)}
                    size = len(kernel) // len(image)
                    e = _exact_log(size, p)
                    got = tor(
                        GradedModule.single(ring, (t,)),
                        GradedModule.single(ring, (u,)),
                    )
                    expected = (e,) if e else ()
                    if got.exponents_at(0) != expected:
                        result.fail(
                            f"s={s}, (t,u)=({t},{u}): oracle {expected}, got "
                            f"{got.exponents_at(0)}"
                        )

    return _run(result, body)


def check_injection_persistence(p: int = 3, s: int = 3, trials: int = 200,
                                seed: int = 6):
    """Injective maps out of free modules stay injective mod p^t, t < s."""
    result = SuiteResult("injection persistence")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, s)
        found = 0
        attempts = 0
        while found < trials and attempts < trials * 40:
            attempts += 1
            rank = rng.randint(1, 2)
            dom = GradedModule.free(ring, rank)
            cod_exps = tuple(
                sorted(random_exponents(rng, s, 2) + (s,) * rank, reverse=True)
            )
            cod = GradedModule.single(ring, cod_exps)
            phi = random_morphism(rng, dom, cod)
            if not is_injective(phi):
                continue
            found += 1
            result.cases += 1
            for t in range(1, s):
                if not is_injective(tensor_morphism(phi, t)):
                    result.fail(f"{phi.matrix_at(0)} into {cod_exps} fails at t={t}")

    return _run(result, body)


def check_snf_properties(p: int = 3, s: int = 3, size: int = 6,
                         trials: int = 1000, seed: int = 7):
    """U A V = D with invertible transforms and sorted p-power diagonal."""
    result = SuiteResult("smith normal form")

    def body():
        rng = random.Random(seed)
        ring = RingSpec(p, s)
        mod = ring.modulus
        for _ in range(trials):
            result.cases += 1
            a = [[rng.randrange(mod) for _ in range(size)] for _ in range(size)]
            u, uinv, v, vinv, vals = smith_normal_form_matrix(a, ring)
            if sorted(vals) != list(vals):
                result.fail("diagonal valuations out of order")
            ua = [[sum(u[i][k] * a[k][j] for k in range(size)) % mod
                   for j in range(size)] for i in range(size)]
            uav = [[sum(ua[i][k] * v[k][j] for k in range(size)) % mod
                    for j in range(size)] for i in range(size)]
            for i in range(size):
                for j in range(size):
                    want = p ** vals[i] % mod if i == j else 0
                    if uav[i][j] != want:
                        result.fail(f"UAV not diagonal at {(i, j)}")
            for mat, inv, tag in ((u, uinv, "U"), (v, vinv, "V")):
                prod = [[sum(mat[i][k] * inv[k][j] for k in range(size)) % mod
                         for j in range(size)] for i in range(size)]
                if any(prod[i][j] != (1 if i == j else 0)
                       for i in range(size) for j in range(size)):
                    result.fail(f"{tag} inverse is wrong")

    return _run(result, body)


def check_tensor_reduce_identity(p: int = 3, max_r: int = 4):
    """dim_{Z/p^s}(M (x) Z/p^s) counts all summands of exponent >= s."""
    result = SuiteResult("tensor reduction counts")

    def body():
        for r in range(1, max_r + 1):
            ring = RingSpec(p, r)
            for exps in exponent_multisets(r, 3):
                module = GradedModule.single(ring, exps)
                for s in range(1, r + 1):
                    result.cases += 1
                    reduced = tensor_reduce(module, s)
                    lhs = dim_of(reduced, s)
                    rhs = sum(dim_of(module, t) for t in range(s, r + 1))
                    if lhs != rhs:
                        result.fail(f"r={r}, exps={exps}, s={s}: {lhs} != {rhs}")

    return _run(result, body)


# ---------------------------------------------------------------------------
# Free-algebra and differential suites


def random_tree(rng, n_gens: int, weight: int):
    if weight == 1:
        return rng.randrange(n_gens)
    left = rng.randint(1, weight - 1)
    return (
        random_tree(rng, n_gens, left),
        random_tree(rng, n_gens, weight - left),
    )


def _standard_gens(p: int):
    ring = RingSpec(p, 1)
    return GeneratorSet.build([("x", 2), ("y", 1)], ring)


def check_bracket_identities(p: int = 3, trials: int = 300, seed: int = 8,
                             max_weight: int = 6):
    """Antisymmetry, Jacobi, and the odd cube hold in the tensor model."""
    result = SuiteResult("bracket identities")

    def body():
        rng = random.Random(seed)
        gens = _standard_gens(p)

        def elem(w):
            return FreeNAElement.from_tree(gens, random_tree(rng, gens.n, w))

        for _ in range(trials):
            result.cases += 1
            wa = rng.randint(1, max_weight // 2)
            wb = rng.randint(1, max_weight // 2)
            wc = rng.randint(1, max_weight - wa - wb) if max_weight > wa + wb else 1
            a, b, c = elem(wa), elem(wb), elem(wc)
            ea, eb = embed_tensor(a), embed_tensor(b)
            sign_ab = -1 if (a.degree % 2 and b.degree % 2) else 1
            hom = embed_tensor(bracket(a, b)) + (ea * eb).scale(-1) + (eb * ea).scale(sign_ab)
            if not hom.is_zero():
                result.fail("embedding is not a commutator homomorphism")
            anti = embed_tensor(bracket(a, b) + bracket(b, a).scale(sign_ab))
            if not anti.is_zero():
                result.fail("antisymmetry fails")
            sign = -1 if (a.degree % 2 and b.degree % 2) else 1
            jac = embed_tensor(
                bracket(a, bracket(b, c))
                + bracket(bracket(a, b), c).scale(-1)
                + bracket(b, bracket(a, c)).scale(-sign)
            )
            if not jac.is_zero():
                result.fail("Jacobi fails")
            if a.degree % 2:
                cube = embed_tensor(bracket(a, bracket(a, a)))
                if not cube.is_zero():
                    result.fail("odd cube is nonzero")

    return _run(result, body)


def check_hall_counts(max_n: int = 3, max_k: int = 8):
    """Basic-product counts agree with the Witt numbers."""
    result = SuiteResult("hall basis counts")

    def body():
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                result.cases += 1
                got = len(basic_products(n, k))
                want = witt(n, k)
                if got != want:
                    result.fail(f"n={n}, k={k}: {got} products, Witt {want}")

    return _run(result, body)


def check_differential(p: int = 3, trials: int = 300, seed: int = 9,
                       max_weight: int = 8):
    """d*d = 0, d commutes with the embedding, and weight is preserved."""
    result = SuiteResult("differential consistency")

    def body():
        rng = random.Random(seed)
        gens, spec = differential_pair(p, 2)
        for _ in range(trials):
            result.cases += 1
            w = rng.randint(1, max_weight)
            elem = FreeNAElement.from_tree(gens, random_tree(rng, gens.n, w))
            d1 = differentiate(elem, spec)
            if not differentiate(d1, spec).is_zero():
                result.fail("d*d is nonzero on a tree")
            if not d1.is_zero() and d1.weight != w:
                result.fail("d changed the weight")
            lhs = embed_tensor(d1)
            rhs = differentiate(embed_tensor(elem), spec)
            if not (lhs + rhs.scale(-1)).is_zero():
                result.fail("d does not commute with the tensor embedding")

    return _run(result, body)


def check_cycles(primes=(3, 5)):
    """tau and sigma are cycles."""
    result = SuiteResult("tau/sigma cycles")

    def body():
        for p in primes:
            gens, spec = differential_pair(p, 2)
            x = FreeNAElement.generator(gens, "x")
            ks = (1, 2) if p == 3 else (1,)
            for k in ks:
                for name, cycle in (("tau", tau(x, spec, k)),
                                    ("sigma", sigma(x, spec, k))):
                    result.cases += 1
                    img = embed_tensor(differentiate(cycle, spec))
                    if not img.is_zero():
                        result.fail(f"{name}_{k} at p={p} is not a cycle")

    return _run(result, body)


def check_projection_identities(p: int = 3, trials: int = 200, seed: int = 10):
    """Weight projections: identities on inclusions and on products."""
    result = SuiteResult("weight projections")

    def body():
        rng = random.Random(seed)
        gens = _standard_gens(p)

        def random_tensor(max_weight=3, terms=3):
            out = TensorElement.zero(gens)
            for _ in range(rng.randint(1, terms)):
                w = rng.randint(1, max_weight)
                word = tuple(rng.randrange(gens.n) for _ in range(w))
                out = out + TensorElement.from_word(gens, word, rng.randint(1, p - 1))
            return out

        for _ in range(trials):
            result.cases += 1
            k = rng.randint(1, 3)
            word = tuple(rng.randrange(gens.n) for _ in range(k))
            pure = TensorElement.from_word(gens, word)
            if zeta(pure, k).terms != pure.terms:
                result.fail("zeta . iota is not the identity")
            for j in range(1, 5):
                if j != k and not zeta(pure, j).is_zero():
                    result.fail("zeta_j . iota_k is nonzero for j != k")
            factors = [random_tensor() for _ in range(rng.randint(2, 3))]
            prod = factors[0]
            for f in factors[1:]:
                prod = prod * f
            kk = len(factors)
            lead = zeta(factors[0], 1)
            for f in factors[1:]:
                lead = lead * zeta(f, 1)
            got = zeta(prod, kk)
            if (got + lead.scale(-1)).terms != ():
                result.fail("leading weight of a product is not the product of leads")
            for j in range(1, kk):
                if not zeta(prod, j).is_zero():
                    result.fail("a k-fold product has weight below k")

    return _run(result, body)


DEFAULT_SUITES = (
    check_basis_maneuvers,
    check_split_injections,
    check_split_injections_exhaustive,
    check_factor_tensor,
    check_surjection_monotonicity,
    check_image_dims,
    check_sandwich,
    check_saturation,
    check_tor,
    check_injection_persistence,
    check_snf_properties,
    check_tensor_reduce_identity,
    check_bracket_identities,
    check_hall_counts,
    check_differential,
    check_cycles,
    check_projection_identities,
)


def run_all(trials: int | None = None, seed: int | None = None):
    """Run every suite, optionally overriding trial counts and seeds."""
    results = []
    for suite in DEFAULT_SUITES:
        kwargs = {}
        params = suite.__code__.co_varnames[: suite.__code__.co_argcount]
        if trials is not None and "trials" in params:
            kwargs["trials"] = trials
        if seed is not None and "seed" in params:
            kwargs["seed"] = seed
        results.append(suite(**kwargs))
    return results
