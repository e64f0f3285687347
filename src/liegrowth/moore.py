"""Symbolic calculus of wedges of mod-p^r Moore spaces.

A Moore space P^n(p^r) is the cofibre of the degree p^r self-map of
S^{n-1}; its reduced mod-p^s homology (s <= r) is one copy of Z/p^s in
degrees n and n-1 and nothing else.  Everything in this module is exact
bookkeeping on formal wedges: prime-power splittings, smash expansion,
Poincare polynomials, weight-indexed loop-space factors, and the
lower-bound growth certificate they produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import (
    DegenerateInputError,
    InputError,
    InvalidCoefficientError,
    ResourceGuardError,
    UnsupportedInputError,
)
from .freelie import mobius, witt
from .zpmod import MR_BOUND, _index, _json, is_prime

TRIAL_DIVISION_BOUND = 2 ** 20  # largest trial divisor crt_split tries
HM_GUARD = 2 ** 16  # a Hilton-Milnor expansion with more Moore summands is refused
ORDER_BITS = 2 ** 13  # a larger order p^r is refused
MAX_GROWTH_WEIGHT = 517  # 4^k / (2k) as a float overflows from k = 518


def prime_power(p: int, r: int) -> int:
    """p^r for a prime p and r >= 1, refused above 2^ORDER_BITS: Python
    prints at most 4300 digits."""
    order = p ** min(r, ORDER_BITS + 1)  # p >= 2, so no larger r passes
    if order > 2 ** ORDER_BITS:
        raise InputError(f"the order {p}^{r} is above 2^{ORDER_BITS}")
    return order


@dataclass(frozen=True, order=True)
class MooreSummand:
    """One Moore space P^dim(p^r)."""

    dim: int
    p: int
    r: int

    def __post_init__(self):
        if self.dim < 2:
            raise InputError(f"Moore summand needs dim >= 2, got {self.dim}")
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.r < 1:
            raise InputError(f"r must be >= 1, got {self.r}")

    @property
    def order(self) -> int:
        return prime_power(self.p, self.r)


@dataclass(frozen=True)
class MooreWedge:
    """A formal finite wedge of Moore summands with multiplicities."""

    terms: tuple  # ((MooreSummand, multiplicity), ...) canonically sorted

    def __post_init__(self):
        acc: dict[MooreSummand, int] = {}
        for summand, mult in self.terms:
            if mult < 1:
                raise InputError("multiplicities must be >= 1")
            acc[summand] = acc.get(summand, 0) + mult
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=lambda t: t[0]))
        )

    @classmethod
    def of(cls, *summands: MooreSummand) -> "MooreWedge":
        return cls(tuple((s, 1) for s in summands))

    @classmethod
    def from_pairs(cls, pairs) -> "MooreWedge":
        return cls(tuple(pairs))

    def is_empty(self) -> bool:
        return not self.terms

    def total_summands(self) -> int:
        return sum(m for _, m in self.terms)

    def wedge(self, other: "MooreWedge") -> "MooreWedge":
        return MooreWedge(self.terms + other.terms)

    def primes(self):
        return sorted({s.p for s, _ in self.terms})

    def to_json(self):
        return [
            {"dim": s.dim, "p": s.p, "r": s.r, "mult": m} for s, m in self.terms
        ]

    @classmethod
    def from_json(cls, data) -> "MooreWedge":
        pairs = []
        for item in _json(data, "a wedge"):
            item = _json(item, "a wedge term", ("dim", "p", "r", "mult"))
            dim, p, r, mult = (_index(item[k], k) for k in ("dim", "p", "r", "mult"))
            pairs.append((MooreSummand(dim, p, r), mult))
        return cls.from_pairs(pairs)

    def __str__(self):
        if self.is_empty():
            return "*"
        bits = []
        for s, m in self.terms:
            head = f"{m}*" if m > 1 else ""
            bits.append(f"{head}P^{s.dim}({s.order})")
        return " v ".join(bits)


def _decided_prime(q: int) -> bool:
    """True if q is a prime that is_prime can decide; False above MR_BOUND."""
    return q < MR_BOUND and is_prime(q)


def _iroot(m: int, e: int) -> int:
    """floor(m ** (1/e)) by Newton's method from above."""
    q = 1 << -(-m.bit_length() // e)
    while True:
        t = ((e - 1) * q + m // q ** (e - 1)) // e
        if t >= q:
            return q
        q = t


def crt_split(n: int, ell: int) -> MooreWedge:
    """Split P^n(ell) into prime-power Moore summands, for n >= 3.

    The degree-1 cofibre is contractible, so ell <= 1 is reported as
    degenerate rather than silently dropped.  Factors are found by trial
    division up to TRIAL_DIVISION_BOUND, stopping once the cofactor left is
    prime.  A cofactor left composite (or too large to test) is accepted only
    as a power of one prime; otherwise it is refused.
    """
    if n < 3:
        raise InputError(f"splitting needs dim >= 3, got {n}")
    if ell <= 1:
        raise DegenerateInputError(
            f"P^{n}({ell}) is contractible (or ill-formed); nothing to split"
        )
    summands = []
    rest = ell
    rest_is_prime = _decided_prime(rest)
    d = 2
    while not rest_is_prime and d * d <= rest and d <= TRIAL_DIVISION_BOUND:
        if rest % d == 0:
            r = 0
            while rest % d == 0:
                rest //= d
                r += 1
            summands.append(MooreSummand(n, d, r))
            rest_is_prime = _decided_prime(rest)
        else:
            d += 1
    if not rest_is_prime and d * d <= rest:
        # every prime up to the bound is divided out, so only roots above it
        e = 2
        while (q := _iroot(rest, e)) > TRIAL_DIVISION_BOUND:
            if q ** e == rest and _decided_prime(q):
                summands.append(MooreSummand(n, q, e))
                break
            e += 1
        else:
            raise ResourceGuardError(
                f"the cofactor {rest} of {ell} has no prime factor up to the "
                f"trial-division guard of {TRIAL_DIVISION_BOUND} and is not "
                "a prime power"
            )
    elif rest > 1:
        summands.append(MooreSummand(n, rest, 1))
    return MooreWedge.of(*summands)


def homology_poincare(wedge: MooreWedge, p: int, s: int) -> list[int]:
    """Coefficients of the reduced mod-p^s homology Poincare polynomial.

    Each summand at the prime p contributes t^dim + t^{dim-1}; summands at
    other primes are locally contractible and contribute nothing.  Asking
    for s above some summand's r is an invalid coefficient choice.
    """
    if s < 1:
        raise InvalidCoefficientError(f"coefficient exponent must be >= 1, got {s}")
    top = 0
    for summand, _ in wedge.terms:
        if summand.p == p:
            if s > summand.r:
                raise InvalidCoefficientError(
                    f"coefficients Z/{p}^{s} exceed the summand order {summand.order}"
                )
            top = max(top, summand.dim)
    coeffs = [0] * (top + 1)
    for summand, mult in wedge.terms:
        if summand.p != p:
            continue
        coeffs[summand.dim] += mult
        coeffs[summand.dim - 1] += mult
    return coeffs


def _common_pr(wedge: MooreWedge):
    prs = {(s.p, s.r) for s, _ in wedge.terms}
    if len(prs) != 1:
        raise UnsupportedInputError("smash rules need a single (p, r) throughout")
    return prs.pop()


def smash(a: MooreWedge, b: MooreWedge) -> MooreWedge:
    """Distribute the smash product over two wedges.

    Pairwise, P^n(p^r) ^ P^m(p^r) = P^{n+m}(p^r) v P^{n+m-1}(p^r); this
    needs a common p^r != 2 on both sides.
    """
    if a.is_empty() or b.is_empty():
        return MooreWedge(())
    pa = _common_pr(a)
    pb = _common_pr(b)
    if pa != pb:
        raise UnsupportedInputError("smash rules need a single (p, r) throughout")
    p, r = pa
    if (p, r) == (2, 1):
        raise UnsupportedInputError("the smash rule excludes p^r = 2")
    pairs = []
    for sa, ma in a.terms:
        for sb, mb in b.terms:
            mult = ma * mb
            pairs.append((MooreSummand(sa.dim + sb.dim, p, r), mult))
            pairs.append((MooreSummand(sa.dim + sb.dim - 1, p, r), mult))
    return MooreWedge.from_pairs(pairs)


def smash_power_binomial(n: int, m: int, k1: int, k2: int,
                         p: int, r: int) -> MooreWedge:
    """Closed form for P^n(p^r)^{^k1} ^ P^m(p^r)^{^k2}.

    With k = k1 + k2 >= 1 the result is the wedge of
    P^{k1 n + k2 m - i}(p^r) with multiplicity C(k-1, i), i = 0..k-1.
    """
    if n < 2 or m < 2:
        raise InputError("Moore dimensions must be >= 2")
    if k1 < 0 or k2 < 0 or k1 + k2 < 1:
        raise InputError("need k1, k2 >= 0 with k1 + k2 >= 1")
    if (p, r) == (2, 1):
        raise UnsupportedInputError("the smash rule excludes p^r = 2")
    return _binomial_wedge(k1 * n + k2 * m, k1 + k2, p, r)


def _binomial_wedge(top: int, k: int, p: int, r: int) -> MooreWedge:
    """P^{top - i}(p^r) with multiplicity C(k-1, i) for i = 0..k-1."""
    return MooreWedge.from_pairs(
        (MooreSummand(top - i, p, r), comb(k - 1, i)) for i in range(k)
    )


@dataclass(frozen=True)
class HMFactor:
    """One group of loop-space factors sharing the letter counts (k1, k2).

    ``wedge`` is the suspended smash-power wedge attached to each such
    factor and ``count`` how many basic products have these letter counts.
    """

    k1: int
    k2: int
    wedge: MooreWedge
    count: int

    @property
    def weight(self) -> int:
        return self.k1 + self.k2


def _necklaces(k1: int, k2: int) -> int:
    """Basic products with k1 letters of one kind and k2 of the other.

    The multigraded Witt (necklace) number
    (1/k) sum over d | gcd(k1, k2) of mu(d) C(k/d, k1/d), k = k1 + k2
    (M. Hall 1950; Reutenauer, Free Lie Algebras, 1993).
    """
    k, g = k1 + k2, gcd(k1, k2)
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    return sum(mobius(d) * comb(k // d, k1 // d) for d in divisors) // k


def hilton_milnor_expansion(n: int, m: int, p: int, r: int, max_weight: int):
    """Weight-indexed loop factors of the wedge P^{n+1}(p^r) v P^{m+1}(p^r).

    For every basic product of weight k <= max_weight on two letters, the
    corresponding factor is the loops on a suspension, so its wedge gains
    one dimension over the raw smash power: summands
    P^{k1 n + k2 m + 1 - i}(p^r) with multiplicity C(k-1, i).  Factors are
    grouped by letter counts, counted by the necklace formula; counts over
    a fixed weight k sum to W_2(k).

    Weight 1 has two groups of one summand each and weight k >= 2 has k - 1
    groups (0 < k1 < k) of k summands, so the expansion lists
    2 + (K - 1) K (K + 1) / 3 summands to weight K; more than HM_GUARD are
    refused before any is built, with no override.
    """
    if (p, r) == (2, 1):
        raise UnsupportedInputError("the smash rule excludes p^r = 2")
    summands = 2 + (max_weight - 1) * max_weight * (max_weight + 1) // 3
    if summands > HM_GUARD:
        raise ResourceGuardError(
            f"the expansion to weight {max_weight} has {summands} Moore summands, "
            f"above the guard of {HM_GUARD}; this guard has no override"
        )
    out = []
    for k in range(1, max_weight + 1):
        for k1 in range(k + 1):
            count = _necklaces(k1, k - k1)
            if not count:
                continue
            wedge = _binomial_wedge(k1 * n + (k - k1) * m + 1, k, p, r)
            out.append(HMFactor(k1, k - k1, wedge, count))
    return out


# ---------------------------------------------------------------------------
# The growth certificate


@dataclass(frozen=True)
class GrowthParams:
    """Parameters for the homotopy-summand lower-bound certificate.

    n and m are the bottom-cell dimensions of the two wedge factors (the
    wedge itself is P^{n+1}(p^r) v P^{m+1}(p^r)).  j is the user-supplied
    stable offset: a dimension shift at which a Z/p^s summand is known to
    sit in the stable homotopy of a Moore space.  No default is provided
    for j; justifying a value is outside this library's scope.
    """

    n: int
    m: int
    p: int
    r: int
    s: int
    j: int
    max_weight: int

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise InputError("bottom-cell dimensions must be >= 2")
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if not 1 <= self.s <= self.r:
            raise InputError("need 1 <= s <= r")
        if (self.p, self.r) == (2, 1):
            raise UnsupportedInputError("p^r = 2 is excluded")
        if self.j < 0:
            raise InputError("the stable offset j must be >= 0")
        if self.max_weight < 1:
            raise InputError("max_weight must be >= 1")
        if self.max_weight > MAX_GROWTH_WEIGHT:
            raise InputError(
                f"max_weight {self.max_weight} is above {MAX_GROWTH_WEIGHT}: the "
                "certificate prints 4^k / (2k) as a float, which overflows beyond it"
            )


@dataclass(frozen=True)
class ContributionRecord:
    weight: int
    count: int            # 2^{k-1} W_2(k), the per-weight summand count
    contributes: bool     # above the dimension threshold for this j
    booked_dim: int       # k * max(n, m) + 1 + j
    asymptote: Fraction   # 4^k / (2k), for comparison

    def to_json_dict(self):
        return {
            "k": self.weight,
            "count": self.count,
            "contributes": self.contributes,
            "maxdim": self.booked_dim,
            "asymptote": float(self.asymptote),
        }


@dataclass(frozen=True)
class GrowthCertificate:
    params: GrowthParams
    contributions: tuple  # ContributionRecord per weight 1..max_weight
    cumulative: tuple     # (dimension, cumulative count), contributing weights only

    def to_json_dict(self):
        return {
            "params": {
                "n": self.params.n,
                "m": self.params.m,
                "p": self.params.p,
                "r": self.params.r,
                "s": self.params.s,
                "j": self.params.j,
                "K": self.params.max_weight,
            },
            "contributions": [c.to_json_dict() for c in self.contributions],
            "cumulative": [[d, a] for d, a in self.cumulative],
        }


def growth_certificate(params: GrowthParams) -> GrowthCertificate:
    """Cumulative lower bounds on Z/p^s-summand counts in homotopy.

    Each weight-k family of loop factors supplies 2^{k-1} W_2(k) summands
    in dimensions at most k*max(n, m) + 1 + j, provided k clears the
    stability threshold k > (j+1)/(min(n, m)-1); weights at or below the
    threshold are listed but book nothing.  The cumulative sequence is
    sampled at the booked dimensions, one point per contributing weight.
    """
    lo = min(params.n, params.m) - 1
    hi = max(params.n, params.m)
    records = []
    cumulative = []
    total = 0
    for k in range(1, params.max_weight + 1):
        count = 2 ** (k - 1) * witt(2, k)
        booked_dim = k * hi + 1 + params.j
        contributes = k * lo > params.j + 1
        records.append(
            ContributionRecord(
                k, count, contributes, booked_dim, Fraction(4 ** k, 2 * k)
            )
        )
        if contributes:
            total += count
            cumulative.append((booked_dim, total))
    return GrowthCertificate(params, tuple(records), tuple(cumulative))
