"""Exponential-growth diagnostics for integer sequences.

The library's upstream modules are exact; this is the one place floating
point enters.  A sequence a_m "grows exponentially" when
liminf ln(a_m)/m > 0, which no finite prefix can decide, so the verdict
here is an operationalization: the infimum of ln(a_m)/m over a tail
window, compared against a threshold.  Certificates produced elsewhere in
the package come with analytic lower bounds; the numeric verdict is a
cross-check on them, not the proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .freelie import witt

DEFAULT_EPSILON = 0.05
DEFAULT_WINDOW = 0.5


@dataclass(frozen=True)
class GrowthSequence:
    """Non-negative values a_m at strictly increasing indices m."""

    points: tuple  # ((m, a_m), ...)

    def __post_init__(self):
        pts = tuple((int(m), int(a)) for m, a in self.points)
        for (m1, a1), (m2, _) in zip(pts, pts[1:]):
            if m2 <= m1:
                raise InputError("indices must be strictly increasing")
        if any(a < 0 for _, a in pts):
            raise InputError("values must be non-negative")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_values(cls, values, start: int = 1) -> "GrowthSequence":
        return cls(tuple((start + i, v) for i, v in enumerate(values)))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class GrowthReport:
    ratios: tuple        # ((m, ln(a_m)/m), ...) over the positive entries
    tail_infimum: float
    base: float          # exp(tail_infimum)
    verdict: str         # "exponential" | "inconclusive" | "subexponential"
    epsilon: float
    window_fraction: float

    def to_json_dict(self):
        return {
            "ratios": [[m, x] for m, x in self.ratios],
            "tail_inf": self.tail_infimum,
            "base": self.base,
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "window": self.window_fraction,
        }


def check_window(epsilon: float, window: float):
    """Require 0 < window <= 1 and a finite epsilon > 0 (NaN fails both)."""
    if not (0 < window <= 1 and 0 < epsilon < math.inf):
        raise InputError(
            f"need 0 < window <= 1 and a finite epsilon > 0, got {window}, {epsilon}"
        )


def analyze(seq: GrowthSequence, epsilon: float = DEFAULT_EPSILON,
            window: float = DEFAULT_WINDOW) -> GrowthReport:
    """Tail-window growth verdict for a sequence.

    The window is the last ceil(window * len) points, for 0 < window <= 1;
    epsilon must be finite and positive.  A zero inside the
    window forces the verdict "subexponential" (ln is undefined there and
    no exponential lower bound can hold).  Otherwise the tail infimum of
    ln(a_m)/m decides: above epsilon it is "exponential", at or below
    epsilon/2 "subexponential", and in between "inconclusive".  All
    arithmetic is binary64 with ratios computed as math.log(a)/m; the
    report is a deterministic function of the input.
    """
    check_window(epsilon, window)
    if len(seq) < 2:
        raise InputError("need at least two points to analyze")
    pts = seq.points
    ratios = tuple((m, math.log(a) / m) for m, a in pts if a > 0)
    tail_len = math.ceil(window * len(pts))
    tail = pts[-tail_len:]
    if any(a == 0 for _, a in tail):
        return GrowthReport(ratios, 0.0, 1.0, "subexponential", epsilon, window)
    tail_inf = min(math.log(a) / m for m, a in tail)
    if tail_inf > epsilon:
        verdict = "exponential"
    elif tail_inf <= epsilon / 2:
        verdict = "subexponential"
    else:
        verdict = "inconclusive"
    return GrowthReport(
        ratios, tail_inf, math.exp(tail_inf), verdict, epsilon, window
    )


def witt_asymptotic(n: int, max_k: int):
    """Exact ratios k * W_n(k) / n^k for k = 1..max_k.

    The ratios tend to 1; they are returned as Fractions so callers can
    compare exactly and render to binary64 only for display.
    """
    if n < 2:
        raise InputError("need n >= 2")
    return [(k, Fraction(k * witt(n, k), n ** k)) for k in range(1, max_k + 1)]
