import math
from fractions import Fraction

import pytest

from liegrowth.errors import InputError
from liegrowth.growth import GrowthSequence, analyze, witt_asymptotic
from liegrowth.moore import GrowthParams, growth_certificate


class TestGrowthSequence:
    def test_validation(self):
        with pytest.raises(InputError):
            GrowthSequence(((1, 1), (1, 2)))
        with pytest.raises(InputError):
            GrowthSequence(((1, -1), (2, 0)))

    def test_from_values(self):
        seq = GrowthSequence.from_values([1, 2, 4])
        assert seq.points == ((1, 1), (2, 2), (3, 4))


class TestAnalyze:
    def test_geometric_sequence(self):
        seq = GrowthSequence.from_values([2 ** m for m in range(1, 41)])
        report = analyze(seq)
        assert report.verdict == "exponential"
        assert abs(report.tail_infimum - math.log(2)) < 1e-12
        assert abs(report.base - 2.0) < 1e-12

    def test_polynomial_sequence(self):
        seq = GrowthSequence.from_values([m * m for m in range(1, 10001)])
        report = analyze(seq, epsilon=0.05)
        assert report.verdict == "subexponential"
        assert report.tail_infimum < 0.01

    def test_zero_in_window(self):
        seq = GrowthSequence.from_values([0, 0, 0, 0, 0, 1])
        report = analyze(seq)
        assert report.verdict == "subexponential"
        assert report.tail_infimum == 0.0

    def test_certificate_sequence_is_exponential(self):
        cert = growth_certificate(GrowthParams(2, 2, 5, 2, 2, 7, 14))
        report = analyze(GrowthSequence(cert.cumulative))
        assert report.verdict == "exponential"
        assert report.tail_infimum >= 0.2

    @pytest.mark.parametrize("window", [-0.5, 0.0, 1.5, 2.0, math.nan, math.inf])
    def test_rejects_bad_window(self, window):
        seq = GrowthSequence.from_values([2 ** m for m in range(1, 11)])
        with pytest.raises(InputError):
            analyze(seq, window=window)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_epsilon(self, epsilon):
        seq = GrowthSequence.from_values([2 ** m for m in range(1, 11)])
        with pytest.raises(InputError):
            analyze(seq, epsilon=epsilon)

    def test_full_window_accepted(self):
        seq = GrowthSequence.from_values([2 ** m for m in range(1, 11)])
        assert analyze(seq, window=1.0).verdict == "exponential"

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            analyze(GrowthSequence(((5, 5),)))

    def test_deterministic(self):
        seq = GrowthSequence.from_values([3 ** m for m in range(1, 31)])
        assert analyze(seq) == analyze(seq)

    def test_scaling_never_downgrades_exponential(self):
        base = [2 ** m for m in range(1, 31)]
        verdict = analyze(GrowthSequence.from_values(base)).verdict
        assert verdict == "exponential"
        for c in (2, 10):
            scaled = GrowthSequence.from_values([c * v for v in base])
            report = analyze(scaled)
            assert report.verdict == "exponential"

    def test_inconclusive_band(self):
        # ratios sitting between eps/2 and eps
        seq = GrowthSequence.from_values(
            [round(math.exp(0.04 * m)) + 1 for m in range(50, 80)], start=50
        )
        report = analyze(seq, epsilon=0.05)
        assert report.verdict == "inconclusive"


class TestWittAsymptotic:
    def test_k1(self):
        assert witt_asymptotic(2, 1) == [(1, Fraction(1))]

    def test_k20_exact_value(self):
        ratios = dict(witt_asymptotic(2, 20))
        assert ratios[20] == Fraction(1047540, 1048576)
        assert abs(float(ratios[20]) - 0.999012) < 1e-6

    def test_monotone_approach(self):
        ratios = dict(witt_asymptotic(2, 20))
        assert abs(ratios[20] - 1) < abs(ratios[6] - 1)

    def test_tail_envelope(self):
        # |ratio - 1| <= 2 k n^{floor(k/2)+1} / n^k for k >= 2
        for n in (2, 3):
            for k, ratio in witt_asymptotic(n, 24)[1:]:
                bound = Fraction(2 * k * n ** (k // 2 + 1), n ** k)
                assert abs(ratio - 1) <= bound

    def test_requires_n_at_least_two(self):
        with pytest.raises(InputError):
            witt_asymptotic(1, 5)
