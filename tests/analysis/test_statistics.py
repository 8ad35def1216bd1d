"""Tests for the statistical-rigor helpers."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.analysis.statistics import (
    bootstrap_interval,
    compare_proportions,
    vendor_share_intervals,
    wilson_interval,
)


class TestWilson:
    def test_contains_point_estimate(self):
        est = wilson_interval(42, 100)
        assert est.low < est.point < est.high
        assert est.point == 0.42

    def test_small_sample_wide_interval(self):
        small = wilson_interval(2, 5)
        large = wilson_interval(400, 1000)
        assert (small.high - small.low) > (large.high - large.low)

    def test_extremes_bounded(self):
        zero = wilson_interval(0, 50)
        full = wilson_interval(50, 50)
        assert zero.low == 0.0 and zero.high > 0.0
        assert full.high == 1.0 and full.low < 1.0

    def test_no_trials(self):
        est = wilson_interval(0, 0)
        assert (est.low, est.high) == (0.0, 1.0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_confidence_widens_interval(self):
        c95 = wilson_interval(30, 100, confidence=0.95)
        c99 = wilson_interval(30, 100, confidence=0.99)
        assert (c99.high - c99.low) > (c95.high - c95.low)

    def test_known_value(self):
        # Wilson 95% for 5/10 is approximately [0.237, 0.763].
        est = wilson_interval(5, 10)
        assert est.low == pytest.approx(0.237, abs=0.01)
        assert est.high == pytest.approx(0.763, abs=0.01)

    def test_str(self):
        assert "[" in str(wilson_interval(3, 10))


class TestBootstrap:
    def test_mean_recovery(self):
        values = [10.0] * 50
        est = bootstrap_interval(values)
        assert est.point == 10.0
        assert est.low == est.high == 10.0

    def test_interval_contains_true_mean_usually(self):
        rng = np.random.default_rng(3)
        values = list(rng.normal(5.0, 2.0, size=200))
        est = bootstrap_interval(values)
        assert est.low < 5.0 < est.high

    def test_median_statistic(self):
        values = [1.0, 2.0, 3.0, 100.0]
        est = bootstrap_interval(values, statistic=np.median)
        assert est.point == 2.5

    def test_deterministic_given_seed(self):
        values = [1.0, 5.0, 9.0, 2.0, 7.0]
        a = bootstrap_interval(values, seed=11)
        b = bootstrap_interval(values, seed=11)
        assert (a.low, a.high) == (b.low, b.high)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_interval([])


class TestCompareProportions:
    def test_identical_not_significant(self):
        result = compare_proportions(50, 100, 50, 100)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_large_difference_significant(self):
        result = compare_proportions(90, 100, 10, 100)
        assert result.significant()
        assert result.z_score > 5

    def test_small_samples_not_significant(self):
        result = compare_proportions(3, 5, 2, 5)
        assert not result.significant()

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            compare_proportions(0, 0, 1, 10)


class TestVendorShares:
    def test_intervals_for_census(self):
        counts = {"Cisco": 240, "Huawei": 52, "Juniper": 16}
        intervals = vendor_share_intervals(counts)
        assert intervals["Cisco"].point > intervals["Huawei"].point
        # Cisco's dominance is statistically separable from Huawei's share.
        assert intervals["Cisco"].low > intervals["Huawei"].high


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=1e-13, abs_tol=1e-15)


class TestScipyParity:
    """Reference values captured from ``scipy.stats.norm`` (scipy 1.17.1).

    The helpers use the standard library (``NormalDist.inv_cdf`` and
    ``math.erfc``); these literals pin them to the scipy results they
    replaced, so the suite needs no scipy.
    """

    # confidence -> scipy.stats.norm.ppf(0.5 + confidence / 2)
    Z_QUANTILES = {
        0.8: 1.2815515655446004,
        0.9: 1.6448536269514722,
        0.95: 1.959963984540054,
        0.99: 2.5758293035489004,
        0.999: 3.2905267314919255,
    }

    # (successes, trials, confidence) -> (low, high)
    WILSON = {
        (42, 100, 0.95): (0.3279838267435473, 0.5179351329695703),
        (2, 5, 0.95): (0.11762077423264783, 0.769275718723987),
        (400, 1000, 0.95): (0.37007478121137727, 0.4306905704857338),
        (0, 50, 0.95): (0.0, 0.07134759913335872),
        (50, 50, 0.95): (0.9286524008666414, 1.0),
        (30, 100, 0.95): (0.2189488529493276, 0.3958485463334666),
        (30, 100, 0.99): (0.19746065620990516, 0.427427618876424),
        (5, 10, 0.95): (0.236593090512564, 0.7634069094874361),
        (3, 10, 0.95): (0.10779126740630099, 0.6032218525388546),
        (240, 308, 0.95): (0.7296175902734068, 0.8219447345388895),
        (52, 308, 0.95): (0.13113415054134303, 0.21468727816965444),
        (16, 308, 0.95): (0.03222562112898463, 0.0827092530094237),
    }

    # (s1, n1, s2, n2) -> 2 * scipy.stats.norm.sf(|z|)
    P_VALUES = {
        (50, 100, 50, 100): 1.0,
        (90, 100, 10, 100): 1.1224297172982608e-29,
        (3, 5, 2, 5): 0.5270892568655383,
        (1, 10**6, 900, 10**6): 3.590329417913373e-197,
    }

    @pytest.mark.parametrize("confidence", sorted(Z_QUANTILES))
    def test_z_quantile(self, confidence):
        z = NormalDist().inv_cdf(0.5 + confidence / 2)
        assert _close(z, self.Z_QUANTILES[confidence])

    @pytest.mark.parametrize("args", sorted(WILSON))
    def test_wilson_bounds(self, args):
        successes, trials, confidence = args
        est = wilson_interval(successes, trials, confidence=confidence)
        low, high = self.WILSON[args]
        assert _close(est.low, low) and _close(est.high, high)

    @pytest.mark.parametrize("args", sorted(P_VALUES))
    def test_p_value(self, args):
        assert _close(compare_proportions(*args).p_value, self.P_VALUES[args])

    def test_far_tail_p_value_not_rounded_to_zero(self):
        # abs_tol would let 0.0 pass test_p_value; 1 - cdf rounds to it.
        result = compare_proportions(1, 10**6, 900, 10**6)
        assert 0.0 < result.p_value < 1e-196
        assert result.significant()
