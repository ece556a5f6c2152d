"""Truncated-inversion scheme: conditional statistics, branch mixture, and
threshold selection."""

import importlib
import math

import numpy as np
import pytest

from diamond_bottleneck.channel import SnrPair, SystemConfig
from diamond_bottleneck.errors import DomainError
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import SolverSettings, _maxmin_batch
from diamond_bottleneck.tci import THRESHOLD_GRID, conditional_stats, tci_best, tci_rate
from diamond_bottleneck.upper_bound import upper_bound

SETTINGS = SolverSettings()
E1_AT_1 = 0.21938393439552
COND_NOISE_AT_1 = 0.59634736232319  # e * E1(1)
HALF_PROB_THRESHOLD = 0.83255461115770  # sqrt(ln 2)


def binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class TestConditionalStats:
    def test_unit_threshold_unit_noise(self):
        stats = conditional_stats(1.0, SystemConfig(1.0, 5.0, 5.0))
        assert stats.p_active == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert stats.cond_noise == pytest.approx(COND_NOISE_AT_1, abs=1e-12)
        assert stats.cond_noise == pytest.approx(math.e * E1_AT_1, abs=1e-12)

    def test_snr_is_reciprocal_noise(self):
        for threshold in (0.2, 0.7, 1.4):
            stats = conditional_stats(threshold, SystemConfig(0.01, 5.0, 5.0))
            assert stats.cond_snr * stats.cond_noise == pytest.approx(1.0, abs=1e-12)

    def test_header_is_one_bit_at_half_probability(self):
        stats = conditional_stats(HALF_PROB_THRESHOLD, SystemConfig(1.0, 5.0, 5.0))
        assert stats.p_active == pytest.approx(0.5, abs=1e-12)
        assert stats.header_bits == pytest.approx(1.0, abs=1e-12)

    def test_high_threshold_probability(self):
        stats = conditional_stats(2.0, SystemConfig(1.0, 5.0, 5.0))
        assert stats.p_active == pytest.approx(0.01831563888873, abs=1e-12)
        assert stats.header_bits == pytest.approx(
            binary_entropy(stats.p_active), abs=1e-14
        )

    def test_noise_scales_linearly(self):
        a = conditional_stats(0.5, SystemConfig(1.0, 5.0, 5.0))
        b = conditional_stats(0.5, SystemConfig(1e-4, 5.0, 5.0))
        assert b.cond_noise == pytest.approx(1e-4 * a.cond_noise, rel=1e-12)

    def test_header_never_exceeds_one_bit(self):
        config = SystemConfig(1.0, 5.0, 5.0)
        for threshold in THRESHOLD_GRID:
            assert 0.0 < conditional_stats(threshold, config).header_bits <= 1.0

    def test_rejects_nonpositive_threshold(self):
        config = SystemConfig(1.0, 5.0, 5.0)
        for threshold in (0.0, -1.0):
            with pytest.raises(DomainError):
                conditional_stats(threshold, config)


class TestTciRate:
    def test_budget_equal_header_gives_zero(self):
        point = tci_rate(HALF_PROB_THRESHOLD, SystemConfig(0.01, 1.0, 1.0))
        assert point.rate == 0.0

    def test_budget_below_header_clamps_to_zero(self):
        point = tci_rate(HALF_PROB_THRESHOLD, SystemConfig(0.01, 0.5, 0.5))
        assert point.rate == 0.0

    def test_hand_composed_mixture(self):
        config = SystemConfig(1.0, 10.0, 10.0)
        point = tci_rate(1.0, config)
        p = math.exp(-1.0)
        header = binary_entropy(p)
        cond_snr = 1.0 / COND_NOISE_AT_1
        budget = (10.0 - header) / p
        only = math.log2((1.0 + cond_snr) / (1.0 + cond_snr * 2.0**-budget))
        both = fixed_rate(SnrPair(cond_snr, cond_snr), (budget, budget)).rate
        expected = p * (1.0 - p) * 2.0 * only + p * p * both
        assert point.rate == pytest.approx(expected, abs=1e-9)
        assert point.header_bits == pytest.approx(header, abs=1e-12)

    def test_budget_swap_symmetry(self):
        a = tci_rate(0.5, SystemConfig(1e-3, 7.0, 3.0))
        b = tci_rate(0.5, SystemConfig(1e-3, 3.0, 7.0))
        assert a.rate == pytest.approx(b.rate, abs=1e-9)


def test_one_kernel_call_per_threshold_grid(monkeypatch):
    # counted through the module attribute that the benchmark tracer wraps
    module = importlib.import_module("diamond_bottleneck.tci")
    lanes = []

    def counted(*args):
        lanes.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
        return _maxmin_batch(*args)

    monkeypatch.setattr(module, "_maxmin_batch", counted)
    tci_best(SystemConfig(1e-4, 10.0, 7.0), SETTINGS)
    assert len(lanes) == 1
    assert math.prod(lanes[0]) == 3 * len(THRESHOLD_GRID)


class TestTciBest:
    def test_matches_explicit_grid_scan(self):
        config = SystemConfig(1e-4, 10.0, 10.0)
        points = [tci_rate(t, config) for t in THRESHOLD_GRID]
        best = tci_best(config, SETTINGS)
        top = max(p.rate for p in points)
        assert best.rate == top
        first_argmax = next(p for p in points if p.rate == top)
        assert best.threshold == first_argmax.threshold

    def test_zero_budget_ties_go_to_first_threshold(self):
        best = tci_best(SystemConfig(0.01, 0.0, 0.0), SETTINGS)
        assert best.rate == 0.0
        assert best.threshold == THRESHOLD_GRID[0]

    def test_regression_values(self):
        at_40db = tci_best(SystemConfig(1e-4, 10.0, 10.0), SETTINGS)
        assert at_40db.rate == pytest.approx(12.5471773, abs=1e-4)
        assert at_40db.threshold == pytest.approx(0.3)
        at_60db = tci_best(SystemConfig(1e-6, 10.0, 10.0), SETTINGS)
        assert 17.7 < at_60db.rate < 17.9
        assert at_60db.threshold == pytest.approx(0.1)

    def test_below_upper_bound(self):
        for s2, c in [(1e-4, 10.0), (1e-2, 5.0), (1e-6, 10.0)]:
            config = SystemConfig(s2, c, c)
            assert (
                tci_best(config, SETTINGS).rate
                <= upper_bound(config, SETTINGS).rate + 1e-6
            )
