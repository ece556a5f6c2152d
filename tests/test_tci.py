"""Truncated-inversion scheme: conditional statistics, branch mixture, and
threshold selection."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from diamond_bottleneck.channel import SnrPair, SystemConfig
from diamond_bottleneck.errors import DomainError
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import _e1_scaled, _maxmin_batch
from diamond_bottleneck.sweeps import SNR_DB_BOX
from diamond_bottleneck.tci import (
    THRESHOLD_GRID,
    TciPoint,
    _best_round,
    _binary_entropy,
    _threshold_stats,
    tci_best,
    tci_rate,
)

E1_AT_1 = 0.21938393439552
COND_NOISE_AT_1 = 0.59634736232319  # e * E1(1)
HALF_PROB_THRESHOLD = 0.83255461115770  # sqrt(ln 2)


def binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def header_bits(threshold):
    """The header entropy of one threshold, as the budgets are charged it."""
    return float(_threshold_stats((threshold,))[1][0])


class TestConditionalStats:
    """The activity probability and conditional noise of a threshold, as
    tci_rate reports them, and its header entropy, as the budgets pay it."""

    def test_unit_threshold_unit_noise(self):
        stats = tci_rate(1.0, SystemConfig(1.0, 5.0, 5.0))
        assert stats.p_active == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert stats.cond_noise == pytest.approx(COND_NOISE_AT_1, abs=1e-12)
        assert stats.cond_noise == pytest.approx(math.e * E1_AT_1, abs=1e-12)

    def test_header_is_one_bit_at_half_probability(self):
        stats = tci_rate(HALF_PROB_THRESHOLD, SystemConfig(1.0, 5.0, 5.0))
        assert stats.p_active == pytest.approx(0.5, abs=1e-12)
        assert header_bits(HALF_PROB_THRESHOLD) == pytest.approx(1.0, abs=1e-12)

    def test_header_is_zero_at_either_end(self):
        # never active (p = 0) or always active (p = 1, a vanishing
        # threshold): there is nothing to signal
        assert _binary_entropy(0.0) == 0.0
        assert header_bits(1e-9) == 0.0

    def test_noise_scales_linearly(self):
        a = tci_rate(0.5, SystemConfig(1.0, 5.0, 5.0))
        b = tci_rate(0.5, SystemConfig(1e-4, 5.0, 5.0))
        assert b.cond_noise == pytest.approx(1e-4 * a.cond_noise, rel=1e-12)

    def test_header_never_exceeds_one_bit(self):
        for threshold in THRESHOLD_GRID:
            assert 0.0 < header_bits(threshold) <= 1.0

    def test_rejects_nonpositive_threshold(self):
        config = SystemConfig(1.0, 5.0, 5.0)
        for threshold in (0.0, -1.0):
            with pytest.raises(DomainError):
                tci_rate(threshold, config)


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

    @pytest.mark.parametrize("noise_power", [1.0, 1e-15])
    @pytest.mark.parametrize("c", [0.0, 5.0])
    def test_vanishing_activity_gives_a_vanishing_rate(self, c, noise_power):
        # past a threshold of about 26.6 the budget per active use (c - h) / p
        # overflows, from about 27.3 p itself is 0, at 150 dB and 1e150 the
        # conditional SNR overflows, and from about 1.3e154 threshold^2 does;
        # every warning is an error in this suite, so none may be raised
        rates = [tci_rate(threshold, SystemConfig(noise_power, c, c)).rate
                 for threshold in (26.7, 27.0, 30.0, 1e3, 1e150, 1e200)]
        assert all(0.0 <= rate <= 1e-300 for rate in rates), rates
        assert rates == sorted(rates, reverse=True)


def test_one_kernel_call_per_threshold_grid(monkeypatch):
    # standalone, tci_best and tci_rate each make one call, through the
    # lock-step driver's module attribute, which the benchmark tracer wraps;
    # tci's own binding is never called
    lanes = []

    def counted(*args):
        lanes.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
        return _maxmin_batch(*args)

    def unreachable(*args):
        raise AssertionError("tci called the kernel itself")

    monkeypatch.setattr(importlib.import_module("diamond_bottleneck.qci"), "_maxmin_batch", counted)
    monkeypatch.setattr(importlib.import_module("diamond_bottleneck.tci"), "_maxmin_batch",
                        unreachable)
    config = SystemConfig(1e-4, 10.0, 7.0)
    tci_best(config)
    tci_rate(0.5, config)
    assert lanes == [(3 * len(THRESHOLD_GRID),), (3,)]


def test_best_round_equals_tci_best_and_yields_outside_its_errstate():
    # the round's errstate closes before its yield, so the caller's
    # floating-point settings hold while the round waits for its kernel call
    config = SystemConfig(1e-4, 10.0, 7.0)
    outside = np.geterr()
    participant = _best_round(config)
    block = next(participant)
    assert np.geterr() == outside
    assert block.shape == (4, 3 * len(THRESHOLD_GRID))
    value, _, _, slope1, slope2 = _maxmin_batch(*block)
    with pytest.raises(StopIteration) as stop:
        participant.send((value, slope1, slope2))
    got, want = dataclasses.astuple(stop.value.value), dataclasses.astuple(tci_best(config))
    assert [x.hex() for x in got] == [x.hex() for x in want]


class TestTciBest:
    def test_zero_budget_ties_go_to_first_threshold(self):
        best = tci_best(SystemConfig(0.01, 0.0, 0.0))
        assert best.rate == 0.0
        assert best.threshold == THRESHOLD_GRID[0]


def scalar_conditional_stats(threshold, config):
    """The conditional statistics as they were computed before the threshold
    statistics were cached: the same arithmetic, one threshold at a time."""
    t = threshold * threshold
    p_active = math.exp(-t)
    cond_noise = config.noise_power * _e1_scaled(t)
    header = -p_active * math.log2(p_active) - (1.0 - p_active) * math.log2(1.0 - p_active)
    return p_active, header, cond_noise, 1.0 / cond_noise


def scalar_tci_best(config):
    """tci_best from scalar_conditional_stats, with the budgets and the rate
    mixture of that version, and the same kernel call."""
    stats = [scalar_conditional_stats(t, config) for t in THRESHOLD_GRID]
    rho = np.array([s[3] for s in stats])
    b1 = np.array([max(config.c1 - s[1], 0.0) / s[0] for s in stats])
    b2 = np.array([max(config.c2 - s[1], 0.0) / s[0] for s in stats])
    silent = np.zeros_like(rho)
    only1, only2, both = _maxmin_batch(
        [rho, silent, rho], [silent, rho, rho], [b1, silent, b1], [silent, b2, b2]
    )[0]
    points = []
    for t, (p, header, noise, snr), one1, one2, two in zip(
        THRESHOLD_GRID, stats, only1.tolist(), only2.tolist(), both.tolist()
    ):
        rate = p * (1.0 - p) * (one1 + one2) + p * p * two
        points.append(TciPoint(t, p, noise, rate))
    return max(points, key=lambda point: point.rate)


@pytest.mark.parametrize("snr_db", range(int(SNR_DB_BOX[0]), int(SNR_DB_BOX[1]) + 1, 15))
@pytest.mark.parametrize("c1, c2", [(10.0, 10.0), (0.5, 25.0), (3.0, 0.0), (60.0, 7.5)])
def test_cached_statistics_change_no_bit(snr_db, c1, c2):
    config = SystemConfig(10.0 ** (-snr_db / 10.0), c1, c2)
    got = dataclasses.astuple(tci_best(config))
    want = dataclasses.astuple(scalar_tci_best(config))
    assert [x.hex() for x in got] == [x.hex() for x in want]
