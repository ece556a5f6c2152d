"""Pooled-observation upper bound: closed forms, calibration, and limits."""

import math

import numpy as np
import pytest
from scipy import integrate

from diamond_bottleneck.channel import SystemConfig
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.upper_bound import (
    budget_integral,
    rate_at_level,
    saturation_rate,
    upper_bound,
)

SETTINGS = SolverSettings()
E1_AT_1 = 0.21938393439552  # first exponential integral at 1
INV_LN2 = 1.44269504088896


def bound_rate(noise_power, c1, c2) -> float:
    return upper_bound(SystemConfig(noise_power, c1, c2), SETTINGS).rate


def quad_saturation(noise_power) -> float:
    """Independent quadrature for the large-budget limit."""
    value, _ = integrate.quad(
        lambda lam: lam * np.exp(-lam) * np.log2(1.0 + lam / noise_power),
        0.0,
        np.inf,
    )
    return value


class TestBudgetIntegral:
    def test_reference_value_at_unit_level(self):
        expected = (E1_AT_1 + math.exp(-1.0)) / math.log(2.0)
        assert budget_integral(1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing(self):
        levels = np.logspace(-8, 3, 40)
        values = [budget_integral(nu, 0.01) for nu in levels]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_independent_quadrature(self):
        # mean of log2(lam / (nu sigma2)) over lam >= nu sigma2, weight lam e^-lam
        for nu, s2 in [(0.5, 1.0), (2.0, 0.1), (10.0, 0.01)]:
            a = nu * s2
            value, _ = integrate.quad(
                lambda lam: lam * np.exp(-lam) * np.log2(lam / a), a, np.inf
            )
            assert budget_integral(nu, s2) == pytest.approx(value, rel=1e-9)

    def test_vanishes_at_large_level(self):
        assert budget_integral(1e6, 1.0) < 1e-300


class TestRateAtLevel:
    def test_zero_level_is_saturation(self):
        for s2 in (1.0, 0.3, 1e-4):
            assert rate_at_level(0.0, s2) == saturation_rate(s2)

    def test_decreasing_in_level(self):
        values = [rate_at_level(nu, 0.1) for nu in np.logspace(-6, 2, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_independent_quadrature(self):
        # mean of the capacity gain log2((sigma2+lam)/(sigma2+a)) above the level
        for nu, s2 in [(0.7, 1.0), (3.0, 0.05)]:
            a = nu * s2
            value, _ = integrate.quad(
                lambda lam: lam * np.exp(-lam) * np.log2((s2 + lam) / (s2 + a)),
                a,
                np.inf,
            )
            assert rate_at_level(nu, s2) == pytest.approx(value, rel=1e-9)


class TestSaturationRate:
    def test_unit_noise_closed_form(self):
        assert saturation_rate(1.0) == pytest.approx(INV_LN2, abs=1e-12)

    def test_matches_quadrature(self):
        for s2 in (1.0, 0.1, 1e-3):
            assert saturation_rate(s2) == pytest.approx(quad_saturation(s2), rel=1e-8)


class TestUpperBound:
    def test_zero_budget_degenerate(self):
        result = upper_bound(SystemConfig(0.01, 0.0, 0.0), SETTINGS)
        assert result.rate == 0.0
        assert math.isinf(result.nu)
        assert result.constraint_residual == 0.0

    def test_budget_constraint_met(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s2 = 10.0 ** rng.uniform(-6, 0)
            c1, c2 = rng.uniform(0.05, 15.0, 2)
            result = upper_bound(SystemConfig(s2, c1, c2), SETTINGS)
            assert abs(result.constraint_residual) <= 1e-6
            assert budget_integral(result.nu, s2) == pytest.approx(
                c1 + c2, abs=1e-6
            )

    def test_depends_only_on_total_budget(self):
        a = upper_bound(SystemConfig(0.01, 3.0, 7.0), SETTINGS)
        b = upper_bound(SystemConfig(0.01, 5.0, 5.0), SETTINGS)
        assert a.rate == b.rate
        assert a.nu == b.nu

    def test_large_budget_reaches_saturation(self):
        rate = bound_rate(1.0, 30.0, 30.0)
        assert rate == pytest.approx(saturation_rate(1.0), abs=1e-9)
        assert rate == pytest.approx(quad_saturation(1.0), abs=1e-6)

    def test_high_snr_moderate_budget(self):
        # 60 dB with 10+10 bits: close below the 20-bit pipe
        rate = bound_rate(1e-6, 10.0, 10.0)
        assert rate < 20.0
        assert 20.0 - rate <= 1.0

    def test_regression_values(self):
        assert bound_rate(1e-4, 10.0, 10.0) == pytest.approx(13.8769583, abs=1e-5)
        assert bound_rate(1e-6, 10.0, 10.0) == pytest.approx(19.2455005, abs=1e-5)

    def test_monotone_in_budget(self):
        rates = [bound_rate(1e-4, c, c) for c in np.linspace(0.5, 14.0, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_antimonotone_in_noise(self):
        rates = [bound_rate(s2, 5.0, 5.0) for s2 in np.logspace(-6, 0, 10)]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_never_exceeds_pipes_or_saturation(self):
        rng = np.random.default_rng(32)
        cases = [(10.0 ** rng.uniform(-6, 0), *rng.uniform(0.05, 12.0, 2)) for _ in range(20)]
        # 150 dB with 1e-12 + 1e-12 bits: the bisection stops on an absolute
        # budget residual far above the budget, and its level alone would
        # give 328 times the bits the pipes carry
        for s2, c1, c2 in [*cases, (1e-15, 1e-12, 1e-12)]:
            rate = bound_rate(s2, c1, c2)
            assert 0.0 < rate <= c1 + c2
            assert rate <= saturation_rate(s2) + 1e-12
