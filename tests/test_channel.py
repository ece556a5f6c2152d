"""System model: configuration validation, fading draws, and inverse-gain
quantiles."""

import dataclasses
import math

import numpy as np
import pytest

from diamond_bottleneck.channel import SnrPair, SystemConfig, sample_gains, xi_quantile
from diamond_bottleneck.errors import DomainError, InvalidArgument


class TestSystemConfig:
    def test_fields_and_budgets(self):
        config = SystemConfig(noise_power=0.5, c1=3.0, c2=4.0)
        assert config.budgets == (3.0, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_power": 0.0, "c1": 1.0, "c2": 1.0},
            {"noise_power": -1.0, "c1": 1.0, "c2": 1.0},
            {"noise_power": 1.0, "c1": -0.1, "c2": 1.0},
            {"noise_power": 1.0, "c1": 1.0, "c2": -0.1},
            {"noise_power": float("nan"), "c1": 1.0, "c2": 1.0},
            {"noise_power": 1.0, "c1": float("inf"), "c2": 1.0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(InvalidArgument):
            SystemConfig(**kwargs)

    def test_zero_budgets_allowed(self):
        SystemConfig(noise_power=1.0, c1=0.0, c2=0.0)

    @pytest.mark.parametrize("instance", [SystemConfig(0.5, 3.0, 4.0), SnrPair(1.0, 2.0)])
    def test_slotted(self, instance):
        # a caller that keeps one config per point, as the benchmark does,
        # holds no per-instance dict
        assert not hasattr(instance, "__dict__")
        field = dataclasses.fields(instance)[-1].name
        moved = dataclasses.replace(instance, **{field: 7.0})
        assert getattr(moved, field) == 7.0 and type(moved) is type(instance)


class TestSnrPair:
    @pytest.mark.parametrize("bad", [(-1.0, 1.0), (1.0, float("nan")), (float("inf"), 1.0)])
    def test_validation(self, bad):
        with pytest.raises(InvalidArgument):
            SnrPair(*bad)


class TestSampleGains:
    def test_shape_and_positivity(self):
        gains = sample_gains(np.random.default_rng(1), 100)
        assert gains.shape == (100,)
        assert np.all(gains >= 0.0)
        assert sample_gains(np.random.default_rng(1), 1).shape == (1,)

    def test_complex_gaussian_route(self):
        # |s|^2 from one draw of s's real and imaginary parts, N(0, 1/2) each
        parts = np.random.default_rng(2).normal(0.0, math.sqrt(0.5), size=(5, 2))
        gains = sample_gains(np.random.default_rng(2), 5)
        assert np.array_equal(gains, parts[:, 0] ** 2 + parts[:, 1] ** 2)

    def test_moments_at_one_million_draws(self):
        gains = sample_gains(np.random.default_rng(14), 1_000_000)
        assert 0.995 <= float(gains.mean()) <= 1.005
        assert abs(float(np.mean(gains >= 1.0)) - math.exp(-1.0)) <= 0.002
        assert abs(float(gains.var()) - 1.0) <= 0.02


class TestXiQuantile:
    def test_monotone(self):
        ps = np.linspace(0.01, 0.99, 50)
        values = [xi_quantile(float(p)) for p in ps]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "p", [0.0, 1.0, -0.1, 1.1, math.nan, -5e-324, math.nextafter(1.0, 2.0)])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            xi_quantile(p)

    @pytest.mark.parametrize("p", [5e-324, math.nextafter(1.0, 0.0)])
    def test_just_inside_the_domain(self, p):
        # the smallest subnormal and the largest double below 1
        quantile = xi_quantile(p)
        assert math.isfinite(quantile) and quantile > 0.0

    def test_inverse_of_tail_probability(self):
        # P(xi <= b) = exp(-1/b) for the inverse of a unit-mean exponential
        for p in (0.2, 0.5, 0.9):
            b = xi_quantile(p)
            assert math.exp(-1.0 / b) == pytest.approx(p, abs=1e-12)

