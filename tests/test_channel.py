"""System model: configuration validation, fading draws, and inverse-gain
quantiles."""

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

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            xi_quantile(p)

    def test_inverse_of_tail_probability(self):
        # P(xi <= b) = exp(-1/b) for the inverse of a unit-mean exponential
        for p in (0.2, 0.5, 0.9):
            b = xi_quantile(p)
            assert math.exp(-1.0 / b) == pytest.approx(p, abs=1e-12)

