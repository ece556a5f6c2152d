"""System model: fading draws, gain distributions, and problem configuration.

The source symbol is unit-power circularly symmetric complex Gaussian.  Each
relay sees the symbol through its own Rayleigh coefficient plus complex
Gaussian noise of power noise_power, so the squared gain |s|^2 is unit-mean
exponential and the per-realization SNR is |s|^2 / noise_power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgument


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Global problem instance: noise power and the two link budgets in bits."""

    noise_power: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (self.noise_power > 0.0 and math.isfinite(self.noise_power)):
            raise InvalidArgument(f"noise_power must be positive, got {self.noise_power}")
        if not (self.c1 >= 0.0 and math.isfinite(self.c1)):
            raise InvalidArgument(f"c1 must be finite and nonnegative, got {self.c1}")
        if not (self.c2 >= 0.0 and math.isfinite(self.c2)):
            raise InvalidArgument(f"c2 must be finite and nonnegative, got {self.c2}")

    @property
    def budgets(self) -> tuple[float, float]:
        return (self.c1, self.c2)


@dataclass(frozen=True, slots=True)
class SnrPair:
    """Per-realization linear SNRs of the two source-relay channels."""

    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        for value in (self.rho1, self.rho2):
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidArgument(f"SNRs must be finite and nonnegative, got {value}")


def sample_gains(random_source: np.random.Generator, count: int) -> np.ndarray:
    """count squared-gain draws |s|^2 for one relay, i.e. unit-mean exponentials.

    Sampled through the complex-Gaussian route, real and imaginary parts
    N(0, 1/2), rather than rng.exponential, so the law follows from the
    fading model by construction rather than by a separate distributional
    argument.
    """
    if count < 1:
        raise InvalidArgument("count must be positive")
    parts = random_source.normal(0.0, math.sqrt(0.5), size=(count, 2))
    return parts[:, 0] ** 2 + parts[:, 1] ** 2


def xi_quantile(p: float) -> float:
    """p-quantile of the inverse squared gain 1/|s|^2.

    With |s|^2 unit-mean exponential, P(1/|s|^2 <= b) = exp(-1/b), so the
    quantile is -1/ln(p).
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {p}")
    return -1.0 / math.log(p)
