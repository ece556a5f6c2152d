"""Truncated channel inversion lower bound.

Each relay transmits only when its fading magnitude clears a threshold,
spending a one-bit-entropy header on the on/off flag.  Conditioned on
clearing the threshold, the inverted channel behaves like a fixed-noise
Gaussian channel whose noise power is the conditional mean of
noise_power / gain, an exponential-integral closed form.  The bound mixes
the one-active and both-active branch rates by the activity probabilities
and picks the best threshold on a fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import SystemConfig
from .errors import DomainError
from .numerics import _e1_scaled, _maxmin_batch

# threshold grid: 0.1 .. 2.0. Zero is excluded because the conditional mean
# of 1/gain diverges there (and the rate limit is 0 anyway).
THRESHOLD_GRID = tuple(j / 10.0 for j in range(1, 21))


class ConditionalStats(NamedTuple):
    p_active: float
    header_bits: float
    cond_noise: float
    cond_snr: float


@dataclass(frozen=True)
class TciPoint:
    threshold: float
    p_active: float
    header_bits: float
    cond_noise: float
    cond_snr: float
    rate: float


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def conditional_stats(threshold: float, config: SystemConfig) -> ConditionalStats:
    """Activity probability, header entropy, and conditional noise stats.

    With unit-mean exponential gain g and t = threshold^2, the activity
    probability is e^{-t} and E[1/g | g >= t] = e^t E1(t), so the
    conditional noise power is noise_power * e^t * E1(t).
    """
    if not (threshold > 0.0):
        raise DomainError("threshold must be positive; the conditional mean diverges at 0")
    t = threshold * threshold
    p_active = math.exp(-t)
    cond_noise = config.noise_power * _e1_scaled(t)
    return ConditionalStats(
        p_active=p_active,
        header_bits=_binary_entropy(p_active),
        cond_noise=cond_noise,
        cond_snr=1.0 / cond_noise,
    )


def _effective_budget(c: float, header: float, p_active: float) -> float:
    # a budget below the header cost buys nothing; never a negative exponent
    return max(c - header, 0.0) / p_active


def _tci_points(thresholds, config: SystemConfig) -> list[TciPoint]:
    """Bound values at shared thresholds, one solver call for all of them.

    The conditional statistics and the rate mixture stay scalar; the
    relay-1-only, relay-2-only and two-relay rates are three blocks of
    lanes of the one call, a silent relay being a lane with SNR 0 and
    budget 0.
    """
    stats = [conditional_stats(threshold, config) for threshold in thresholds]
    rho = np.array([s.cond_snr for s in stats])
    b1 = np.array([_effective_budget(config.c1, s.header_bits, s.p_active) for s in stats])
    b2 = np.array([_effective_budget(config.c2, s.header_bits, s.p_active) for s in stats])
    silent = np.zeros_like(rho)
    only1, only2, both = _maxmin_batch(
        [rho, silent, rho], [silent, rho, rho], [b1, silent, b1], [silent, b2, b2]
    )[0]
    points = []
    lanes = zip(thresholds, stats, only1.tolist(), only2.tolist(), both.tolist())
    for threshold, s, one1, one2, two in lanes:
        p = s.p_active
        rate = p * (1.0 - p) * (one1 + one2) + p * p * two
        points.append(TciPoint(
            threshold=threshold,
            p_active=s.p_active,
            header_bits=s.header_bits,
            cond_noise=s.cond_noise,
            cond_snr=s.cond_snr,
            rate=rate,
        ))
    return points


def tci_rate(threshold: float, config: SystemConfig) -> TciPoint:
    """Bound value at one shared threshold for both relays."""
    return _tci_points((threshold,), config)[0]


def tci_best(config: SystemConfig) -> TciPoint:
    """Best point over the fixed threshold grid; ties go to the smaller one."""
    return max(_tci_points(THRESHOLD_GRID, config), key=lambda point: point.rate)
