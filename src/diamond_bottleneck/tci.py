"""Truncated channel inversion lower bound.

Each relay transmits only when its fading magnitude clears a threshold,
spending a one-bit-entropy header on the on/off flag.  Conditioned on
clearing the threshold, the inverted channel behaves like a fixed-noise
Gaussian channel whose noise power is the conditional mean of
noise_power / gain, an exponential-integral closed form.  The bound mixes
the one-active and both-active branch rates by the activity probabilities
and picks the best threshold on a fixed grid.

Only the conditional noise depends on the operating point, and only through
a factor noise_power: the activity probability, the header entropy and
e^t E1(t) of each threshold are computed once, on first use, and cached,
and every point multiplies in its noise power, with the same product, and
so the same bits, as computing them afresh.

A grid is one participant of qci._lock_step (_grid): it yields the
kernel's inputs on 3 lanes per threshold once and finishes its rows from
the kernel's values there.  At a sweep point its lanes ride the QCI
ascents' first call; tci_best and tci_rate run it alone (qci._solo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator

import numpy as np

from .channel import SystemConfig
from .errors import DomainError
from .numerics import _BUDGET_CAP, _e1_scaled
from .qci import _solo

# Not called here.  The benchmark's tracer (bench/tracer.py) wraps this
# attribute of this module by name, and reports it missing otherwise, so it
# stays until the benchmark drops that boundary.
from .numerics import _maxmin_batch  # noqa: F401

# threshold grid: 0.1 .. 2.0. Zero is excluded because the conditional mean
# of 1/gain diverges there (and the rate limit is 0 anyway).
THRESHOLD_GRID = tuple(j / 10.0 for j in range(1, 21))


@dataclass(frozen=True)
class TciPoint:
    threshold: float
    p_active: float
    cond_noise: float  # its reciprocal is the conditional SNR
    rate: float


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@lru_cache(maxsize=32)
def _threshold_stats(thresholds: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Read-only arrays p_active, header_bits and e^t E1(t), t = threshold^2,
    over the thresholds: the part of the statistics that does not depend on
    the noise power.  Cached per tuple of thresholds, so each threshold of
    the grid pays for its E1 series or continued fraction once, on first
    use, not at import."""
    rows = []
    for threshold in thresholds:
        if not (threshold > 0.0):
            raise DomainError("threshold must be positive; the conditional mean diverges at 0")
        t = threshold * threshold
        p_active = math.exp(-t)
        # t overflows past a threshold of about 1.3e154, where e^t E1(t) ~ 1/t is 0
        rows.append((p_active, _binary_entropy(p_active), _e1_scaled(t) if t < math.inf else 0.0))
    columns = tuple(np.array(column) for column in zip(*rows))
    for column in columns:
        column.flags.writeable = False
    return columns


def _grid(
    thresholds: tuple[float, ...], config: SystemConfig,
) -> Generator[np.ndarray, tuple, list[tuple]]:
    """TciPoint fields at shared thresholds, as a participant of
    qci._lock_step: it yields the kernel's inputs once, as a (4, 3 n) block
    of rows rho1, rho2, c1, c2, is sent (value, slope1, slope2) on those
    lanes, and returns one row per threshold.

    With unit-mean exponential gain g and t = threshold^2, the activity
    probability is e^{-t} and E[1/g | g >= t] = e^t E1(t), so the
    conditional noise power is noise_power * e^t * E1(t) and the conditional
    SNR its reciprocal.  The relay-1-only, relay-2-only and two-relay rates
    are three blocks of n lanes, a silent relay being a lane with SNR 0 and
    budget 0, and the rate mixes them by the activity probabilities.  A
    budget below the header cost buys nothing, and never gives a negative
    exponent.  The block is formed, and its errstate closed, before the
    yield, so no floating-point setting of its own reaches the round's
    kernel call.
    """
    p, header_bits, e1_scaled = _threshold_stats(thresholds)
    cond_noise = config.noise_power * e1_scaled
    # past about 3,000 dB cond_noise is subnormal or 0 and rho inf: the kernel
    # then fails the lane, and the sweep reports an empty cell, unless p is 0,
    # where no lane counts.  Past a threshold of about 26.6 (c - h) / p
    # overflows, or is 0 / 0 once p is 0: the kernel's budget cap stands in
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = 1.0 / cond_noise
        b1, b2 = (np.fmin(np.maximum(c - header_bits, 0.0) / p, _BUDGET_CAP)
                  for c in config.budgets)
    block = np.zeros((4, 3, rho.size))
    block[0, 0] = block[0, 2] = block[1, 1] = block[1, 2] = rho
    block[2, 0] = block[2, 2] = b1
    block[3, 1:] = b2
    value, _, _ = yield block.reshape(4, -1)
    only1, only2, both = value.reshape(3, -1)
    rate = np.where(p > 0.0, p * (1.0 - p) * (only1 + only2) + p * p * both, 0.0)
    return list(zip(thresholds, *(a.tolist() for a in (p, cond_noise, rate))))


def _best_round(config: SystemConfig) -> Generator[np.ndarray, tuple, TciPoint]:
    """tci_best as a participant of qci._lock_step: the grid's one
    evaluation, then the row of highest rate; ties go to the first."""
    rows = yield from _grid(THRESHOLD_GRID, config)
    return TciPoint(*max(rows, key=lambda row: row[-1]))


def tci_rate(threshold: float, config: SystemConfig) -> TciPoint:
    """Bound value at one shared threshold for both relays."""
    return TciPoint(*_solo(_grid((threshold,), config))[0])


def tci_best(config: SystemConfig) -> TciPoint:
    """Best point over the fixed threshold grid; ties go to the smaller one."""
    return _solo(_best_round(config))
