"""MMSE relaying lower bound.

Each relay forwards a Gaussian-quantized version of its conditional-mean
estimate of the source symbol.  The quantization noise power is calibrated
so the Gaussian description rate of the estimate exactly meets the link
budget.  The bound is a difference of two entropy-like expectations: a joint
term over both fading states and two per-relay correction terms, each an
expectation against the unit-mean exponential gain law.

All fading moments reduce to closed forms in the scaled exponential
integral e^t E1(t), written below as es(t):

    E[U]        = 1 - s * es(s)                   with s = noise_power
    E[U^2]      = 1 + s - s (2 + s) es(s)
    Var(U)      = s (1 - s es(s) (1 + es(s)))
    E[V] - D    = s ((1 + s) es(s) - 1)

where U = g/(g+s) is the per-realization estimator gain and V its noise
variance plus distortion.  E[|estimate|^2] collapses to E[U] because the
conditional error variance is U (1 - U) * ...; expanding the second moment
gives U^2 + U s/(g+s) = U.

The expectations are evaluated by a fixed Gauss-Legendre rule in the log
gain t = ln g (see _gain_rule): a tensor rule for the joint term, the same
nodes for the corrections.  No random numbers are drawn.  The rule runs at
two orders; the higher one gives the rate and the gap between them is
reported as its error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import SystemConfig
from .errors import DegenerateBudget
from .numerics import _LN2, SolverSettings, _e1_scaled

# Not called here.  The benchmark's tracer (bench/tracer.py) wraps these two
# attributes of this module by name, and its smoke test expects them to
# exist, so they stay until the benchmark drops those two boundaries.
from .channel import sample_gains  # noqa: F401
from .numerics import integrate_semiinfinite  # noqa: F401

# The probability mass of ln g outside this interval is below 3e-20.
_LOG_GAIN_RANGE = (-45.0, 4.0)
# The rate comes from the last order; the gap to the first is the error estimate.
_ORDERS = (100, 200)


@dataclass(frozen=True)
class MmseCalibration:
    """Per-relay second moments and the budget-matched distortions."""

    est_power: tuple[float, float]
    distortion: tuple[float, float]
    u_moments: tuple[tuple[float, float], tuple[float, float]]  # (mean, variance)
    v_mean: tuple[float, float]
    residual: float  # E[V] - D, the part of v_mean that does not depend on the budget


@dataclass(frozen=True)
class MmseResult:
    rate: float
    error_estimate: float
    constraint_check: tuple[float, float]
    degenerate: bool = False


def calibrate(config: SystemConfig) -> MmseCalibration:
    """Closed-form moments of the estimator gain and the matched distortions."""
    if config.c1 <= 0.0 or config.c2 <= 0.0:
        raise DegenerateBudget("calibration needs strictly positive budgets on both links")
    s = config.noise_power
    es = _e1_scaled(s)
    u_mean = 1.0 - s * es
    u_var = s * (1.0 - s * es * (1.0 + es))
    residual = s * ((1.0 + s) * es - 1.0)
    d1 = u_mean / math.expm1(config.c1 * _LN2)
    d2 = u_mean / math.expm1(config.c2 * _LN2)
    return MmseCalibration(
        est_power=(u_mean, u_mean),
        distortion=(d1, d2),
        u_moments=((u_mean, u_var), (u_mean, u_var)),
        v_mean=(residual + d1, residual + d2),
        residual=residual,
    )


@lru_cache(maxsize=None)
def _gain_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g_i and weights w_i with sum_i w_i f(g_i) ~ E[f(g)], g ~ Exp(1).

    Gauss-Legendre in t = ln g over _LOG_GAIN_RANGE, where t has density
    e^t exp(-e^t); the weights carry that density.  Integrating in t puts
    nodes at every scale of g, so the features of the integrands near
    g = noise_power are resolved from -60 to 150 dB.  The arrays are shared
    by every caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    low, high = _LOG_GAIN_RANGE
    half = 0.5 * (high - low)
    gains = np.exp(low + half * (x + 1.0))
    weights = half * w * gains * np.exp(-gains)
    gains.flags.writeable = False
    weights.flags.writeable = False
    return gains, weights


def _rate_at_order(order: int, noise_power: float, cal: MmseCalibration) -> float:
    """Joint term minus both corrections, in bits, by the rule of one order.

    Written with q = 1/D so that the budget-dependent log2 D parts, equal in
    the joint term and in the corrections, cancel before evaluation:

        log2(u1^2 v2 + u2^2 v1 + v1 v2) = log2 v1 + log2 v2
                                          + log2(1 + u1^2/v1 + u2^2/v2)
        log2 v                          = log2 D + log2(1 + q r)
        log2(u_var g + v_mean)          = log2 D + log2(1 + q (u_var g + residual))

    with v = r + D and r = u s/(g+s).  Nothing overflows as a budget goes to
    0 (D to infinity), and log1p keeps small rates to relative precision.
    """
    gains, weights = _gain_rule(order)
    u = gains / (gains + noise_power)
    r = u * noise_power / (gains + noise_power)
    spread = cal.u_moments[0][1] * gains + cal.residual
    total = 0.0
    ratios = []
    # Far below 0 dB the closed-form moments cancel and log1p may see an
    # argument below -1.  Its NaN, not a NumPy warning, reports the failure:
    # the caller treats a non-finite rate as a failed cell.
    with np.errstate(invalid="ignore"):
        for distortion in cal.distortion:
            q = 1.0 / distortion
            qr = q * r
            total += float(weights @ (np.log1p(qr) - np.log1p(q * spread)))
            ratios.append(u * u * q / (1.0 + qr))
        joint = np.log1p(ratios[0][:, None] + ratios[1])
    return (total + float(weights @ joint @ weights)) / _LN2


def mmse_rate(config: SystemConfig, settings: SolverSettings) -> MmseResult:
    """Bound value with diagnostics.

    A zero budget on either link makes the calibrated distortion infinite,
    so the scheme degenerates to rate 0 rather than an evaluation error.
    The error estimate is the gap between the rule's two orders.  The
    constraint check repeats the Gaussian description-rate computation
    log2(1 + est_power / D) per relay, which the calibration makes equal to
    the budget up to rounding.
    """
    if config.c1 <= 0.0 or config.c2 <= 0.0:
        return MmseResult(
            rate=0.0,
            error_estimate=0.0,
            constraint_check=(0.0, 0.0),
            degenerate=True,
        )
    cal = calibrate(config)
    coarse, rate = (_rate_at_order(order, config.noise_power, cal) for order in _ORDERS)
    checks = tuple(
        math.log1p(cal.est_power[k] / cal.distortion[k]) / _LN2 for k in (0, 1)
    )
    return MmseResult(
        rate=rate,
        error_estimate=abs(rate - coarse),
        constraint_check=checks,
    )
