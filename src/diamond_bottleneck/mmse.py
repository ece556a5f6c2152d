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
gives U^2 + U s/(g+s) = U.  The moments depend on the noise power alone, so
both relays share one copy of each (MmseCalibration); only the distortion
D_k, matched to relay k's budget, differs between them.

The expectations are evaluated by the package's one quadrature rule,
Gauss-Legendre in the log gain t = ln g (see _gain_rule): a tensor rule for
the joint term, the same nodes for the corrections.  No random numbers are
drawn.  The rule runs at two orders; the higher one gives the rate and the
gap between them is reported as its error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import SystemConfig
from .errors import DegenerateBudget
from .numerics import _LN2, SolverSettings, _e1_scaled, _log_rule

# Not called here.  The benchmark's tracer (bench/tracer.py) wraps these two
# attributes of this module by name, and its smoke test expects them to
# exist, so they stay until the benchmark drops those two boundaries.
from .channel import sample_gains  # noqa: F401
from .numerics import integrate_semiinfinite  # noqa: F401

# The rate comes from the last order; the gap to the first is the error estimate.
_ORDERS = (100, 200)


@dataclass(frozen=True)
class MmseCalibration:
    """The fading moments, which both relays share, and each relay's
    budget-matched distortion D_k = est_power / (2^c_k - 1)."""

    est_power: float  # E[U] = E[|estimate|^2]
    u_var: float  # Var(U)
    residual: float  # E[V] - D, the part of E[V] that does not depend on the budget
    distortion: tuple[float, float]


@dataclass(frozen=True)
class MmseResult:
    rate: float
    error_estimate: float


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
    return MmseCalibration(u_mean, u_var, residual, (d1, d2))


@lru_cache(maxsize=None)
def _gain_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g_i and weights w_i with sum_i w_i f(g_i) ~ E[f(g)], g ~ Exp(1).

    numerics._log_rule over [0, inf), Gauss-Legendre in t = ln g on
    [-45, 4], with the density e^-g folded into its weights.  Nodes at every
    scale of g resolve the integrands' features near g = noise_power over
    sweeps.SNR_DB_BOX.  The arrays are shared by every caller and read-only.
    """
    gains, jacobian = _log_rule(order, 0.0)
    weights = jacobian * np.exp(-gains)
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
        log2(u_var g + residual + D)    = log2 D + log2(1 + q (u_var g + residual))

    with v = r + D and r = u s/(g+s).  Nothing overflows as a budget goes to
    0 (D to infinity), and log1p keeps small rates to relative precision.
    """
    gains, weights = _gain_rule(order)
    u = gains / (gains + noise_power)
    r = u * noise_power / (gains + noise_power)
    spread = cal.u_var * gains + cal.residual
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
        joint = np.add.outer(*ratios)
        np.log1p(joint, out=joint)
    return (total + float(weights @ joint @ weights)) / _LN2


def mmse_rate(config: SystemConfig, settings: SolverSettings) -> MmseResult:
    """Bound value and the gap between the rule's two orders.

    A zero budget on either link makes the calibrated distortion infinite,
    so the scheme degenerates to rate 0 rather than an evaluation error.
    """
    if config.c1 <= 0.0 or config.c2 <= 0.0:
        return MmseResult(rate=0.0, error_estimate=0.0)
    cal = calibrate(config)
    coarse, rate = (_rate_at_order(order, config.noise_power, cal) for order in _ORDERS)
    return MmseResult(rate=rate, error_estimate=abs(rate - coarse))
