"""Full-cooperation informed-receiver upper bound.

Granting the destination the fading states and letting the relays pool their
observations collapses the network into a single two-antenna relay behind one
bottleneck of C1 + C2 bits.  The combined squared gain has density
lam * exp(-lam), and the optimal compression spends bits only on
realizations whose gain clears a water level nu.  Both the spent-bit curve
and the resulting rate reduce, by parts, to exponential-integral closed
forms, which keeps the bound exact even where the budget pushes the water
level to 1e-15 and below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SystemConfig
from .errors import BracketError
from .numerics import _LN2, SolverSettings, _e1_scaled, bisect, exp_integral_e1


@dataclass(frozen=True)
class UpperBoundResult:
    rate: float
    nu: float
    constraint_residual: float


def budget_integral(nu: float, noise_power: float) -> float:
    """Bits spent at water level nu: the mean of log2(lam/(nu sigma^2))
    over combined gains lam >= nu sigma^2, density lam e^{-lam}.

    Integration by parts against -(1+lam)e^{-lam} gives
    (E1(a) + e^{-a}) / ln 2 with a = nu sigma^2.  Strictly decreasing in nu,
    with limits +inf at 0 and 0 at +inf.
    """
    a = nu * noise_power
    return (exp_integral_e1(a) + math.exp(-a)) / _LN2


def rate_at_level(nu: float, noise_power: float) -> float:
    """Bound value at water level nu, before the level is calibrated.

    The same by-parts step turns the rate integrand into
    (1+lam)e^{-lam}/(sigma^2+lam), giving
    e^{-a} * (1 + (1-sigma^2) e^{a+sigma^2} E1(a+sigma^2)) / ln 2.
    """
    a = nu * noise_power
    return math.exp(-a) * (1.0 + (1.0 - noise_power) * _e1_scaled(a + noise_power)) / _LN2


def saturation_rate(noise_power: float) -> float:
    """Large-budget limit of the bound: the mean of log2(1 + lam/sigma^2)
    under the combined-gain density, reached as the water level drops to 0."""
    return (1.0 + (1.0 - noise_power) * _e1_scaled(noise_power)) / _LN2


def upper_bound(config: SystemConfig, settings: SolverSettings) -> UpperBoundResult:
    """Calibrate the water level to the total budget and evaluate the bound.

    The level solves budget_integral(nu) = c1 + c2 by bisection on ln(nu);
    the log parameterization keeps the bracket well conditioned when large
    budgets push nu far below float-epsilon scale.  A zero total budget is
    degenerate, not an error: rate 0 with an infinite water level.

    The bisection stops on a budget residual of abs_tol relative to the
    total, below 1 bit, and absolute from 1 bit up, so a budget of 1e-12
    bits gets its level too.  The rate is capped at the cut-set value
    c1 + c2, itself an upper bound.
    """
    total = config.c1 + config.c2
    if total == 0.0:
        return UpperBoundResult(rate=0.0, nu=math.inf, constraint_residual=0.0)
    scale = min(1.0, total)  # x / 1.0 is exact: from 1 bit up nothing moves

    def gap(log_nu: float) -> float:
        return (budget_integral(math.exp(log_nu), config.noise_power) - total) / scale

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        if budget_integral(hi, config.noise_power) < total:
            break
        hi *= 2.0
    else:
        raise BracketError("water-level bracket failed to cap the budget from above")
    for _ in range(200):
        if budget_integral(lo, config.noise_power) > total:
            break
        lo *= 1e-2
    else:
        raise BracketError("water-level bracket failed to exceed the budget from below")

    log_nu = bisect(gap, math.log(lo), math.log(hi), settings)
    nu = math.exp(log_nu)
    return UpperBoundResult(
        rate=min(rate_at_level(nu, config.noise_power), total),
        nu=nu,
        constraint_residual=budget_integral(nu, config.noise_power) - total,
    )
