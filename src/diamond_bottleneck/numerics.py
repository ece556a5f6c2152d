"""Numerical kernels shared by every bound computation.

Semi-infinite quadrature, the exponential integral E1, a guarded bisection,
and the max-min compression-rate solver used by the fixed-channel rate and
by the quantized / truncated inversion schemes.  All rates are in bits per
complex dimension (base-2 logs throughout).

The max-min solver maximizes over compression rates (r1, r2) in the box
[0, c1] x [0, c2] the minimum of the four oblivious-relaying cut bounds
(Aguerri, Zaidi, Caire and Shamai, IEEE Trans. IT 65(7), 2019).  With
p = rho1 2^-r1, q = rho2 2^-r2, alpha = 2^c1 / rho1 and beta = 2^c2 / rho2,
they are the base-2 logs of four polynomials:

    B   = 1 + rho1 + rho2 - p - q    no cut
    K1  = alpha p (1 + rho2 - q)     relay 1's leftover budget
    K2  = beta q (1 + rho1 - p)      relay 2's
    K12 = alpha beta p q             both

Every superlevel set of each is convex in (p, q), and every maximizer meets
the KKT conditions with at most three active constraints, branches or box
faces, whose gradients are positively dependent (Caratheodory in the plane).
With both relays live, that leaves five points:

- no corner: at each one, one branch is 0;
- no face: on r1 = 0 the minimum is that of B and K2, which cross at
  relay 2's one-relay optimum, and there the value still rises with r1; on
  r1 = c1 it is that of K1 and K12, and the value rises as r1 falls; no
  branch is flat along a face;
- of the two-branch tangencies only B-K12 (at p = q) and K1-K2 have
  opposite gradients, and at the K1-K2 one (1 + rho1 - p)(1 + rho2 - q)
  = p q, which puts B or K12 below K1 = K2;
- so: the B-K12 tangency and the four three-branch vertices.

The kernel forms the five in r, clips them into the box and scores them
with the branch minimum in one evaluation.  The returned value is the branch
minimum at the returned r, so it never exceeds what that r achieves.  The
candidates come from log1p / expm1 forms and log2 ratios, so no polish step
follows: mapping p back to r = log2(rho / p) would lose r's relative
precision when r is tiny against a huge SNR, and alpha beta overflows
float64 once c1 + c2 passes about 1,024 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, InvalidArgument, NonConvergent

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.577215664901532860606512

# 2^c overflows float64 past 1,024 bits, but beyond this budget a larger one
# no longer moves the max-min value: rho 2^-1000 is far below an ulp of
# log2(1 + rho) for any SNR under 2^900.
_BUDGET_CAP = 1000.0


@dataclass(frozen=True)
class SolverSettings:
    """Shared knobs for tolerances, quadrature order, grids, and sampling.

    abs_tol      absolute convergence tolerance (bits) for iterative solvers
    max_iter     iteration cap for bisection and the allocation ascent
    quad_order   base Gauss-Laguerre order; doubled on fallback
    grid_points  lattice density per dimension for the grid oracle
    mc_samples   Monte Carlo draw count of the `verify` oracles
    seed         RNG seed of the `verify` oracles; no bound computation
                 draws random numbers
    """

    abs_tol: float = 1e-9
    max_iter: int = 200
    quad_order: int = 64
    grid_points: int = 400
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise InvalidArgument("abs_tol must be positive and finite")
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be at least 1")
        if self.quad_order < 8:
            raise InvalidArgument("quad_order must be at least 8")
        if self.grid_points < 10:
            raise InvalidArgument("grid_points must be at least 10")
        if self.mc_samples < 1000:
            raise InvalidArgument("mc_samples must be at least 1000")
        if self.seed < 0:
            raise InvalidArgument("seed must be a nonnegative integer")


@lru_cache(maxsize=32)
def _laguerre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i and premultiplied weights w_i * exp(x_i) of order-n Gauss-Laguerre.

    The exp(x_i) factor folds the e^{-x} kernel back out, so the rule applies
    to plain integrals over [0, inf).  The product is formed in log space:
    weights underflow near the largest nodes, and there the integrands we
    meet have decayed far below double precision anyway.  SciPy is imported
    here, not at module level, so that importing the package does not load it.
    """
    from scipy.special import roots_laguerre

    nodes, weights = roots_laguerre(order)
    with np.errstate(divide="ignore"):
        scaled = np.exp(np.log(weights) + nodes)
    return nodes, scaled


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    settings: SolverSettings,
) -> float:
    """Integrate f over [lower, inf) by shifted Gauss-Laguerre quadrature.

    Starts at settings.quad_order and doubles the order until two successive
    orders agree within abs_tol * max(1, |value|), giving up after four
    doublings.  f must accept a numpy array of evaluation points.
    """
    if not math.isfinite(lower) or lower < 0.0:
        raise DomainError(f"lower limit must be finite and nonnegative, got {lower}")
    order = settings.quad_order
    previous = None
    for _ in range(5):
        nodes, scaled = _laguerre_rule(order)
        values = np.asarray(f(lower + nodes), dtype=float)
        if values.shape != nodes.shape:
            raise InvalidArgument("integrand must map an array of points to an array of values")
        if not np.all(np.isfinite(values)):
            raise DomainError("integrand returned a non-finite value at a quadrature node")
        estimate = float(np.dot(scaled, values))
        if previous is not None and abs(estimate - previous) <= settings.abs_tol * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        order *= 2
    raise NonConvergent("quadrature orders failed to agree after four doublings")


def _e1_scaled(t: float) -> float:
    """exp(t) * E1(t) for t > 0, stable for arbitrarily large t."""
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"E1 requires a positive finite argument, got {t}")
    if t <= 1.0:
        # alternating series for E1, then scale by exp(t)
        total = -_EULER_GAMMA - math.log(t)
        term = 1.0
        for k in range(1, 60):
            term *= -t / k
            contribution = -term / k
            total += contribution
            if abs(contribution) <= 1e-17 * abs(total):
                break
        return math.exp(t) * total
    # modified Lentz continued fraction; the scaled value is the fraction itself
    b = t + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NonConvergent(f"continued fraction for E1 stalled at t={t}")


def exp_integral_e1(t: float) -> float:
    """Exponential integral E1(t) = int_t^inf exp(-u)/u du, t > 0.

    Series expansion for t <= 1, continued fraction beyond; relative error
    is at the 1e-14 level across the crossover.
    """
    return math.exp(-t) * _e1_scaled(t)


def bisect(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    settings: SolverSettings,
) -> float:
    """Root of g on [lo, hi] by bisection.

    Stops when |g(x)| <= abs_tol or the half-interval falls below abs_tol.
    Raises BracketError when g(lo) and g(hi) share a sign, NonConvergent
    when max_iter bisections are not enough.
    """
    if not (lo < hi):
        raise InvalidArgument(f"need lo < hi, got [{lo}, {hi}]")
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo:.3g}, {g_hi:.3g}")
    for _ in range(settings.max_iter):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= settings.abs_tol or 0.5 * (hi - lo) <= settings.abs_tol:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    raise NonConvergent("bisection exhausted max_iter without meeting abs_tol")


@dataclass(frozen=True)
class MaxMinProblem:
    """A two-relay max-min rate instance: per-relay SNRs and bit budgets."""

    snrs: tuple[float, float]
    budgets: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.snrs) != 2 or len(self.budgets) != 2:
            raise InvalidArgument("snrs and budgets must both have two entries")
        for value in (*self.snrs, *self.budgets):
            if not math.isfinite(value) or value < 0.0:
                raise InvalidArgument("snrs and budgets must be finite and nonnegative")


def _log2_1p(x: np.ndarray) -> np.ndarray:
    return np.log1p(x) / _LN2


def _one_relay_value(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Single-relay compress-and-forward rate log2((1+rho)/(1+rho 2^-c))."""
    return (np.log1p(rho) - np.log1p(rho * np.exp2(-c))) / _LN2


def _one_relay_rate(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Compression rate at the single-relay optimum, where log2(1 + rho u)
    meets c - r: r = log2(1 + (2^c - 1)/(1 + rho)), clamped to c.  Unlike
    c minus the value, it keeps its relative precision when r is tiny."""
    return np.minimum(np.log1p(np.expm1(c * _LN2) / (1.0 + rho)) / _LN2, c)


def _snr_used(rho, r):
    """rho (1 - 2^-r): the part of the SNR that compression at rate r keeps."""
    return rho * -np.expm1(-r * _LN2)


def _branches(rho1, rho2, c1, c2, r1, r2):
    """The four cut branches at compression rates (r1, r2): no cut, and the
    leftover-budget terms of relay 1, of relay 2 and of both."""
    used1 = _snr_used(rho1, r1)
    used2 = _snr_used(rho2, r2)
    both = _log2_1p(used1 + used2)
    cut1 = c1 - r1 + _log2_1p(used2)
    cut2 = _log2_1p(used1) + c2 - r2
    cut12 = c1 - r1 + c2 - r2
    return both, cut1, cut2, cut12


def _branch_min(rho1, rho2, c1, c2, r1, r2):
    """Minimum over the four cut branches at compression rates (r1, r2)."""
    both, cut1, cut2, cut12 = _branches(rho1, rho2, c1, c2, r1, r2)
    return np.minimum(np.minimum(both, cut1), np.minimum(cut2, cut12))


def _candidates(rho1, rho2, c1, c2):
    """(r1, r2), each of shape (5, n): the points where the maximum can sit,
    for lanes with both SNRs and both budgets positive.

    Rows: the vertices K1 = K2 = K12, B = K1 = K12, B = K2 = K12 and
    B = K1 = K2, then the B-K12 tangency p = q (module docstring).  Every
    row is formed in r, never from p, q or alpha beta.  A row may leave the
    box; the caller clips it.
    """
    # K2 = K12 holds on the line r1 = s1 and K1 = K12 on r2 = s2, the
    # one-relay optima; B = K1 at a given r2 is relay 1's one-relay optimum
    # at SNR rho1 / (1 + rho2 u2), and B = K2 likewise.
    s1 = _one_relay_rate(rho1, c1)
    s2 = _one_relay_rate(rho2, c2)
    r1_b_k1 = _one_relay_rate(rho1 / (1.0 + _snr_used(rho2, s2)), c1)
    r2_b_k2 = _one_relay_rate(rho2 / (1.0 + _snr_used(rho1, s1)), c2)

    # B = K1 = K2: eliminating rho2 u2 leaves a quadratic in A = rho1 u1,
    # scaled by rho1 rho2 2^-(c1+c2) so that no coefficient overflows.  With
    # the box ends U = rho (1 - 2^-c) and E = rho 2^-c it is
    # A^2 + b A - U1 k = 0 after division by its leading coefficient
    # 1 + U2 + E1; the one positive root is taken in the form that does not
    # cancel for either sign of b, and hypot keeps b^2 from overflowing.
    top1 = _snr_used(rho1, c1)
    top2 = _snr_used(rho2, c2)
    low1 = rho1 * np.exp2(-c1)
    low2 = rho2 * np.exp2(-c2)
    lead = 1.0 + top2 + low1
    b = (low1 / lead) * low2 + (low1 + low2) / lead + ((1.0 + top2) / lead) * (1.0 - top1)
    k = (1.0 + rho2) / lead
    m = np.abs(b) + np.hypot(b, 2.0 * np.sqrt(top1) * np.sqrt(k))
    used1 = np.minimum(np.where(b >= 0.0, top1 * (2.0 * k / m), 0.5 * m), top1)
    r1_b_k1_k2 = -np.log1p(-used1 / rho1) / _LN2
    r2_b_k1_k2 = _one_relay_rate(rho2 / (1.0 + used1), c2)

    # B-K12 tangency: p = q = w with alpha beta w^2 + 2 w - R = 0, so
    # w = R / (1 + S), S = sqrt(1 + alpha beta R), and
    # r_k = log2(2 rho_k / R) + log2((1 + S) / 2), all in log2 form:
    # g = log2(alpha beta R).  Near r_k = 0 (rho1 ~ rho2 large, S ~ 1) both
    # terms are small and are taken by log1p.
    total = 1.0 + rho1 + rho2
    g = c1 + c2 + np.log2(total) - np.log2(rho1) - np.log2(rho2)
    t = np.exp2(np.minimum(g, 0.0))
    half_g = 0.5 * np.maximum(g, 0.0)
    e = np.exp2(-half_g)
    lift = np.where(
        g > 0.0,
        half_g - 1.0 + np.log2(e + np.sqrt(e * e + 1.0)),
        np.log1p(t / (2.0 + 2.0 * np.sqrt(1.0 + t))) / _LN2,
    )

    def tangency(rho, other):
        x = (rho - other - 1.0) / total  # 2 rho / R - 1
        return np.where(x > -0.5, np.log1p(x) / _LN2, np.log2(2.0 * rho / total)) + lift

    r1 = np.stack([s1, r1_b_k1, s1, r1_b_k1_k2, tangency(rho1, rho2)])
    r2 = np.stack([s2, s2, r2_b_k2, r2_b_k1_k2, tangency(rho2, rho1)])
    return r1, r2


def _maxmin_batch(rho1, rho2, c1, c2):
    """Vectorized max-min rate over aligned arrays of SNR pairs and budgets.

    Returns (value, r1, r2) with the same shape as the broadcast inputs.  A
    lane with both relays live scores the five candidates of _candidates
    (module docstring), clipped into the box, by _branch_min in one (5, n)
    evaluation and keeps the first best.  Relays with zero SNR or zero
    budget are pinned at r = 0 and the problem collapses to the
    single-relay closed form.  Budgets above _BUDGET_CAP are solved at the
    cap, and the excess goes to the live relay's r.  A lane with a
    non-finite input returns NaN in all three, which callers report as a
    failed cell.
    """
    rho1, rho2, c1, c2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho1, rho2, c1, c2))
    )
    shape = rho1.shape
    rho1, rho2, c1, c2 = (a.reshape(-1).copy() for a in (rho1, rho2, c1, c2))
    failed = ~(np.isfinite(rho1) & np.isfinite(rho2) & np.isfinite(c1) & np.isfinite(c2))
    for a in (rho1, rho2, c1, c2):
        a[failed] = 0.0
    value = np.zeros_like(rho1)
    r1 = np.zeros_like(rho1)
    r2 = np.zeros_like(rho1)

    live1 = (rho1 > 0.0) & (c1 > 0.0)
    live2 = (rho2 > 0.0) & (c2 > 0.0)
    excess1 = np.maximum(c1 - _BUDGET_CAP, 0.0)
    excess2 = np.maximum(c2 - _BUDGET_CAP, 0.0)
    np.minimum(c1, _BUDGET_CAP, out=c1)
    np.minimum(c2, _BUDGET_CAP, out=c2)

    only1 = live1 & ~live2
    if np.any(only1):
        value[only1] = _one_relay_value(rho1[only1], c1[only1])
        r1[only1] = _one_relay_rate(rho1[only1], c1[only1])

    only2 = live2 & ~live1
    if np.any(only2):
        value[only2] = _one_relay_value(rho2[only2], c2[only2])
        r2[only2] = _one_relay_rate(rho2[only2], c2[only2])

    both = live1 & live2
    if np.any(both):
        lanes = (rho1[both], rho2[both], c1[both], c2[both])
        with np.errstate(over="ignore", divide="ignore"):
            cand1, cand2 = _candidates(*lanes)
        np.clip(cand1, 0.0, lanes[2], out=cand1)
        np.clip(cand2, 0.0, lanes[3], out=cand2)
        scores = _branch_min(*lanes, cand1, cand2)
        best = np.argmax(scores, axis=0), np.arange(scores.shape[1])
        value[both] = scores[best]
        r1[both] = cand1[best]
        r2[both] = cand2[best]

    r1[live1] += excess1[live1]
    r2[live2] += excess2[live2]
    value = np.maximum(value, 0.0)
    for a in (value, r1, r2):
        a[failed] = np.nan
    return value.reshape(shape), r1.reshape(shape), r2.reshape(shape)


def maxmin_grid_oracle(problem: MaxMinProblem, settings: SolverSettings) -> float:
    """Lattice maximum of the branch-minimum objective.

    Returns the exact maximum of the objective over the grid_points x
    grid_points lattice covering [0, c1] x [0, c2] — the same value a
    brute-force sweep of every lattice point produces (asserted against
    _lattice_max_bruteforce in the test suite), but found in O(n log n):
    along each lattice row the objective is the minimum of a piece that
    never decreases in the second coordinate and a piece that never
    increases, so the row maximum sits at their crossing, located by a
    vectorized binary search.  Shares no solution machinery with
    _maxmin_batch, which makes it an independent cross-check.
    """
    rho1, rho2 = problem.snrs
    c1, c2 = problem.budgets
    n = settings.grid_points
    r1_axis = np.linspace(0.0, c1, n)
    r2_axis = np.linspace(0.0, c2, n)
    t1 = rho1 * -np.expm1(-r1_axis * _LN2)
    t2 = rho2 * -np.expm1(-r2_axis * _LN2)
    log_t2 = _log2_1p(t2)
    rem1 = c1 - r1_axis
    rem2 = c2 - r2_axis
    # Decreasing piece per row i, column j: rem2[j] + m1[i].
    m1 = np.minimum(_log2_1p(t1), rem1)

    def increasing_piece(j: np.ndarray) -> np.ndarray:
        return np.minimum(_log2_1p(t1 + t2[j]), rem1 + log_t2[j])

    def objective(j: np.ndarray) -> np.ndarray:
        return np.minimum(increasing_piece(j), m1 + rem2[j])

    # Per row, the smallest column index where the increasing piece meets
    # or passes the decreasing piece (n-1 when they never cross).
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n - 1, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        crossed = increasing_piece(mid) >= m1 + rem2[mid]
        hi = np.where(crossed, mid, hi)
        lo = np.where(crossed, lo, np.minimum(mid + 1, hi))
    candidates = np.maximum(objective(hi), objective(np.maximum(hi - 1, 0)))
    return max(float(candidates.max()), 0.0)


def _lattice_max_bruteforce(problem: MaxMinProblem, settings: SolverSettings) -> float:
    """Row-chunked evaluation of every lattice point; slow reference for
    maxmin_grid_oracle's crossing search."""
    rho1, rho2 = problem.snrs
    c1, c2 = problem.budgets
    n = settings.grid_points
    r1_axis = np.linspace(0.0, c1, n)
    r2_axis = np.linspace(0.0, c2, n)[None, :]
    best = -np.inf
    block = max(1, int(4e6) // n)
    for start in range(0, n, block):
        r1_block = r1_axis[start : start + block][:, None]
        values = _branch_min(rho1, rho2, c1, c2, r1_block, r2_axis)
        best = max(best, float(values.max()))
    return max(best, 0.0)
