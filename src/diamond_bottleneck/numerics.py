"""Numerical kernels shared by every bound computation.

Semi-infinite quadrature, the exponential integral E1, a guarded bisection,
and the max-min compression-rate solver used by the fixed-channel rate and
by the quantized / truncated inversion schemes.  All rates are in bits per
complex dimension (base-2 logs throughout).
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

# The max-min outer search probes _SECTION_PROBES equally spaced interior
# points of every bracket per step and keeps the two sections around the
# best, so _SECTION_STEPS steps shrink it by (2/12)**20 ~ 2.7e-16 relative:
# the answer is limited by float64, not by the step count.
_SECTION_PROBES = 11
_SECTION_STEPS = 20

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


def _branches(rho1, rho2, c1, c2, r1, r2):
    """The four cut branches at compression rates (r1, r2): no cut, and the
    leftover-budget terms of relay 1, of relay 2 and of both."""
    u1 = -np.expm1(-r1 * _LN2)
    u2 = -np.expm1(-r2 * _LN2)
    both = _log2_1p(rho1 * u1 + rho2 * u2)
    cut1 = c1 - r1 + _log2_1p(rho2 * u2)
    cut2 = _log2_1p(rho1 * u1) + c2 - r2
    cut12 = c1 - r1 + c2 - r2
    return both, cut1, cut2, cut12


def _branch_min(rho1, rho2, c1, c2, r1, r2):
    """Minimum over the four cut branches at compression rates (r1, r2)."""
    both, cut1, cut2, cut12 = _branches(rho1, rho2, c1, c2, r1, r2)
    return np.minimum(np.minimum(both, cut1), np.minimum(cut2, cut12))


def _probe(lanes, r1, work):
    """Branch minimum at r1, with r2 at its closed-form inner maximizer.

    The inner solve: the two branches that decrease in r2 share the line
    M - r2 with M = min(L1, c1 - r1) + c2 and L1 = log2(1 + A), A = rho1 u1;
    each increasing branch crosses that line at an explicit point, and the
    max-min sits at the larger of the two crossings, clamped into [0, c2]:

        r2_both = log2(1 + (1 + A) (2^(M - L1) - 1) / (1 + A + rho2))
        r2_cut1 = log2(1 + (2^(M - d1) - 1) / (1 + rho2)),  d1 = c1 - r1.

    Written with expm1 and log1p, neither crossing cancels when it is tiny
    against a huge SNR, and log1p is monotone, so it is applied once, to
    the larger argument.  A, d1 and M are shared with the branch minimum,
    whose two branches that fall with r2 are taken as one, M - r2:
    rounding is monotone, so min(x + c, y + c) and min(x, y) + c are the
    same float.  Likewise (-rho)(-u) stands in for rho u with the same bits.

    `lanes` holds the per-lane constants (-rho1, rho2, -rho2, 1 + rho2,
    c1, c2).  Every array in `work` has the shape of r1 and is overwritten;
    the returned (value, r2) are two of them.  The caller holds the error
    state that lets expm1 overflow and log1p(-1) diverge.
    """
    neg_rho1, rho2, neg_rho2, rho2_plus_1, c1, c2 = lanes
    t1, d1, m, v, w, r2 = work
    np.multiply(r1, -_LN2, out=t1)  # t1 = A = rho1 u1 with u1 = -expm1(-r1 ln2)
    np.expm1(t1, out=t1)
    np.multiply(neg_rho1, t1, out=t1)
    np.log1p(t1, out=v)  # v = L1
    np.divide(v, _LN2, out=v)
    np.subtract(c1, r1, out=d1)
    np.minimum(v, d1, out=m)  # m = M
    np.add(m, c2, out=m)
    np.subtract(m, v, out=v)  # v = (1 + A) expm1((M - L1) ln2) / (1 + A + rho2)
    np.multiply(v, _LN2, out=v)
    np.expm1(v, out=v)
    np.add(1.0, t1, out=w)
    np.multiply(v, w, out=v)
    np.add(w, rho2, out=w)
    np.divide(v, w, out=v)
    np.subtract(m, d1, out=w)  # w = expm1((M - d1) ln2) / (1 + rho2)
    np.multiply(w, _LN2, out=w)
    np.expm1(w, out=w)
    np.divide(w, rho2_plus_1, out=w)
    np.maximum(v, w, out=r2)
    np.log1p(r2, out=r2)
    np.divide(r2, _LN2, out=r2)
    np.maximum(r2, 0.0, out=r2)
    np.minimum(r2, c2, out=r2)

    np.multiply(r2, -_LN2, out=w)  # w = rho2 u2 from here on
    np.expm1(w, out=w)
    np.multiply(neg_rho2, w, out=w)
    np.add(t1, w, out=v)  # both = log2(1 + rho1 u1 + rho2 u2)
    np.log1p(v, out=v)
    np.divide(v, _LN2, out=v)
    np.log1p(w, out=w)  # cut1 = c1 - r1 + log2(1 + rho2 u2)
    np.divide(w, _LN2, out=w)
    np.add(d1, w, out=w)
    np.minimum(v, w, out=v)
    np.subtract(m, r2, out=m)  # min(cut2, cut12) = M - r2
    np.minimum(v, m, out=v)
    return v, r2


def _maxmin_general(rho1, rho2, c1, c2):
    """K-probe section search over r1 with the exact inner solve; both SNRs
    positive.

    The value is concave in r1, so with the best of the K equally spaced
    interior probes p_1..p_K of [lo, hi] at p_i (first on ties; p_0 = lo,
    p_(K+1) = hi), the maximizer lies in [p_(i-1), p_(i+1)].  All K probes
    of a step share one (K, n) evaluation, and every temporary lives in a
    buffer allocated once per call.
    """
    n = c1.shape[0]
    lanes = (-rho1, rho2, -rho2, 1.0 + rho2, c1, c2)
    grid = np.empty((_SECTION_PROBES + 2, n))
    lo, inner, hi = grid[0], grid[1:-1], grid[-1]
    lo.fill(0.0)
    hi[:] = c1
    fractions = (np.arange(1.0, _SECTION_PROBES + 1.0) / (_SECTION_PROBES + 1.0))[:, None]
    width = np.empty(n)
    columns = np.arange(n)
    work = np.empty((6, _SECTION_PROBES, n))
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(_SECTION_STEPS):
            np.subtract(hi, lo, out=width)
            np.multiply(fractions, width, out=inner)
            np.add(inner, lo, out=inner)
            values, _ = _probe(lanes, inner, work)
            best = np.argmax(values, axis=0)
            hi[:] = grid[best + 2, columns]
            lo[:] = grid[best, columns]
        r1 = 0.5 * (lo + hi)
        value, r2 = _probe(lanes, r1, work[:, 0])
    return value, r1, r2


def _maxmin_batch(rho1, rho2, c1, c2):
    """Vectorized max-min rate over aligned arrays of SNR pairs and budgets.

    Returns (value, r1, r2) with the same shape as the broadcast inputs.
    Relays with zero SNR or zero budget are pinned at r = 0 and the problem
    collapses to the single-relay closed form.  Budgets above _BUDGET_CAP
    are solved at the cap, and the excess goes to the live relay's r.
    """
    rho1, rho2, c1, c2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho1, rho2, c1, c2))
    )
    shape = rho1.shape
    rho1, rho2, c1, c2 = (a.reshape(-1).copy() for a in (rho1, rho2, c1, c2))
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
        v, a, b = _maxmin_general(rho1[both], rho2[both], c1[both], c2[both])
        value[both] = v
        r1[both] = a
        r2[both] = b

    r1[live1] += excess1[live1]
    r2[live2] += excess2[live2]
    value = np.maximum(value, 0.0)
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
