"""Numerical kernels shared by every bound computation.

Log-substituted Gauss-Legendre quadrature over [a, inf), the exponential
integral E1, a guarded bisection, and the max-min compression-rate solver
used by the fixed-channel rate and by the quantized / truncated inversion
schemes.  All rates are in bits per complex dimension (base-2 logs throughout).

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

The kernel also returns the value's slopes in c1 and c2.  By Danskin's
theorem (The Theory of Max-Min, 1967) they are lambda_K1 + lambda_K12 and
lambda_K2 + lambda_K12, where lambda >= 0, summing to 1, are the
multipliers of the tight branches at the maximizer: the budgets enter K1
and K12 (c1) and K2 and K12 (c2) with slope 1, and the maximizer is
interior, so no box multiplier enters.  With u1 = rho1 - p and
u2 = rho2 - q, the branches' gradients in (r1, r2) are

    B   (p, q) / (1 + u1 + u2)
    K1  (-1, Q)         Q = q / (1 + u2)
    K2  (P, -1)         P = p / (1 + u1)
    K12 (-1, -1)

and for three tight branches [g_a g_b g_c; 1 1 1] lambda = (0, 0, 1), so
each lambda is proportional to the cross product of the other two
gradients.  Per row of candidates, with T = 1 + u1 + u2:

- {K1, K2, K12}: lambda = (1/(1+Q), 1/(1+P), (PQ - 1)/((1+P)(1+Q))),
  slopes p/(1 + rho1) and q/(1 + rho2); valid when PQ >= 1;
- {B, K1, K12}: lambda ~ (1 + Q, (p - q)/T, (pQ + q)/T), slopes
  p/(1 + rho1 + u2) and q (p + 1 + u2)/((1 + rho2)(1 + rho1 + u2)); valid
  when p >= q; {B, K2, K12} mirrors it;
- {B, K1, K2}: lambda ~ (1 - PQ, (Pq + p)/T, (pQ + q)/T), slopes
  P (q + 1 + u1)/(1 + rho1 + rho2 + PQ) and its mirror; valid when PQ <= 1;
- the tangency {B, K12} at p = q: lambda_B = 1/(1 + a), lambda_K12 =
  a/(1 + a) with a = p/T, and both slopes are a/(1 + a).

Where branches nearly coincide several rows tie in value to the last bit,
but only the maximizer's row has valid multipliers (the others' slopes can
be off by far more than a rounding error), so the slopes come from the
best-scoring valid row.  A one-relay lane has slope rho 2^-c/(1 + rho 2^-c).

A relay with positive SNR and zero budget facing a live relay needs the
right derivative.  Say relay 2: at relay 1's one-relay optimum s1 all four
branches are equal.  Moving c2 to e, r2 to t e and r1 to s1 + d e moves
them, per unit e, by a d + b t (B), -d + rho2 t (K1), a d + 1 - t (K2) and
-d + 1 - t (K12), with a = p/(1 + u1) and b = rho2/(1 + u1).  The best d
leaves (min(b t, 1 - t) + a min(rho2 t, 1 - t))/(1 + a), piecewise linear
and concave in t, so its maximum over [0, 1] sits at t = 1/(1 + rho2) or
1/(1 + b): max(b/(1 + b), (b + a rho2)/((1 + a)(1 + rho2))).  A slope of 0
there would leave a cell whose budget reached 0 pinned at 0.
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

_MAX_ITER = 200  # bisect's cap on bisection steps


@dataclass(frozen=True)
class SolverSettings:
    """Convergence tolerance of the iterative solvers, each of which caps its
    own iterations (numerics._MAX_ITER, qci._MAX_ITER).

    abs_tol      absolute convergence tolerance (bits) for iterative solvers
    """

    abs_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise InvalidArgument("abs_tol must be positive and finite")


# A unit exponential puts less than 3e-20 of its mass outside [e^-45, e^4].
_LOG_RANGE = (-45.0, 4.0)
# Nodes and weights on [-1, 1]; forming them costs milliseconds per order.
_legendre = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _log_rule(order: int, lower: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i and weights w_i with sum_i w_i f(x_i) ~ int_lower^inf f(x) dx.

    The package's one quadrature rule: Gauss-Legendre of the given order in
    t = ln x, over _LOG_RANGE for a lower limit of 0 and over
    [ln lower, ln(lower + e^4)] above it, with the Jacobian x in the
    weights, so nodes sit at every scale of x.
    """
    low, high = _LOG_RANGE
    if lower > 0.0:
        low, high = math.log(lower), math.log(lower + math.exp(high))
    x, w = _legendre(order)
    half = 0.5 * (high - low)
    nodes = np.exp(low + half * (x + 1.0))
    return nodes, half * w * nodes


def integrate_semiinfinite(f: Callable[[np.ndarray], np.ndarray], lower: float) -> float:
    """Integrate f over [lower, inf) by _log_rule at orders 128 and 256.

    Returns the order-256 value, or raises NonConvergent when the two differ
    by more than 1e-12 * max(1, |value|).  f maps an array of points to an
    array of values and must be negligible past lower + e^4.
    """
    if not math.isfinite(lower) or lower < 0.0:
        raise DomainError(f"lower limit must be finite and nonnegative, got {lower}")
    estimates = []
    for order in (128, 256):
        nodes, weights = _log_rule(order, lower)
        values = np.asarray(f(nodes), dtype=float)
        if values.shape != nodes.shape:
            raise InvalidArgument("integrand must map an array of points to an array of values")
        if not np.all(np.isfinite(values)):
            raise DomainError("integrand returned a non-finite value at a quadrature node")
        estimates.append(float(weights @ values))
    coarse, fine = estimates
    if abs(fine - coarse) > 1e-12 * max(1.0, abs(fine)):
        raise NonConvergent(f"quadrature orders 128 and 256 differ by {abs(fine - coarse):.2e}")
    return fine


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
        if abs(delta - 1.0) <= 2.0**-52:  # one float spacing; a finer stop can stall
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
    when _MAX_ITER bisections are not enough.
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
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= settings.abs_tol or 0.5 * (hi - lo) <= settings.abs_tol:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    raise NonConvergent(f"bisection exhausted {_MAX_ITER} steps without meeting abs_tol")


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


def _one_relay_slope(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """d/dc of _one_relay_value: rho 2^-c / (1 + rho 2^-c); at c = 0 it is
    the right derivative."""
    kept = rho * np.exp2(-c)
    return kept / (1.0 + kept)


def _snr_used(rho, r):
    """rho (1 - 2^-r): the part of the SNR that compression at rate r keeps."""
    return rho * -np.expm1(-r * _LN2)


def _branches(c1, c2, r1, r2, used1, used2):
    """The four cut branches at compression rates (r1, r2) that keep the
    SNRs used1 and used2 (_snr_used): no cut, and the leftover-budget terms
    of relay 1, of relay 2 and of both."""
    both = _log2_1p(used1 + used2)
    left1 = c1 - r1
    cut1 = left1 + _log2_1p(used2)
    cut2 = _log2_1p(used1) + c2 - r2
    cut12 = left1 + c2 - r2
    return both, cut1, cut2, cut12


def _branch_min(rho1, rho2, c1, c2, r1, r2):
    """Minimum over the four cut branches at compression rates (r1, r2)."""
    return _lowest(_branches(c1, c2, r1, r2, _snr_used(rho1, r1), _snr_used(rho2, r2)))


def _lowest(branches):
    """Elementwise minimum of the four branches of _branches."""
    both, cut1, cut2, cut12 = branches
    return np.minimum(np.minimum(both, cut1), np.minimum(cut2, cut12))


def _candidates(rho: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(r1, r2) stacked in one array of shape (2, 5, n): the points where the
    maximum can sit, for lanes with both SNRs rho = (rho1, rho2) and both
    budgets c = (c1, c2) positive, each of shape (2, n).

    Rows: the vertices K1 = K2 = K12, B = K1 = K12, B = K2 = K12 and
    B = K1 = K2, then the B-K12 tangency p = q (module docstring).  Every
    row is formed in r, never from p, q or alpha beta.  A row may leave the
    box; the caller clips it.  Whatever both relays compute alike is
    computed once on the (2, n) pair.
    """
    rho1, rho2 = rho
    c1, c2 = c
    # K2 = K12 holds on the line r1 = s1 and K1 = K12 on r2 = s2, the
    # one-relay optima; B = K1 at a given r2 is relay 1's one-relay optimum
    # at SNR rho1 / (1 + rho2 u2), and B = K2 likewise.
    s = _one_relay_rate(rho, c)
    r_b_k = _one_relay_rate(rho / (1.0 + _snr_used(rho[::-1], s[::-1])), c)

    # B = K1 = K2: eliminating rho2 u2 leaves a quadratic in A = rho1 u1,
    # scaled by rho1 rho2 2^-(c1+c2) so that no coefficient overflows.  With
    # the box ends U = rho (1 - 2^-c) and E = rho 2^-c it is
    # A^2 + b A - U1 k = 0 after division by its leading coefficient
    # 1 + U2 + E1; the one positive root is taken in the form that does not
    # cancel for either sign of b, and hypot keeps b^2 from overflowing.
    top1, top2 = _snr_used(rho, c)
    low1, low2 = rho * np.exp2(-c)
    rest2 = 1.0 + top2
    lead = rest2 + low1
    b = (low1 / lead) * low2 + (low1 + low2) / lead + (rest2 / lead) * (1.0 - top1)
    k = (1.0 + rho2) / lead
    m = np.abs(b) + np.hypot(b, 2.0 * np.sqrt(top1) * np.sqrt(k))
    used1 = np.minimum(np.where(b >= 0.0, top1 * (2.0 * k / m), 0.5 * m), top1)

    # B-K12 tangency: p = q = w with alpha beta w^2 + 2 w - R = 0, so
    # w = R / (1 + S), S = sqrt(1 + alpha beta R), and
    # r_k = log2(2 rho_k / R) + log2((1 + S) / 2), all in log2 form:
    # g = log2(alpha beta R).  Near r_k = 0 (rho1 ~ rho2 large, S ~ 1) both
    # terms are small and are taken by log1p.
    total = 1.0 + rho1 + rho2
    log_rho1, log_rho2 = np.log2(rho)
    g = c1 + c2 + np.log2(total) - log_rho1 - log_rho2
    t = np.exp2(np.minimum(g, 0.0))
    half_g = 0.5 * np.maximum(g, 0.0)
    e = np.exp2(-half_g)
    lift = np.where(
        g > 0.0,
        half_g - 1.0 + np.log2(e + np.sqrt(e * e + 1.0)),
        np.log1p(t / (2.0 + 2.0 * np.sqrt(1.0 + t))) / _LN2,
    )
    x = (rho - rho[::-1] - 1.0) / total  # 2 rho / R - 1

    cand = np.empty((2, 5) + rho1.shape)
    cand[:, 0] = s
    cand[0, 1] = r_b_k[0]
    cand[1, 1] = s[1]
    cand[0, 2] = s[0]
    cand[1, 2] = r_b_k[1]
    cand[0, 3] = -np.log1p(-used1 / rho1) / _LN2
    cand[1, 3] = _one_relay_rate(rho2 / (1.0 + used1), c2)
    cand[:, 4] = np.where(x > -0.5, np.log1p(x) / _LN2, np.log2(2.0 * rho / total)) + lift
    return cand


def _kkt_slopes(rho, r, used):
    """(slopes, valid) at the rows r of _candidates, where the rates keep
    the SNRs used: slopes[k] is dvalue/dc_k, the multiplier sum
    lambda_K1 + lambda_K12 (k = 0) or lambda_K2 + lambda_K12 (k = 1) of each
    row's tight set, and valid whether all of its multipliers are
    nonnegative (module docstring); slopes has shape (2, 5, n) and valid
    (5, n).  Every slope is a ratio no larger than 1, or such a ratio times
    P <= rho1 or Q <= rho2, so none overflows; only PQ may, on a row that is
    then not valid."""
    rho1, rho2 = rho
    used1, used2 = used
    pq = rho[:, None] * np.exp2(-r)
    lead = 1.0 + used
    pk, qk = pq / lead  # P and Q of the module docstring
    p, q = pq
    lead1, lead2 = lead
    cross = pk * qk
    e1 = 1.0 + rho1
    e2 = 1.0 + rho2
    t1 = e1 + used2[1]
    t2 = e2 + used1[2]
    den = e1 + rho2 + cross[3]
    w = 0.5 * (p[4] + q[4])
    slopes = np.empty_like(r)
    d1, d2 = slopes
    np.divide(p[0], e1, out=d1[0])
    np.divide(q[0], e2, out=d2[0])
    np.divide(p[1], t1, out=d1[1])
    np.multiply(q[1] / e2, (p[1] + lead2[1]) / t1, out=d2[1])
    np.multiply(p[2] / e1, (q[2] + lead1[2]) / t2, out=d1[2])
    np.divide(q[2], t2, out=d2[2])
    np.multiply(pk[3], (q[3] + lead1[3]) / den, out=d1[3])
    np.multiply(qk[3], (p[3] + lead2[3]) / den, out=d2[3])
    np.divide(w, lead1[4] + used2[4] + w, out=d1[4])
    d2[4] = d1[4]
    valid = np.empty(cross.shape, dtype=bool)
    np.greater_equal(cross[0], 1.0, out=valid[0])
    np.greater_equal(p[1], q[1], out=valid[1])
    np.greater_equal(q[2], p[2], out=valid[2])
    np.less_equal(cross[3], 1.0, out=valid[3])
    valid[4] = True
    return slopes, valid


def _zero_budget_slope(rho_live, c_live, rho_zero):
    """Right derivative of the value in the budget of a relay with SNR
    rho_zero > 0 and budget 0, the other relay live (module docstring)."""
    s = _one_relay_rate(rho_live, c_live)
    lead = 1.0 + _snr_used(rho_live, s)
    a = rho_live * np.exp2(-s) / lead
    b = rho_zero / lead
    split = (b / (1.0 + rho_zero)) / (1.0 + a) + (a / (1.0 + a)) * (rho_zero / (1.0 + rho_zero))
    return np.maximum(b / (1.0 + b), split)


def _maxmin_batch(rho1, rho2, c1, c2):
    """Vectorized max-min rate over aligned arrays of SNR pairs and budgets.

    Returns (value, r1, r2, slope1, slope2) with the same shape as the
    broadcast inputs; slope_k is the value's derivative in c_k, the right
    derivative at c_k = 0.  A lane with both relays live scores the five
    candidates of _candidates (module docstring), clipped into the box, by
    the branch minimum in one (5, n) evaluation and keeps the first best;
    its slopes are the multiplier sums of the best row whose multipliers
    are valid (_kkt_slopes).  Relays
    with zero SNR or zero budget are pinned at r = 0 and the problem
    collapses to the single-relay closed form.  A relay with zero SNR has
    slope 0.  Budgets above _BUDGET_CAP are solved at the cap, the excess
    goes to the live relay's r, and its slope is 0.  A lane with a
    non-finite input returns NaN in all five, which callers report as a
    failed cell.

    Most of a call's cost is fixed, not per lane, so the two relays'
    inputs and outputs travel as (2, n) pairs through one ufunc call each,
    and the five outputs share one (5, n) array.  Every lane still goes
    through exactly the arithmetic of its class, so no lane's bits depend
    on the other lanes of the call.
    """
    arrays = [np.asarray(a, dtype=float) for a in (rho1, rho2, c1, c2)]
    shape = np.broadcast(*arrays).shape
    lanes = np.empty((4,) + shape)
    for k, a in enumerate(arrays):
        lanes[k] = a
    lanes = lanes.reshape(4, -1)
    # count_nonzero is the cheapest any/all test of a small mask
    finite = np.isfinite(lanes)
    any_failed = np.count_nonzero(finite) < finite.size
    if any_failed:
        failed = ~finite.all(axis=0)
        lanes[:, failed] = 0.0
    rho, c = lanes[:2], lanes[2:]
    out = np.zeros((5, lanes.shape[1]))
    value, r, slopes = out[0], out[1:3], out[3:]

    live = (rho > 0.0) & (c > 0.0)
    capped = c > _BUDGET_CAP
    any_capped = np.count_nonzero(capped)
    if any_capped:
        excess = np.maximum(c - _BUDGET_CAP, 0.0)
        np.minimum(c, _BUDGET_CAP, out=c)

    # only[k]: relay k live, its partner not.  Masking a (2, n) pair picks
    # relay 1's lanes, then relay 2's, in lane order.
    only = live & ~live[::-1]
    if np.count_nonzero(only):
        rho_o, c_o = rho[only], c[only]
        value[np.nonzero(only)[1]] = _one_relay_value(rho_o, c_o)
        r[only] = _one_relay_rate(rho_o, c_o)

    # A relay with SNR whose partner is not live sees the one-relay slope,
    # at a zero budget too; facing a live partner, a zero budget has its own.
    slopes[...] = np.where(live[::-1], 0.0, _one_relay_slope(rho, c))
    rising = only[::-1] & (rho > 0.0)
    if np.count_nonzero(rising):
        slopes[rising] = _zero_budget_slope(rho[::-1][rising], c[::-1][rising], rho[rising])

    both = live[0] & live[1]
    if np.count_nonzero(both):
        lanes_b = lanes.compress(both, axis=1)
        rho_b, c_b = lanes_b[:2], lanes_b[2:]
        with np.errstate(over="ignore", divide="ignore"):
            cand = _candidates(rho_b, c_b)
        cand.clip(0.0, c_b[:, None], out=cand)
        used = _snr_used(rho_b[:, None], cand)
        scores = _lowest(_branches(*c_b, *cand, *used))
        # Row-major flat indices of each lane's first best row; take on a
        # flat index is much cheaper than indexing with (row, lane) pairs.
        lane = np.arange(scores.shape[1])
        best = scores.argmax(axis=0) * lane.size + lane
        value[both] = scores.take(best)
        r[:, both] = cand.reshape(2, -1).take(best, axis=1)
        # Where branches nearly coincide rows can tie in value to the last
        # bit; the slopes come from the best row whose multipliers are valid.
        with np.errstate(over="ignore", invalid="ignore"):
            d, valid = _kkt_slopes(rho_b, cand, used)
        kkt = np.where(valid, scores, -np.inf).argmax(axis=0) * lane.size + lane
        slopes[:, both] = d.reshape(2, -1).take(kkt, axis=1)

    if any_capped:
        np.add(r, excess, out=r, where=live)
        slopes[capped] = 0.0
    np.maximum(value, 0.0, out=value)
    if any_failed:
        out[:, failed] = np.nan
    return tuple(a.reshape(shape) for a in out)
