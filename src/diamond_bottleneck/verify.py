"""Self-check suite behind the `verify` CLI subcommand, and the oracles of
acceptance criteria 4, 5, 6 and 8.

Each check pits an implementation path against an independent oracle:
E1 against a decimal-arithmetic series and against raw quadrature, the max-min
solver against an exhaustive lattice, the library's quantile levels,
conditional noise and estimator power against quadrature of the unit
exponential gain density, and the calibration identities against their
defining equations.  The quadrature is numerics.integrate_semiinfinite
(the package's one rule at orders 128 and 256, which must agree to 1e-12),
at noise powers from 1e-6 to 10.  No check draws fading gains.  Prints one PASS/FAIL
line per check and returns a process exit code (0 only when everything
passes).

A check that draws random instances takes its generator's seed and the
instance count: verify offsets its own seed by a constant per check, and
each criterion passes its own.  No bound computation reads the seed.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from .channel import SnrPair, SystemConfig, xi_quantile
from .errors import InvalidArgument
from .fixed_rate import fixed_rate
from .mmse import calibrate
from .numerics import (
    _LN2,
    SolverSettings,
    _branch_min,
    _e1_scaled,
    _log2_1p,
    exp_integral_e1,
    integrate_semiinfinite,
)
from .qci import cell_snrs, qci_lower_bound
from .sweeps import BUDGET_BOX, SNR_DB_BOX
from .tci import tci_rate
from .upper_bound import budget_integral, rate_at_level, upper_bound

# Fewest lattice points per axis of the solver-vs-lattice comparisons; finer
# lattices are used where the budgets call for them.
_MIN_GRID = 400


def maxmin_grid_oracle(rho1: float, rho2: float, c1: float, c2: float, n: int) -> float:
    """Lattice maximum of the branch-minimum objective.

    Returns the exact maximum of the objective over the n x n lattice
    covering [0, c1] x [0, c2] — the same value a brute-force sweep of every
    lattice point produces (asserted against _lattice_max_bruteforce in the
    test suite), but found in O(n log n): along each lattice row the
    objective is the minimum of a piece that never decreases in the second
    coordinate and a piece that never increases, so the row maximum sits at
    their crossing, located by a vectorized binary search.  Shares no
    solution machinery with _maxmin_batch, which makes it an independent
    cross-check.
    """
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


def _lattice_max_bruteforce(rho1: float, rho2: float, c1: float, c2: float, n: int) -> float:
    """Row-chunked evaluation of every lattice point; slow reference for
    maxmin_grid_oracle's crossing search."""
    r1_axis = np.linspace(0.0, c1, n)
    r2_axis = np.linspace(0.0, c2, n)[None, :]
    best = -np.inf
    block = max(1, int(4e6) // n)
    for start in range(0, n, block):
        r1_block = r1_axis[start : start + block][:, None]
        values = _branch_min(rho1, rho2, c1, c2, r1_block, r2_axis)
        best = max(best, float(values.max()))
    return max(best, 0.0)


def _one_relay_closed_form(rho: float, c: float) -> float:
    return (math.log1p(rho) - math.log1p(rho * 2.0**-c)) / _LN2


# Euler's constant to 50 digits
_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")


def _e1_scaled_reference(t: float) -> float:
    """e^t E1(t) for t > 0 in decimal arithmetic, sharing no code with
    numerics._e1_scaled: below t = 40 the power series
    E1(t) = -gamma - ln t - sum_k (-t)^k / (k k!) (Abramowitz & Stegun
    5.1.11), above it the asymptotic series sum_k (-1)^k k! / t^(k+1)
    (A&S 5.1.51) up to its smallest term, which is below 1e-16 of the sum."""
    x = Decimal(t)
    with localcontext() as context:
        if t < 40.0:
            # the terms reach about e^t / t against E1 ~ e^-t / t, so about
            # 2t / ln 10 digits cancel
            context.prec = 30 + math.ceil(t)
            tiny = Decimal(10) ** -context.prec
            total = -_GAMMA - x.ln()
            term = Decimal(1)
            k = 0
            while k <= t or abs(term) >= tiny:
                k += 1
                term *= -x / k
                total -= term / k
            return float(total * x.exp())
        context.prec = 30
        total = term = 1 / x
        k = 1
        while abs(term * k / x) < abs(term) and abs(term) >= Decimal("1e-30") * total:
            term *= -k / x
            total += term
            k += 1
        return float(total)


def _check_e1_reference():
    # E1 itself to t = 100; past that E1 underflows by t ~ 745, so the
    # scaled value e^t E1(t) is compared, to t = 1e20
    worst = 0.0
    for t in np.logspace(-8, 2, 60):
        reference = math.exp(-t) * _e1_scaled_reference(t)
        worst = max(worst, abs(exp_integral_e1(float(t)) - reference) / reference)
    for t in np.logspace(2, 20, 40):
        reference = _e1_scaled_reference(t)
        worst = max(worst, abs(_e1_scaled(float(t)) - reference) / reference)
    return worst <= 1e-12, f"max rel err {worst:.2e} (limit 1e-12) over t in [1e-8, 1e20]"


def _quadrature_gap(cases) -> float:
    """Worst |integrate_semiinfinite(f, lower) - value| over (f, lower, library
    value) cases, NaN if any gap is; each f is integrated as its case is drawn."""
    return float(np.max([abs(integrate_semiinfinite(f, lower) - value)
                         for f, lower, value in cases]))


def _check_e1_quadrature():
    worst = _quadrature_gap((lambda lam: np.exp(-lam) / lam, lower, exp_integral_e1(lower))
                            for lower in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_solver_vs_grid(seed: int, count: int):
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_under = 0.0
    for _ in range(count):
        snrs = tuple(rng.uniform(0.0, 100.0, 2))
        budgets = tuple(rng.uniform(0.0, 10.0, 2))
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        density = max(_MIN_GRID, int(20000.0 * sum(budgets)) + 2)
        oracle = maxmin_grid_oracle(*snrs, *budgets, density)
        worst_gap = max(worst_gap, abs(value - oracle))
        worst_under = max(worst_under, oracle - value)
    # Over the input box, on a fixed lattice: too coarse to bound the gap,
    # but the solver must still never fall below it.
    wide_under = 0.0
    for _ in range(10):
        snrs = tuple(10.0 ** rng.uniform(SNR_DB_BOX[0] / 10, SNR_DB_BOX[1] / 10, 2))
        budgets = tuple(rng.uniform(*BUDGET_BOX, 2))
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        wide_under = max(wide_under, maxmin_grid_oracle(*snrs, *budgets, 2000) - value)
    ok = worst_gap <= 1e-3 and worst_under <= 1e-6 and wide_under <= 1e-9
    return ok, (
        f"max gap {worst_gap:.2e} (limit 1e-3), undershoot {worst_under:.2e} (limit 1e-6) "
        f"over {count} instances, to {SNR_DB_BOX[1]:g} dB {wide_under:.2e} (limit 1e-9)"
    )


def _check_one_relay(seed: int, count: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        rho = float(rng.uniform(0.1, 1000.0))
        c = float(rng.uniform(0.1, 15.0))
        result = fixed_rate(SnrPair(rho, 0.0), (c, 0.0))
        worst = max(worst, abs(result.rate - _one_relay_closed_form(rho, c)))
    return worst <= 1e-5, f"max abs err {worst:.2e} (limit 1e-5) over {count} instances"


def _check_quantiles():
    # the j/J quantile b_j of the inverse squared gain holds
    # P(1/g <= b_j) = P(g >= 1/b_j) = j/J
    worst = _quadrature_gap((lambda g: np.exp(-g), 1.0 / xi_quantile(j / J), j / J)
                            for J in (2, 4, 8) for j in range(1, J))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_conditional_noise():
    # E[noise_power / g | g >= t], t = threshold^2, activity probability e^-t
    worst = _quadrature_gap(
        (lambda g: noise_power * np.exp(threshold * threshold - g) / g, threshold * threshold,
         tci_rate(threshold, SystemConfig(noise_power, 10.0, 10.0)).cond_noise)
        for noise_power in (0.01, 0.5) for threshold in (0.5, 1.0, 1.4))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_est_power():
    # E[g / (g + s)], s the noise power, 60 dB to -10 dB
    worst = _quadrature_gap((lambda g: g / (g + s) * np.exp(-g), 0.0,
                             calibrate(SystemConfig(s, 5.0, 5.0)).est_power)
                            for s in (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_water_level(settings: SolverSettings, seed: int, count: int):
    # by-parts closed forms against raw quadrature, at benign water levels
    # and at 60 dB (noise power 1e-6) with levels that spend 5.7 and 3.9 bits
    worst_identity = 0.0
    for noise_power, nu in ((1.0, 0.3), (0.25, 1.0), (2.0, 0.05), (1e-6, 3e4), (1e-6, 1e5)):
        a = nu * noise_power
        budget_quad = integrate_semiinfinite(lambda lam: np.log2(lam / a) * lam * np.exp(-lam), a)
        rate_quad = integrate_semiinfinite(
            lambda lam: (np.log2(1.0 + lam / noise_power) - math.log2(1.0 + nu))
            * lam * np.exp(-lam),
            a,
        )
        worst_identity = max(
            worst_identity,
            abs(budget_quad - budget_integral(nu, noise_power)),
            abs(rate_quad - rate_at_level(nu, noise_power)),
        )

    # the calibrated level re-spends the budget, checked via the decimal E1,
    # and the rate lies in [0, c1 + c2].  upper_bound bisects in ln(nu) to
    # abs_tol, and the budget moves at most 1/ln 2 bits per unit of ln(nu),
    # so at a coarse abs_tol the residual may reach abs_tol / ln 2.
    rng = np.random.default_rng(seed)
    worst_residual = 0.0
    worst_excess = -math.inf
    lowest = math.inf
    for _ in range(count):
        noise_power = 10.0 ** rng.uniform(-6.0, 0.0)
        c1, c2 = rng.uniform(0.05, 15.0, 2)
        result = upper_bound(SystemConfig(noise_power, float(c1), float(c2)), settings)
        a = result.nu * noise_power
        residual = math.exp(-a) * (_e1_scaled_reference(a) + 1.0) / _LN2 - (c1 + c2)
        worst_residual = max(worst_residual, abs(residual))
        worst_excess = max(worst_excess, result.rate - (c1 + c2))
        lowest = min(lowest, result.rate)
    residual_limit = max(1e-6, settings.abs_tol / _LN2)
    ok = worst_identity <= 1e-7 and worst_residual <= residual_limit and worst_excess <= 1e-8
    return ok and lowest >= 0.0, (
        f"identity err {worst_identity:.2e} (limit 1e-7), residual {worst_residual:.2e} "
        f"(limit {residual_limit:.2g}), rate over budget {worst_excess:.2e} (limit 1e-8), "
        f"lowest rate {lowest:.3g} over {count} configs"
    )


def _check_qci_feasibility(settings: SolverSettings):
    # Each allocation is feasible, spends at most each relay's residual
    # after log2(J) header bits (every cell has probability 1/J), gives no
    # cell a negative budget and the dead cell none, and is no worse than
    # the uniform split, a feasible point that spends each whole residual.
    worst_spend = worst_shortfall = -math.inf
    exact = True
    for J, noise_power, c1, c2 in (
        (4, 0.01, 6.0, 5.0), (2, 1e-2, 4.0, 4.0), (4, 1e-3, 6.0, 4.0), (8, 1e-4, 10.0, 7.0)
    ):
        config = SystemConfig(noise_power, c1, c2)
        rho = cell_snrs(J, config)
        allocation = qci_lower_bound(J, config, settings)
        residuals = np.array(config.budgets) - math.log2(J)
        worst_spend = max(worst_spend, float(np.max(allocation.c.sum(axis=1) / J - residuals)))
        exact = bool(
            exact and allocation.feasible
            and np.all(allocation.c >= 0.0) and not np.any(allocation.c[:, -1])
        )
        split = [(r * J / (J - 1),) * (J - 1) + (0.0,) for r in residuals]
        uniform = sum(
            fixed_rate(SnrPair(rho[j1], rho[j2]), (b1, b2)).rate
            for j1, b1 in enumerate(split[0]) for j2, b2 in enumerate(split[1])
        ) / J**2
        worst_shortfall = max(worst_shortfall, uniform - allocation.lower_bound)
    ok = exact and worst_spend <= 1e-9 and worst_shortfall <= 1e-9
    return ok, (
        f"overspend {worst_spend:.2e} (limit 1e-9), shortfall against the uniform split "
        f"{worst_shortfall:.2e} (limit 1e-9), feasibility, signs and dead cell "
        f"{'exact' if exact else 'WRONG'}, over 4 allocations"
    )


def _check_mmse_calibration():
    worst = 0.0
    in_range = True
    for config in (SystemConfig(1.0, 7.0, 3.0), SystemConfig(1e-4, 10.0, 10.0),
                   SystemConfig(0.5, 3.0, 12.0)):
        cal = calibrate(config)
        for distortion, budget in zip(cal.distortion, config.budgets):
            worst = max(worst, abs(math.log1p(cal.est_power / distortion) / _LN2 - budget))
        in_range = in_range and 0.0 <= cal.est_power <= 1.0
    return worst <= 1e-9 and in_range, (
        f"budget mismatch {worst:.2e} (limit 1e-9), estimator power in [0, 1]: "
        f"{'yes' if in_range else 'no'}, over 3 configs"
    )


def verify(settings: SolverSettings | None = None, *, seed: int = 0) -> int:
    """Run every check, print a PASS/FAIL table, and return an exit code.

    seed seeds the random instances of the solver, one-relay and water-level
    checks, each check offsetting it by its own constant; it is validated
    before any check runs.
    """
    if seed < 0:
        raise InvalidArgument("seed must be a nonnegative integer")
    settings = settings or SolverSettings()
    checks = [
        ("e1_vs_reference", _check_e1_reference),
        ("e1_vs_quadrature", _check_e1_quadrature),
        ("solver_vs_grid", lambda: _check_solver_vs_grid(seed + 101, 40)),
        ("one_relay_reduction", lambda: _check_one_relay(seed + 202, 50)),
        ("quantile_cells", _check_quantiles),
        ("tci_conditional_noise", _check_conditional_noise),
        ("mmse_est_power", _check_est_power),
        ("water_level", lambda: _check_water_level(settings, seed + 606, 10)),
        ("qci_feasibility", lambda: _check_qci_feasibility(settings)),
        ("mmse_calibration", _check_mmse_calibration),
    ]
    failures = 0
    for name, run in checks:
        try:
            ok, detail = run()
        except Exception as error:  # noqa: BLE001 - a crash is a failing check
            ok, detail = False, f"raised {type(error).__name__}: {error}"
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<22} {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1
