"""Self-check suite behind the `verify` CLI subcommand.

Each check pits an implementation path against an independent oracle:
special functions against scipy and against raw quadrature, the max-min
solver against an exhaustive lattice, distributional closed forms against
Monte Carlo, and the calibration identities against their defining
equations.  Prints one PASS/FAIL line per check and returns a process exit
code (0 only when everything passes).  SciPy is imported only inside the
checks that use it, so importing the package does not load it.

The oracles' own knobs are parameters of verify, not solver settings: the
RNG seed and draw count of the Monte Carlo checks and the base order of the
quadrature checks.  No bound computation reads them.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import SnrPair, SystemConfig, sample_gains, xi_quantile
from .errors import InvalidArgument
from .fixed_rate import fixed_rate
from .mmse import calibrate
from .numerics import (
    _LN2,
    SolverSettings,
    _branch_min,
    _log2_1p,
    exp_integral_e1,
    integrate_semiinfinite,
)
from .qci import build_grid, optimize_allocation
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


def _check_e1_reference():
    from scipy.special import exp1

    points = np.logspace(-8, 2, 60)
    worst = 0.0
    for t in points:
        mine = exp_integral_e1(float(t))
        reference = float(exp1(t))
        worst = max(worst, abs(mine - reference) / reference)
    return worst <= 1e-12, f"max rel err {worst:.2e}"


def _check_e1_quadrature(settings: SolverSettings, quad_order: int):
    worst = 0.0
    for lower in (0.5, 1.0, 2.0):
        quad = integrate_semiinfinite(
            lambda lam: np.exp(-lam) / lam, lower, quad_order, settings.abs_tol
        )
        worst = max(worst, abs(quad - exp_integral_e1(lower)))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_solver_vs_grid(seed: int):
    rng = np.random.default_rng(seed + 101)
    worst_gap = 0.0
    worst_under = 0.0
    for _ in range(40):
        snrs = tuple(rng.uniform(0.0, 100.0, 2))
        budgets = tuple(rng.uniform(0.0, 10.0, 2))
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        density = max(_MIN_GRID, int(20000.0 * sum(budgets)) + 2)
        oracle = maxmin_grid_oracle(*snrs, *budgets, density)
        worst_gap = max(worst_gap, abs(value - oracle))
        worst_under = max(worst_under, oracle - value)
    # SNR from -60 to 150 dB and budgets to 60 bits, on a fixed lattice: too
    # coarse to bound the gap, but the solver must still never fall below it.
    wide_under = 0.0
    for _ in range(10):
        snrs = tuple(10.0 ** rng.uniform(-6.0, 15.0, 2))
        budgets = tuple(rng.uniform(0.0, 60.0, 2))
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        wide_under = max(wide_under, maxmin_grid_oracle(*snrs, *budgets, 2000) - value)
    ok = worst_gap <= 1e-3 and worst_under <= 1e-6 and wide_under <= 1e-9
    return ok, (
        f"max gap {worst_gap:.2e}, max undershoot {worst_under:.2e}, "
        f"to 150 dB {wide_under:.2e}"
    )


def _check_one_relay(seed: int):
    rng = np.random.default_rng(seed + 202)
    worst = 0.0
    for _ in range(50):
        rho = float(rng.uniform(0.1, 1000.0))
        c = float(rng.uniform(0.1, 15.0))
        result = fixed_rate(SnrPair(rho, 0.0), (c, 0.0))
        worst = max(worst, abs(result.rate - _one_relay_closed_form(rho, c)))
    return worst <= 1e-5, f"max abs err {worst:.2e}"


def _check_quantiles(seed: int, samples: int):
    rng = np.random.default_rng(seed + 303)
    xi = 1.0 / sample_gains(rng, samples)
    n = xi.size
    worst_sigma = 0.0
    for J in (2, 4, 8):
        for j in range(1, J):
            p = j / J
            fraction = float(np.mean(xi <= xi_quantile(p)))
            sigma = math.sqrt(p * (1.0 - p) / n)
            worst_sigma = max(worst_sigma, abs(fraction - p) / sigma)
    return worst_sigma <= 3.0, f"worst deviation {worst_sigma:.2f} sigma"


def _check_conditional_noise(seed: int, samples: int):
    noise_power = 0.5
    threshold = 1.0
    rng = np.random.default_rng(seed + 404)
    gains = sample_gains(rng, samples)
    kept = gains[gains >= threshold**2]
    samples = noise_power / kept
    closed = noise_power * math.exp(threshold**2) * exp_integral_e1(threshold**2)
    sigma = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    deviation = abs(float(samples.mean()) - closed) / sigma
    return deviation <= 3.0, f"deviation {deviation:.2f} sigma"


def _check_est_power(seed: int, samples: int):
    noise_power = 1.0
    rng = np.random.default_rng(seed + 505)
    gains = sample_gains(rng, samples)
    samples = gains / (gains + noise_power)
    closed = 1.0 - noise_power * math.exp(noise_power) * exp_integral_e1(noise_power)
    sigma = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    deviation = abs(float(samples.mean()) - closed) / sigma
    return deviation <= 3.0, f"deviation {deviation:.2f} sigma"


def _check_water_level(settings: SolverSettings, seed: int, quad_order: int):
    # by-parts closed forms against raw quadrature at benign water levels
    worst_identity = 0.0
    for noise_power, nu in ((1.0, 0.3), (0.25, 1.0), (2.0, 0.05)):
        a = nu * noise_power
        budget_quad = integrate_semiinfinite(
            lambda lam: np.log2(lam / a) * lam * np.exp(-lam), a, quad_order, settings.abs_tol
        )
        rate_quad = integrate_semiinfinite(
            lambda lam: (np.log2(1.0 + lam / noise_power) - math.log2(1.0 + nu))
            * lam * np.exp(-lam),
            a,
            quad_order,
            settings.abs_tol,
        )
        worst_identity = max(
            worst_identity,
            abs(budget_quad - budget_integral(nu, noise_power)),
            abs(rate_quad - rate_at_level(nu, noise_power)),
        )
    if worst_identity > 1e-7:
        return False, f"by-parts identity err {worst_identity:.2e}"

    # calibrated level reproduces the budget, checked via scipy's E1
    from scipy.special import exp1

    rng = np.random.default_rng(seed + 606)
    worst_residual = 0.0
    cap_ok = True
    for _ in range(10):
        config = SystemConfig(
            noise_power=float(rng.uniform(0.1, 2.0)),
            c1=float(rng.uniform(0.2, 4.0)),
            c2=float(rng.uniform(0.3, 4.0)),
        )
        total = config.c1 + config.c2
        result = upper_bound(config, settings)
        a = result.nu * config.noise_power
        residual = (float(exp1(a)) + math.exp(-a)) / _LN2 - total
        worst_residual = max(worst_residual, abs(residual))
        cap_ok = cap_ok and result.rate <= total + 1e-8 and result.rate >= 0.0
    ok = worst_residual <= 1e-6 and cap_ok
    return ok, f"identity err {worst_identity:.2e}, residual {worst_residual:.2e}"


def _check_qci_feasibility(settings: SolverSettings):
    config = SystemConfig(noise_power=0.01, c1=6.0, c2=5.0)
    grid = build_grid(4, config)
    if grid.header_bits != 2.0:
        return False, "header is not exactly log2(J)"
    allocation = optimize_allocation(grid, config, settings)
    J = grid.size
    probs = np.asarray(grid.probs)
    slack_ok = True
    for k, budget in enumerate(config.budgets):
        spend = float(probs[: J - 1] @ allocation.c[k, : J - 1])
        slack_ok = slack_ok and spend <= budget - grid.header_bits + 1e-9
    shape_ok = (
        np.all(allocation.c >= 0.0)
        and allocation.c[0, J - 1] == 0.0
        and allocation.c[1, J - 1] == 0.0
    )
    # any feasible point lower-bounds the optimum; try the uniform split,
    # which spends each relay's whole residual
    uniform = [(budget - grid.header_bits) * J / (J - 1) for budget in config.budgets]
    rho = grid.snr_levels
    value = 0.0
    for j1 in range(J):
        for j2 in range(J):
            c1 = uniform[0] if j1 < J - 1 else 0.0
            c2 = uniform[1] if j2 < J - 1 else 0.0
            cell = fixed_rate(SnrPair(rho[j1], rho[j2]), (c1, c2)).rate
            value += probs[j1] * probs[j2] * cell
    improved = allocation.lower_bound >= value - 1e-9
    ok = bool(slack_ok and shape_ok and improved and allocation.feasible)
    return ok, (
        f"optimized {allocation.lower_bound:.6f} vs uniform {value:.6f}, "
        f"{allocation.iterations} iterations"
    )


def _check_mmse_calibration():
    config = SystemConfig(noise_power=1.0, c1=7.0, c2=3.0)
    cal = calibrate(config)
    worst = max(
        abs(math.log1p(cal.est_power[0] / cal.distortion[0]) / _LN2 - config.c1),
        abs(math.log1p(cal.est_power[1] / cal.distortion[1]) / _LN2 - config.c2),
    )
    in_range = all(0.0 <= p <= 1.0 for p in cal.est_power)
    return worst <= 1e-9 and in_range, f"budget mismatch {worst:.2e}"


def verify(
    settings: SolverSettings | None = None,
    *,
    seed: int = 0,
    samples: int = 1_000_000,
    quad_order: int = 64,
) -> int:
    """Run every check, print a PASS/FAIL table, and return an exit code.

    seed and samples set the RNG seed and draw count of the Monte Carlo
    oracles, each check offsetting the seed by its own constant; quad_order
    is the base Gauss-Laguerre order of the quadrature checks.  All three
    are validated before any check runs.
    """
    if seed < 0:
        raise InvalidArgument("seed must be a nonnegative integer")
    if samples < 1000:
        raise InvalidArgument("samples must be at least 1000")
    if quad_order < 8:
        raise InvalidArgument("quad_order must be at least 8")
    settings = settings or SolverSettings()
    checks = [
        ("e1_vs_scipy", _check_e1_reference),
        ("e1_vs_quadrature", lambda: _check_e1_quadrature(settings, quad_order)),
        ("solver_vs_grid", lambda: _check_solver_vs_grid(seed)),
        ("one_relay_reduction", lambda: _check_one_relay(seed)),
        ("quantile_cells", lambda: _check_quantiles(seed, samples)),
        ("tci_conditional_noise", lambda: _check_conditional_noise(seed, samples)),
        ("mmse_est_power", lambda: _check_est_power(seed, samples)),
        ("water_level", lambda: _check_water_level(settings, seed, quad_order)),
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
