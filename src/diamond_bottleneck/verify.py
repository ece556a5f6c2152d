"""Self-check suite behind the `verify` CLI subcommand.

Each check pits an implementation path against an independent oracle:
special functions against scipy and against raw quadrature, the max-min
solver against an exhaustive lattice, distributional closed forms against
Monte Carlo, and the calibration identities against their defining
equations.  Prints one PASS/FAIL line per check and returns a process exit
code (0 only when everything passes).  SciPy is imported only inside the
checks that use it, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channel import SnrPair, SystemConfig, sample_gains, xi_quantile
from .fixed_rate import fixed_rate
from .mmse import calibrate
from .numerics import (
    _LN2,
    MaxMinProblem,
    SolverSettings,
    exp_integral_e1,
    integrate_semiinfinite,
    maxmin_grid_oracle,
)
from .qci import build_grid, optimize_allocation
from .sweeps import SweepSpec, render_rows
from .upper_bound import budget_integral, rate_at_level, upper_bound


def _one_relay_closed_form(rho: float, c: float) -> float:
    return (math.log1p(rho) - math.log1p(rho * 2.0**-c)) / _LN2


def _check_e1_reference(settings: SolverSettings):
    from scipy.special import exp1

    points = np.logspace(-8, 2, 60)
    worst = 0.0
    for t in points:
        mine = exp_integral_e1(float(t))
        reference = float(exp1(t))
        worst = max(worst, abs(mine - reference) / reference)
    return worst <= 1e-12, f"max rel err {worst:.2e}"


def _check_e1_quadrature(settings: SolverSettings):
    worst = 0.0
    for lower in (0.5, 1.0, 2.0):
        quad = integrate_semiinfinite(lambda lam: np.exp(-lam) / lam, lower, settings)
        worst = max(worst, abs(quad - exp_integral_e1(lower)))
    return worst <= 1e-9, f"max abs err {worst:.2e}"


def _check_solver_vs_grid(settings: SolverSettings):
    rng = np.random.default_rng(settings.seed + 101)
    worst_gap = 0.0
    worst_under = 0.0
    for _ in range(40):
        snrs = tuple(rng.uniform(0.0, 100.0, 2))
        budgets = tuple(rng.uniform(0.0, 10.0, 2))
        problem = MaxMinProblem(snrs=snrs, budgets=budgets)
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        density = max(settings.grid_points, int(20000.0 * sum(budgets)) + 2)
        oracle = maxmin_grid_oracle(problem, replace(settings, grid_points=density))
        worst_gap = max(worst_gap, abs(value - oracle))
        worst_under = max(worst_under, oracle - value)
    # SNR from -60 to 150 dB and budgets to 60 bits, on a fixed lattice: too
    # coarse to bound the gap, but the solver must still never fall below it.
    wide = replace(settings, grid_points=2000)
    wide_under = 0.0
    for _ in range(10):
        snrs = tuple(10.0 ** rng.uniform(-6.0, 15.0, 2))
        budgets = tuple(rng.uniform(0.0, 60.0, 2))
        problem = MaxMinProblem(snrs=snrs, budgets=budgets)
        value = fixed_rate(SnrPair(*snrs), budgets).rate
        wide_under = max(wide_under, maxmin_grid_oracle(problem, wide) - value)
    ok = worst_gap <= 1e-3 and worst_under <= 1e-6 and wide_under <= 1e-9
    return ok, (
        f"max gap {worst_gap:.2e}, max undershoot {worst_under:.2e}, "
        f"to 150 dB {wide_under:.2e}"
    )


def _check_one_relay(settings: SolverSettings):
    rng = np.random.default_rng(settings.seed + 202)
    worst = 0.0
    for _ in range(50):
        rho = float(rng.uniform(0.1, 1000.0))
        c = float(rng.uniform(0.1, 15.0))
        result = fixed_rate(SnrPair(rho, 0.0), (c, 0.0))
        worst = max(worst, abs(result.rate - _one_relay_closed_form(rho, c)))
    return worst <= 1e-5, f"max abs err {worst:.2e}"


def _check_quantiles(settings: SolverSettings):
    rng = np.random.default_rng(settings.seed + 303)
    xi = 1.0 / sample_gains(rng, settings.mc_samples)
    n = xi.size
    worst_sigma = 0.0
    for J in (2, 4, 8):
        for j in range(1, J):
            p = j / J
            fraction = float(np.mean(xi <= xi_quantile(p)))
            sigma = math.sqrt(p * (1.0 - p) / n)
            worst_sigma = max(worst_sigma, abs(fraction - p) / sigma)
    return worst_sigma <= 3.0, f"worst deviation {worst_sigma:.2f} sigma"


def _check_conditional_noise(settings: SolverSettings):
    noise_power = 0.5
    threshold = 1.0
    rng = np.random.default_rng(settings.seed + 404)
    gains = sample_gains(rng, settings.mc_samples)
    kept = gains[gains >= threshold**2]
    samples = noise_power / kept
    closed = noise_power * math.exp(threshold**2) * exp_integral_e1(threshold**2)
    sigma = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    deviation = abs(float(samples.mean()) - closed) / sigma
    return deviation <= 3.0, f"deviation {deviation:.2f} sigma"


def _check_est_power(settings: SolverSettings):
    noise_power = 1.0
    rng = np.random.default_rng(settings.seed + 505)
    gains = sample_gains(rng, settings.mc_samples)
    samples = gains / (gains + noise_power)
    closed = 1.0 - noise_power * math.exp(noise_power) * exp_integral_e1(noise_power)
    sigma = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    deviation = abs(float(samples.mean()) - closed) / sigma
    return deviation <= 3.0, f"deviation {deviation:.2f} sigma"


def _check_water_level(settings: SolverSettings):
    # by-parts closed forms against raw quadrature at benign water levels
    worst_identity = 0.0
    for noise_power, nu in ((1.0, 0.3), (0.25, 1.0), (2.0, 0.05)):
        a = nu * noise_power
        budget_quad = integrate_semiinfinite(
            lambda lam: np.log2(lam / a) * lam * np.exp(-lam), a, settings
        )
        rate_quad = integrate_semiinfinite(
            lambda lam: (np.log2(1.0 + lam / noise_power) - math.log2(1.0 + nu))
            * lam * np.exp(-lam),
            a,
            settings,
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

    rng = np.random.default_rng(settings.seed + 606)
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
    config = SystemConfig(noise_power=0.01, c1=6.0, c2=6.0)
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
    # any feasible point lower-bounds the optimum; try the uniform spread
    uniform = (config.c1 - grid.header_bits) / (J - 1)
    rho = grid.snr_levels
    value = 0.0
    for j1 in range(J):
        for j2 in range(J):
            c1 = uniform if j1 < J - 1 else 0.0
            c2 = uniform if j2 < J - 1 else 0.0
            cell = fixed_rate(SnrPair(rho[j1], rho[j2]), (c1, c2)).rate
            value += probs[j1] * probs[j2] * cell
    improved = allocation.lower_bound >= value - 1e-9
    ok = bool(slack_ok and shape_ok and improved and allocation.feasible)
    return ok, (
        f"optimized {allocation.lower_bound:.6f} vs uniform {value:.6f}, "
        f"{allocation.iterations} iterations"
    )


def _check_mmse_calibration(settings: SolverSettings):
    config = SystemConfig(noise_power=1.0, c1=7.0, c2=3.0)
    cal = calibrate(config)
    worst = max(
        abs(math.log1p(cal.est_power[0] / cal.distortion[0]) / _LN2 - config.c1),
        abs(math.log1p(cal.est_power[1] / cal.distortion[1]) / _LN2 - config.c2),
    )
    in_range = all(0.0 <= p <= 1.0 for p in cal.est_power)
    return worst <= 1e-9 and in_range, f"budget mismatch {worst:.2e}"


def _check_determinism(settings: SolverSettings, corrupt: bool):
    """The rows must not depend on the seed: render them under two seeds."""
    spec = SweepSpec(
        mode="single",
        schemes=("ub", "mmse"),
        settings=settings,
        output_path="unused.csv",
        fixed_c=5.0,
        fixed_snr_db=10.0,
    )
    first = render_rows(spec)
    spec = replace(spec, settings=replace(settings, seed=settings.seed + 1))
    if corrupt:
        spec = replace(spec, fixed_c2=spec.fixed_c + 0.5)
    second = render_rows(spec)
    ok = first == second
    return ok, "identical rows under two seeds" if ok else "rows differ"


def verify(settings: SolverSettings | None = None, _break_determinism: bool = False) -> int:
    """Run every check, print a PASS/FAIL table, and return an exit code.

    _break_determinism is a test hook: it raises the second link budget of
    the second determinism run, an input the rows depend on but do not
    print, which must make that check fail.
    """
    settings = settings or SolverSettings()
    checks = [
        ("e1_vs_scipy", lambda: _check_e1_reference(settings)),
        ("e1_vs_quadrature", lambda: _check_e1_quadrature(settings)),
        ("solver_vs_grid", lambda: _check_solver_vs_grid(settings)),
        ("one_relay_reduction", lambda: _check_one_relay(settings)),
        ("quantile_cells", lambda: _check_quantiles(settings)),
        ("tci_conditional_noise", lambda: _check_conditional_noise(settings)),
        ("mmse_est_power", lambda: _check_est_power(settings)),
        ("water_level", lambda: _check_water_level(settings)),
        ("qci_feasibility", lambda: _check_qci_feasibility(settings)),
        ("mmse_calibration", lambda: _check_mmse_calibration(settings)),
        ("determinism", lambda: _check_determinism(settings, _break_determinism)),
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
