"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
margin, then asserts.  The preset sweeps come from session-scoped fixtures
that run the installed command-line tool in fresh working directories.
"""

import math

import numpy as np
from scipy.special import exp1

from diamond_bottleneck.channel import SnrPair, SystemConfig, sample_gains
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.mmse import calibrate
from diamond_bottleneck.numerics import (
    MaxMinProblem,
    SolverSettings,
    maxmin_grid_oracle,
    solve_maxmin,
)
from diamond_bottleneck.qci import build_grid, qci_lower_bound
from diamond_bottleneck.tci import conditional_stats
from diamond_bottleneck.upper_bound import upper_bound

SETTINGS = SolverSettings()
LOWER_COLUMNS = ("qci_J2", "qci_J4", "qci_J8", "tci", "mmse")


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion}: {status} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ordering_and_runtime(fig2_table, fig3_table, fig2_runs, fig3_run):
    violations = 0
    worst = math.inf
    for table in (fig2_table, fig3_table):
        for row in table:
            assert row["ub"] is not None
            for name in LOWER_COLUMNS:
                assert row[name] is not None
                slack = 3.0 * row["mmse_halfwidth"] if name == "mmse" else 0.0
                margin = row["ub"] + slack - row[name]
                worst = min(worst, margin)
                if margin < 0.0:
                    violations += 1
    # fixture timing covers one fig2 run plus the fig3 run; the second fig2
    # run exists only for the determinism check
    elapsed = fig2_runs[2] / 2.0 + fig3_run[1]
    ok = violations == 0 and elapsed < 600.0
    _report(
        1,
        ok,
        f"{violations} ordering violations (worst margin {worst:.6f} bits), "
        f"presets took {elapsed:.1f}s of the 600s target",
    )


def test_criterion_2_high_snr_saturation(fig2_table):
    row = next(r for r in fig2_table if r["rho_db"] == 60.0)
    ub, tci = row["ub"], row["tci"]
    ub_ok = 19.0 <= ub <= 20.0 and 20.0 - ub <= 1.0
    tci_ok = 18.0 <= tci <= 20.0 and 20.0 - tci <= 1.0
    # Both halves come to [19, 20]: at least 18 and within 1.0 of 20 means at
    # least 19.  The truncated-inversion scheme's best threshold off the grid
    # (about 0.139, found by a 500-point scan of tci_rate over 0.005..0.5)
    # gives 17.8225 bits, so the tci half fails for the scheme, not the grid.
    _report(
        2,
        ub_ok and tci_ok,
        f"at 60 dB, C=10: upper bound {ub:.6f} (needs [19,20], i.e. within 1.0 "
        f"of 20: {'yes' if ub_ok else 'no'}); truncated-inversion bound "
        f"{tci:.6f} (needs >= 18 and within 1.0 of 20, i.e. [19,20]: "
        f"{'yes' if tci_ok else 'no'}; best off-grid threshold ~0.139 gives "
        f"17.8225)",
    )


def test_criterion_3_large_budget_saturation(fig3_table):
    by_c = {row["c_bits"]: row for row in fig3_table}
    tail_step = by_c[25.0]["ub"] - by_c[24.0]["ub"]
    worst_drop = 0.0
    for name in ("ub", "qci_J2", "qci_J4", "qci_J8", "tci"):
        series = [row[name] for row in fig3_table]
        for a, b in zip(series, series[1:]):
            worst_drop = max(worst_drop, a - b)
    ok = tail_step <= 0.05 and worst_drop <= 1e-6
    _report(
        3,
        ok,
        f"upper-bound tail step {tail_step:.3e} (limit 0.05); worst "
        f"monotonicity drop {worst_drop:.3e} (limit 1e-6; mmse exempt, it is not "
        f"monotone in C)",
    )


def test_criterion_4_one_relay_reduction():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        rho = rng.uniform(0.1, 1000.0)
        c = rng.uniform(0.1, 15.0)
        result = fixed_rate(SnrPair(rho, 0.0), (c, 0.0), SETTINGS)
        closed = math.log2((1.0 + rho) / (1.0 + rho * 2.0**-c))
        worst = max(worst, abs(result.rate - closed))
    ok = worst <= 1e-5
    _report(4, ok, f"worst one-relay closed-form gap {worst:.3e} over 50 draws (limit 1e-5)")


def test_criterion_5_solver_vs_grid_oracle():
    rng = np.random.default_rng(1234)
    worst_gap = 0.0
    worst_under = 0.0
    for _ in range(100):
        rho = rng.uniform(0.0, 100.0, 2)
        c = rng.uniform(0.0, 10.0, 2)
        problem = MaxMinProblem(snrs=tuple(rho), budgets=tuple(c))
        value, _ = solve_maxmin(problem, SETTINGS)
        density = max(SETTINGS.grid_points, int(20000.0 * (c[0] + c[1])) + 2)
        oracle = maxmin_grid_oracle(problem, SolverSettings(grid_points=density))
        worst_gap = max(worst_gap, abs(value - oracle))
        worst_under = max(worst_under, oracle - value)
    ok = worst_gap <= 1e-3 and worst_under <= 1e-6
    _report(
        5,
        ok,
        f"worst solver-vs-lattice gap {worst_gap:.3e} (limit 1e-3), worst "
        f"undershoot {worst_under:.3e} (limit 1e-6) over 100 instances",
    )


def test_criterion_6_water_level_consistency():
    rng = np.random.default_rng(606)
    worst_budget = 0.0
    worst_excess = -math.inf
    ln2 = math.log(2.0)
    for _ in range(20):
        s2 = 10.0 ** rng.uniform(-6.0, 0.0)
        c1, c2 = rng.uniform(0.05, 15.0, 2)
        result = upper_bound(SystemConfig(s2, c1, c2), SETTINGS)
        a = result.nu * s2
        respent = (float(exp1(a)) + math.exp(-a)) / ln2  # independent special function
        worst_budget = max(worst_budget, abs(respent - (c1 + c2)))
        worst_excess = max(worst_excess, result.rate - (c1 + c2))
    ok = worst_budget <= 1e-6 and worst_excess <= 1e-8
    _report(
        6,
        ok,
        f"worst re-spent budget error {worst_budget:.3e} (limit 1e-6), worst "
        f"rate-over-budget excess {worst_excess:.3e} (limit 1e-8) over 20 configs",
    )


def test_criterion_7_distributional_oracles():
    n = 1_000_000
    worst_z = 0.0

    # quantile levels of the inverse squared gain
    rng = np.random.default_rng(707)
    xi = 1.0 / rng.exponential(size=n)
    config = SystemConfig(1.0, 10.0, 10.0)
    for J in (2, 4, 8):
        grid = build_grid(J, config)
        for j, level in enumerate(grid.levels[:-1], start=1):
            p_hat = float(np.mean(xi <= level))
            p = j / J
            se = math.sqrt(p * (1.0 - p) / n)
            worst_z = max(worst_z, abs(p_hat - p) / se)

    # conditional inverse-gain noise above a fade threshold
    rng = np.random.default_rng(708)
    g = rng.exponential(size=n)
    s2 = 0.01
    for threshold in (0.5, 1.0, 1.4):
        stats = conditional_stats(threshold, SystemConfig(s2, 10.0, 10.0))
        kept = s2 / g[g >= threshold * threshold]
        se = float(kept.std(ddof=1)) / math.sqrt(kept.size)
        worst_z = max(worst_z, abs(float(kept.mean()) - stats.cond_noise) / se)

    # estimator second moment from a full channel draw
    rng = np.random.default_rng(709)
    s2 = 0.1
    half = math.sqrt(0.5)
    x = rng.normal(scale=half, size=n) + 1j * rng.normal(scale=half, size=n)
    s = rng.normal(scale=half, size=n) + 1j * rng.normal(scale=half, size=n)
    noise = rng.normal(scale=half * math.sqrt(s2), size=n) + 1j * rng.normal(
        scale=half * math.sqrt(s2), size=n
    )
    y = s * x + noise
    gain = np.abs(s) ** 2
    estimate = np.conj(s) * y / (gain + s2)
    power = np.abs(estimate) ** 2
    cal = calibrate(SystemConfig(s2, 5.0, 5.0), SETTINGS)
    se = float(power.std(ddof=1)) / math.sqrt(n)
    worst_z = max(worst_z, abs(float(power.mean()) - cal.est_power[0]) / se)

    ok = worst_z <= 3.0
    _report(
        7,
        ok,
        f"worst Monte Carlo z-score {worst_z:.2f} across quantile, conditional-noise, "
        f"and estimator-power oracles at 1e6 samples (limit 3 standard errors)",
    )


def test_criterion_8_feasibility_and_calibration():
    worst = 0.0
    header_exact = True
    for J, s2, c1, c2 in [(2, 1e-2, 4.0, 4.0), (4, 1e-3, 6.0, 4.0), (8, 1e-4, 10.0, 7.0)]:
        config = SystemConfig(s2, c1, c2)
        grid = build_grid(J, config)
        header_exact = header_exact and grid.header_bits == math.log2(J)
        allocation = qci_lower_bound(J, config, SETTINGS)
        probs = np.asarray(grid.probs)
        for k, budget in enumerate((c1, c2)):
            spend = float(probs @ allocation.c[k])
            worst = max(worst, spend - (budget - grid.header_bits))
        worst = max(worst, float(-allocation.c.min()))
        worst = max(worst, float(np.abs(allocation.c[:, -1]).max()))
    for s2, c1, c2 in [(1e-4, 10.0, 10.0), (0.5, 3.0, 12.0)]:
        cal = calibrate(SystemConfig(s2, c1, c2), SETTINGS)
        for k, budget in enumerate((c1, c2)):
            described = math.log2(1.0 + cal.est_power[k] / cal.distortion[k])
            worst = max(worst, abs(described - budget))
    ok = worst <= 1e-9 and header_exact
    _report(
        8,
        ok,
        f"worst feasibility/calibration residual {worst:.3e} (limit 1e-9), "
        f"header bits exactly log2(J): {'yes' if header_exact else 'no'}",
    )


def test_criterion_9_byte_identical_reruns(fig2_runs):
    first, second, _ = fig2_runs
    ok = first == second
    _report(
        9,
        ok,
        f"two seeded preset runs produced {'identical' if ok else 'DIFFERENT'} "
        f"files of {len(first)} bytes",
    )
