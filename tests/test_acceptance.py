"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
margin, then asserts.  The preset sweeps come from session-scoped fixtures
that run the installed command-line tool in fresh working directories.
"""

import math

import numpy as np

from diamond_bottleneck.channel import SystemConfig, xi_quantile
from diamond_bottleneck.mmse import calibrate
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.sweeps import db_to_linear
from diamond_bottleneck.tci import tci_best, tci_rate
from diamond_bottleneck.verify import (
    _check_mmse_calibration,
    _check_one_relay,
    _check_qci_feasibility,
    _check_solver_vs_grid,
    _check_water_level,
)

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
    # The scheme reaches the bar only between 60 and 70 dB.
    at_70db = tci_best(SystemConfig(1.0 / db_to_linear(70.0), 10.0, 10.0)).rate
    _report(
        2,
        ub_ok and tci_ok,
        f"at 60 dB, C=10: upper bound {ub:.6f} (needs [19,20], i.e. within 1.0 "
        f"of 20: {'yes' if ub_ok else 'no'}); truncated-inversion bound "
        f"{tci:.6f} (needs >= 18 and within 1.0 of 20, i.e. [19,20]: "
        f"{'yes' if tci_ok else 'no'}; best off-grid threshold ~0.139 gives "
        f"17.8225; tci reaches the bar at 70 dB, where tci_best gives "
        f"{at_70db:.4f})",
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
    ok, detail = _check_one_relay(404, 50)
    _report(4, ok, f"one-relay rate against its closed form: {detail}")


def test_criterion_5_solver_vs_grid_oracle():
    ok, detail = _check_solver_vs_grid(1234, 100)
    _report(5, ok, f"solver against the lattice oracle: {detail}")


def test_criterion_6_water_level_consistency():
    ok, detail = _check_water_level(SETTINGS, 606, 20)
    _report(6, ok, f"water level re-spends the budget: {detail}")


def test_criterion_7_distributional_oracles():
    n = 1_000_000
    worst_z = 0.0

    # quantile levels of the inverse squared gain
    rng = np.random.default_rng(707)
    xi = 1.0 / rng.exponential(size=n)
    for J in (2, 4, 8):
        for j in range(1, J):
            p_hat = float(np.mean(xi <= xi_quantile(j / J)))
            p = j / J
            se = math.sqrt(p * (1.0 - p) / n)
            worst_z = max(worst_z, abs(p_hat - p) / se)

    # conditional inverse-gain noise above a fade threshold
    rng = np.random.default_rng(708)
    g = rng.exponential(size=n)
    s2 = 0.01
    for threshold in (0.5, 1.0, 1.4):
        stats = tci_rate(threshold, SystemConfig(s2, 10.0, 10.0))
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
    cal = calibrate(SystemConfig(s2, 5.0, 5.0))
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
    qci_ok, qci_detail = _check_qci_feasibility(SETTINGS)
    mmse_ok, mmse_detail = _check_mmse_calibration()
    _report(
        8, qci_ok and mmse_ok, f"QCI allocations: {qci_detail}; MMSE calibration: {mmse_detail}"
    )


def test_criterion_9_byte_identical_reruns(fig2_runs):
    first, second, _ = fig2_runs
    ok = first == second
    _report(
        9,
        ok,
        f"two preset runs produced {'identical' if ok else 'DIFFERENT'} "
        f"files of {len(first)} bytes",
    )
