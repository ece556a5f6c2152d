"""Numerical kernels: quadrature, exponential integral, bisection, and the
two-relay max-min solver with its lattice oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import exp1

from diamond_bottleneck.errors import (
    BracketError,
    DomainError,
    InvalidArgument,
    NonConvergent,
)
from diamond_bottleneck.numerics import (
    MaxMinProblem,
    SolverSettings,
    _branch_min,
    _lattice_max_bruteforce,
    _maxmin_batch,
    bisect,
    exp_integral_e1,
    integrate_semiinfinite,
    maxmin_grid_oracle,
)
from diamond_bottleneck.verify import _check_solver_vs_grid

SETTINGS = SolverSettings()

# Hand-derived reference constants (independent of the implementation).
E1_AT_1 = 0.21938393439552  # integral of exp(-x)/x from 1
E1_AT_HALF = 0.55977359477616
LOG2_4_3 = 0.41503749927884  # log2(4/3), the one-relay value at rho=1, c=1
LOG2_21 = 4.39231742277876  # log2(1 + 10 + 10)


class TestSolverSettings:
    def test_defaults_are_valid(self):
        s = SolverSettings()
        assert s.abs_tol == 1e-9
        assert s.max_iter == 200
        assert s.quad_order == 64
        assert s.grid_points == 400
        assert s.mc_samples == 1_000_000
        assert s.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"max_iter": 0},
            {"quad_order": 7},
            {"grid_points": 9},
            {"mc_samples": 999},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            SolverSettings(**kwargs)

    def test_boundary_values_accepted(self):
        SolverSettings(max_iter=1, quad_order=8, grid_points=10, mc_samples=1000)


class TestIntegrateSemiinfinite:
    def test_eigen_density_normalizes(self):
        value = integrate_semiinfinite(lambda x: x * np.exp(-x), 0.0, SETTINGS)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_exponential_normalizes(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x), 0.0, SETTINGS)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_eigen_density_mean(self):
        value = integrate_semiinfinite(lambda x: x * x * np.exp(-x), 0.0, SETTINGS)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_tail_integral_matches_e1(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x) / x, 1.0, SETTINGS)
        assert value == pytest.approx(E1_AT_1, abs=1e-10)

    def test_shifted_lower_limit(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x), 2.5, SETTINGS)
        assert value == pytest.approx(math.exp(-2.5), abs=1e-10)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(DomainError):
            integrate_semiinfinite(lambda x: np.full_like(x, np.nan), 0.0, SETTINGS)


class TestExpIntegral:
    def test_reference_values(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, abs=1e-13)
        assert exp_integral_e1(0.5) == pytest.approx(E1_AT_HALF, abs=1e-13)

    def test_matches_scipy_over_wide_range(self):
        for t in np.logspace(-8, 2, 80):
            mine = exp_integral_e1(float(t))
            reference = float(exp1(t))
            assert mine == pytest.approx(reference, rel=1e-12)

    def test_asymptotic_squeeze_at_50(self):
        value = exp_integral_e1(50.0)
        assert math.exp(-50.0) / 51.0 < value < math.exp(-50.0) / 50.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)


class TestBisect:
    def test_linear_root(self):
        root = bisect(lambda x: x - 2.0, 0.0, 5.0, SETTINGS)
        assert root == pytest.approx(2.0, abs=1e-8)

    def test_exponential_root(self):
        root = bisect(lambda x: math.exp(-x) - 0.5, 0.0, 5.0, SETTINGS)
        assert root == pytest.approx(math.log(2.0), abs=1e-8)

    def test_residual_bound(self):
        g = lambda x: x**3 - 10.0  # noqa: E731
        root = bisect(g, 0.0, 5.0, SETTINGS)
        assert abs(g(root)) <= 10.0 * SETTINGS.abs_tol * 100  # slope ~ 13 at root

    def test_decreasing_function(self):
        root = bisect(lambda x: 1.0 - x, 0.0, 3.0, SETTINGS)
        assert root == pytest.approx(1.0, abs=1e-8)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x + 1.0, 0.0, 5.0, SETTINGS)

    def test_nonconvergent_when_iterations_exhausted(self):
        tight = SolverSettings(abs_tol=1e-300, max_iter=5)
        with pytest.raises(NonConvergent):
            bisect(lambda x: x - 2.0, 0.0, 5.0, tight)


class TestMaxMinProblem:
    def test_valid_construction(self):
        problem = MaxMinProblem(snrs=(1.0, 2.0), budgets=(3.0, 4.0))
        assert problem.snrs == (1.0, 2.0)
        assert problem.budgets == (3.0, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snrs": (1.0,), "budgets": (1.0, 1.0)},
            {"snrs": (1.0, 1.0), "budgets": (1.0,)},
            {"snrs": (-1.0, 1.0), "budgets": (1.0, 1.0)},
            {"snrs": (1.0, 1.0), "budgets": (1.0, float("nan"))},
            {"snrs": (1.0, 1.0), "budgets": (1.0, float("inf"))},
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(InvalidArgument):
            MaxMinProblem(**kwargs)


class TestSolveMaxmin:
    """One max-min solve per instance through the batched kernel."""

    def test_no_signal_gives_zero(self):
        value, r1, r2 = _maxmin_batch(0.0, 0.0, 5.0, 5.0)
        assert (value, r1, r2) == (0.0, 0.0, 0.0)

    def test_one_relay_closed_form(self):
        value, _, _ = _maxmin_batch(1.0, 0.0, 1.0, 0.0)
        assert float(value) == pytest.approx(LOG2_4_3, abs=1e-8)

    def test_large_budget_limit(self):
        value, _, _ = _maxmin_batch(10.0, 10.0, 30.0, 30.0)
        assert float(value) == pytest.approx(LOG2_21, abs=1e-3)

    def test_one_relay_reduction_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = float(rng.uniform(0.01, 500.0))
            c = float(rng.uniform(0.01, 12.0))
            value, _, _ = _maxmin_batch(rho, 0.0, c, 0.0)
            closed = math.log2(1.0 + rho) - math.log2(1.0 + rho * 2.0**-c)
            assert float(value) == pytest.approx(closed, abs=1e-5)

    def test_monotone_in_snr_and_budget(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = rng.uniform(0.0, 50.0, 2)
            c = rng.uniform(0.0, 8.0, 2)
            base, _, _ = _maxmin_batch(*rho, *c)
            bump = rng.integers(0, 2)
            rho_up = rho.copy()
            rho_up[bump] += rng.uniform(0.1, 5.0)
            up_rho, _, _ = _maxmin_batch(*rho_up, *c)
            c_up = c.copy()
            c_up[bump] += rng.uniform(0.1, 3.0)
            up_c, _, _ = _maxmin_batch(*rho, *c_up)
            assert up_rho >= base - 1e-6
            assert up_c >= base - 1e-6

    def test_optimizer_is_feasible_and_consistent(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            rho = rng.uniform(0.0, 80.0, 2)
            c = rng.uniform(0.0, 9.0, 2)
            value, r1, r2 = (float(x) for x in _maxmin_batch(*rho, *c))
            assert -1e-12 <= r1 <= c[0] + 1e-12
            assert -1e-12 <= r2 <= c[1] + 1e-12
            at_opt = float(_branch_min(rho[0], rho[1], c[0], c[1], r1, r2))
            assert max(at_opt, 0.0) == pytest.approx(value, abs=1e-7)

    def test_never_below_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            rho = rng.uniform(0.0, 100.0, 2)
            c = rng.uniform(0.0, 10.0, 2)
            problem = MaxMinProblem(snrs=tuple(rho), budgets=tuple(c))
            value, _, _ = _maxmin_batch(*rho, *c)
            oracle = maxmin_grid_oracle(problem, SolverSettings(grid_points=2000))
            assert value >= oracle - 1e-6

    def test_verify_check_reaches_high_snr(self):
        # Seed 46 draws an instance above 140 dB where an inner solve that
        # cancels falls 1e-3 bits below the 2000-point lattice.
        ok, detail = _check_solver_vs_grid(SolverSettings(seed=46))
        assert ok, detail


# SNR from -60 to 150 dB, log-uniform, plus a silent relay; budgets 0..60 bits.
SNRS = st.one_of(st.just(0.0), st.floats(-6.0, 15.0).map(lambda e: 10.0**e))
BUDGETS = st.floats(0.0, 60.0)


class TestMaxMinInvariants:
    # Two instances where an inner solve that cancels falls below the
    # lattice, and relays at -300 dB whose crossings round past the budget.
    @given(SNRS, SNRS, BUDGETS, BUDGETS)
    @example(8.24, 1.51e14, 35.631, 0.111)
    @example(6.87e14, 0.0256, 3.864, 42.814)
    @example(1e6, 1e-30, 20.0, 15.0)
    @example(1e-30, 0.0, 0.23, 0.0)
    def test_never_below_lattice_and_consistent(self, rho1, rho2, c1, c2):
        value, r1, r2 = (float(x) for x in _maxmin_batch(rho1, rho2, c1, c2))
        oracle = maxmin_grid_oracle(MaxMinProblem((rho1, rho2), (c1, c2)), SETTINGS)
        assert value >= oracle - 1e-12
        assert 0.0 <= r1 <= c1
        assert 0.0 <= r2 <= c2
        at_r = max(float(_branch_min(rho1, rho2, c1, c2, r1, r2)), 0.0)
        assert value == pytest.approx(at_r, abs=1e-12)


class TestGridOracle:
    def test_zero_snr(self):
        problem = MaxMinProblem(snrs=(0.0, 0.0), budgets=(4.0, 4.0))
        assert maxmin_grid_oracle(problem, SETTINGS) == 0.0

    def test_oracle_below_solver_plus_spacing_slack(self):
        problem = MaxMinProblem(snrs=(3.0, 7.0), budgets=(2.0, 5.0))
        value, _, _ = _maxmin_batch(3.0, 7.0, 2.0, 5.0)
        oracle = maxmin_grid_oracle(problem, SETTINGS)
        spacing_slack = sum(problem.budgets) / (SETTINGS.grid_points - 1)
        assert oracle <= value + 1e-9
        assert oracle >= value - spacing_slack

    def test_unit_instance_close_to_solver(self):
        problem = MaxMinProblem(snrs=(1.0, 1.0), budgets=(1.0, 1.0))
        value, _, _ = _maxmin_batch(1.0, 1.0, 1.0, 1.0)
        oracle = maxmin_grid_oracle(problem, SETTINGS)
        assert oracle == pytest.approx(float(value), abs=1e-3)

    def test_crossing_search_equals_bruteforce(self):
        rng = np.random.default_rng(10)
        for index in range(30):
            rho = rng.uniform(0.0, 100.0, 2)
            c = rng.uniform(0.0, 10.0, 2)
            if index % 7 == 0:
                rho[index % 2] = 0.0
            if index % 11 == 0:
                c[(index + 1) % 2] = 0.0
            problem = MaxMinProblem(snrs=tuple(rho), budgets=tuple(c))
            settings = SolverSettings(grid_points=int(rng.integers(10, 700)))
            fast = maxmin_grid_oracle(problem, settings)
            brute = _lattice_max_bruteforce(problem, settings)
            assert fast == pytest.approx(brute, abs=1e-12)


# (rho1, rho2, c1, c2, value, r1, r2) with the results as float.hex, recorded
# from the K-probe section search with the cancellation-free inner solve.
# The kernel is a fixed floating-point schedule, so any change of its
# operations or of their order shows here as a changed bit.
PINNED_MAXMIN = [
    (0.001, 0.001, 1.0, 1.0, '0x1.79d0ecabe7a5bp-10', '0x1.ffa18b1c02c2ap-1', '0x1.ffa18c6da7498p-1'),
    (0.001, 5.0, 30.0, 0.5, '0x1.9ec698d7876edp-2', '0x1.dff9ebdcb897cp+4', '0x1.8acda1a07d3cbp-4'),
    (0.5, 2.0, 3.0, 7.0, '0x1.c20c0f26e095fp+0', '0x1.66fd12b8d5403p+1', '0x1.5bfe72d9dd3a6p+2'),
    (1.0, 1.0, 1.0, 1.0, '0x1.86bf2c918364bp-1', '0x1.3ca068cf6039ep-1', '0x1.3ca06a9f1c617p-1'),
    (10.0, 10.0, 30.0, 30.0, '0x1.191bba82d333bp+2', '0x1.bcd8fa4bde492p+4', '0x1.bce017136ce9fp+4'),
    (37.5, 0.2, 4.25, 12.0, '0x1.efaa260e7f825p+1', '0x1.47fa9e342e202p-1', '0x1.7795cc991d3d6p+3'),
    (1000.0, 1000.0, 10.0, 10.0, '0x1.5ce9a0dc72c52p+3', '0x1.23165dea2aba6p+2', '0x1.2316605cefbb7p+2'),
    (25000.0, 300.0, 0.75, 22.0, '0x1.1f197fa8931f7p+3', '0x1.7ddfab5c2a056p-7', '0x1.b887086c95d61p+3'),
    (1e6, 1e6, 20.0, 5.0, '0x1.494892818615ap+4', '0x1.1addb43108b84p+1', '0x1.1addb7c2c69b1p+1'),
    (3e7, 1e9, 15.0, 15.0, '0x1.cf271f3a63f85p+4', '0x1.9cd9b9c49d14ep-10', '0x1.0d26d5eb4f536p+0'),
    (1e9, 1e9, 30.0, 30.0, '0x1.ee5b4fa8ece93p+4', '0x1.d1a4afc6144dbp+3', '0x1.d1a4b0e811dfep+3'),
    (1e9, 0.004, 25.0, 2.0, '0x1.8f4e148b86ea2p+4', '0x1.8734ef1c936aep-5', '0x1.fee50fceacc2cp+0'),
    (8.0, 3.0, 0.0, 6.0, '0x1.ef14c7605d606p+0', '0x0.0p+0', '0x1.043ace27e8a7ep+2'),
    (0.0, 50.0, 9.0, 9.0, '0x1.626e9372ecb75p+2', '0x0.0p+0', '0x1.bb22d91a26915p+1'),
]

# The values of the same instances, as float.hex, from the golden-section
# kernel with the inner solve r2 = -log2(min(v_both, v_cut1)) that preceded
# it.  Where that solve did not cancel, the two agree to a few ulps.
PREVIOUS_MAXMIN_VALUES = [
    '0x1.79d0ecabe7a5bp-10',  # 0.001, 0.001, 1.0, 1.0
    '0x1.9ec698d7876e6p-2',  # 0.001, 5.0, 30.0, 0.5
    '0x1.c20c0f26e095fp+0',  # 0.5, 2.0, 3.0, 7.0
    '0x1.86bf2c918364bp-1',  # 1.0, 1.0, 1.0, 1.0
    '0x1.191bba82d3338p+2',  # 10.0, 10.0, 30.0, 30.0
    '0x1.efaa260e7f823p+1',  # 37.5, 0.2, 4.25, 12.0
    '0x1.5ce9a0dc72c51p+3',  # 1000.0, 1000.0, 10.0, 10.0
    '0x1.1f197fa8931f7p+3',  # 25000.0, 300.0, 0.75, 22.0
    '0x1.494892818615ap+4',  # 1e6, 1e6, 20.0, 5.0
    '0x1.cf271f3a63f84p+4',  # 3e7, 1e9, 15.0, 15.0
    '0x1.ee5b4fa8ece92p+4',  # 1e9, 1e9, 30.0, 30.0
    '0x1.8f4e148b86ea1p+4',  # 1e9, 0.004, 25.0, 2.0
    '0x1.ef14c7605d606p+0',  # 8.0, 3.0, 0.0, 6.0
    '0x1.626e9372ecb75p+2',  # 0.0, 50.0, 9.0, 9.0
]


def _bits(arrays):
    return np.stack([np.asarray(a, dtype=float).reshape(-1).view(np.int64) for a in arrays])


class TestMaxMinKernelBits:
    def test_pinned_instances_batched(self):
        inputs = np.array([case[:4] for case in PINNED_MAXMIN]).T
        value, r1, r2 = _maxmin_batch(*inputs)
        got = [(v.hex(), a.hex(), b.hex()) for v, a, b in zip(
            value.tolist(), r1.tolist(), r2.tolist()
        )]
        assert got == [case[4:] for case in PINNED_MAXMIN]

    def test_pinned_instances_one_at_a_time(self):
        for case in PINNED_MAXMIN:
            value, r1, r2 = _maxmin_batch(*case[:4])
            assert (float(value).hex(), float(r1).hex(), float(r2).hex()) == case[4:]

    def test_values_near_previous_kernel(self):
        inputs = np.array([case[:4] for case in PINNED_MAXMIN]).T
        value, _, _ = _maxmin_batch(*inputs)
        previous = np.array([float.fromhex(h) for h in PREVIOUS_MAXMIN_VALUES])
        assert np.max(np.abs(value - previous)) <= 2e-14

    def test_lane_chunk_invariance(self):
        # QCI merges its value and gradient lanes into one call and TCI its
        # whole threshold grid; both rely on a lane's bits not depending on
        # the other lanes of the call.
        rng = np.random.default_rng(12)
        n = 60
        rho1 = 10.0 ** rng.uniform(-3.0, 9.0, n)
        rho2 = 10.0 ** rng.uniform(-3.0, 9.0, n)
        c1 = rng.uniform(0.0, 30.0, n)
        c2 = rng.uniform(0.0, 30.0, n)
        rho1[::11] = 0.0
        c2[::13] = 0.0
        c2[5::9] = c1[5::9]
        whole = _bits(_maxmin_batch(rho1, rho2, c1, c2))
        for size in (1, 7):
            parts = [
                _bits(_maxmin_batch(rho1[k:k + size], rho2[k:k + size], c1[k:k + size], c2[k:k + size]))
                for k in range(0, n, size)
            ]
            assert np.array_equal(np.concatenate(parts, axis=1), whole)
        grid = _bits(_maxmin_batch(*(a.reshape(6, 10) for a in (rho1, rho2, c1, c2))))
        assert np.array_equal(grid, whole)
