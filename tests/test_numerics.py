"""Numerical kernels: quadrature, exponential integral, bisection, and the
two-relay max-min solver, checked against the lattice oracle of verify."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import diamond_bottleneck.numerics as numerics
import diamond_bottleneck.qci as qci
from diamond_bottleneck.channel import SnrPair
from diamond_bottleneck.errors import (
    BracketError,
    DomainError,
    InvalidArgument,
    NonConvergent,
)
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import (
    SolverSettings,
    _branch_min,
    _e1_scaled,
    _maxmin_batch,
    bisect,
    exp_integral_e1,
    integrate_semiinfinite,
)
from diamond_bottleneck.sweeps import BUDGET_BOX, SNR_DB_BOX
from diamond_bottleneck.verify import (
    _MIN_GRID,
    _lattice_max_bruteforce,
    maxmin_grid_oracle,
)

SETTINGS = SolverSettings()

# Hand-derived reference constants (independent of the implementation).
E1_AT_1 = 0.21938393439552  # integral of exp(-x)/x from 1
E1_AT_HALF = 0.55977359477616
LOG2_4_3 = 0.41503749927884  # log2(4/3), the one-relay value at rho=1, c=1
LOG2_21 = 4.39231742277876  # log2(1 + 10 + 10)


class TestSolverSettings:
    def test_defaults_are_valid(self):
        assert SolverSettings().abs_tol == 1e-9
        # each solver's own iteration cap
        assert numerics._MAX_ITER == 200
        assert qci._MAX_ITER == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
        ],
        # the ids these cases had beside the iteration-cap cases
        ids=["kwargs0", "kwargs1", "kwargs3", "kwargs4"],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            SolverSettings(**kwargs)

    def test_boundary_values_accepted(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 1)
        # one bisection step suffices when the first midpoint is the root
        assert bisect(lambda x: x - 1.0, 0.0, 2.0, SolverSettings(abs_tol=5e-324)) == 1.0


class TestIntegrateSemiinfinite:
    def test_eigen_density_normalizes(self):
        value = integrate_semiinfinite(lambda x: x * np.exp(-x), 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_exponential_normalizes(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x), 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_eigen_density_mean(self):
        value = integrate_semiinfinite(lambda x: x * x * np.exp(-x), 0.0)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_tail_integral_matches_e1(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x) / x, 1.0)
        assert value == pytest.approx(E1_AT_1, abs=1e-10)

    def test_shifted_lower_limit(self):
        value = integrate_semiinfinite(lambda x: np.exp(-x), 2.5)
        assert value == pytest.approx(math.exp(-2.5), abs=1e-10)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(DomainError):
            integrate_semiinfinite(lambda x: np.full_like(x, np.nan), 0.0)

    def test_slow_integrand_stops_at_the_last_finite_rule(self):
        # A jump at x = 1 converges slowly, so order 256, the last rule,
        # still differs from order 128 by far more than the limit: a failure
        # to converge, raised without a warning, not a fault of the integrand.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="128 and 256"):
                integrate_semiinfinite(lambda x: (x < 1.0) * np.exp(-x), 0.0)


class TestExpIntegral:
    def test_reference_values(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, abs=1e-13)
        assert exp_integral_e1(0.5) == pytest.approx(E1_AT_HALF, abs=1e-13)

    def test_large_arguments_match_asymptotic_series(self):
        # these stalled when the fraction stopped below the float spacing
        for t in (1424170236547889.5, 2.0293598813293812e16, 3.7e17, 9.9985e19, 1e3):
            series = sum((-1) ** k * math.factorial(k) / t**k for k in range(8)) / t
            assert _e1_scaled(t) == pytest.approx(series, rel=1e-15)

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

    def test_rejects_an_empty_interval(self):
        # lo = hi is no interval, even where g has its root there
        with pytest.raises(InvalidArgument):
            bisect(lambda x: x - 2.0, 2.0, 2.0, SETTINGS)

    def test_nonconvergent_when_iterations_exhausted(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 5)
        with pytest.raises(NonConvergent):
            bisect(lambda x: x - 2.0, 0.0, 5.0, SolverSettings(abs_tol=1e-300))


class TestMaxMinProblem:
    """The inputs of one max-min problem, as fixed_rate takes them: SnrPair
    checks the SNRs and fixed_rate the budgets."""

    def test_valid_construction(self):
        result = fixed_rate(SnrPair(1.0, 2.0), (3.0, 4.0))
        assert result.rate == float(_maxmin_batch(1.0, 2.0, 3.0, 4.0)[0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snrs": (1.0,), "budgets": (1.0, 1.0)},
            {"snrs": (1.0, 1.0), "budgets": (1.0,)},
            {"snrs": (-1.0, 1.0), "budgets": (1.0, 1.0)},
            {"snrs": (1.0, 1.0), "budgets": (1.0, float("nan"))},
            {"snrs": (1.0, 1.0), "budgets": (1.0, float("inf"))},
            {"snrs": (1.0, 1.0), "budgets": (-1.0, 1.0)},
        ],
    )
    def test_invalid_construction(self, kwargs):
        # A pair cannot be built from one SNR: the call itself is malformed.
        error = InvalidArgument if len(kwargs["snrs"]) == 2 else TypeError
        with pytest.raises(error):
            fixed_rate(SnrPair(*kwargs["snrs"]), kwargs["budgets"])


class TestSolveMaxmin:
    """One max-min solve per instance through the batched kernel."""

    def test_no_signal_gives_zero(self):
        value, r1, r2 = _maxmin_batch(0.0, 0.0, 5.0, 5.0)[:3]
        assert (value, r1, r2) == (0.0, 0.0, 0.0)

    def test_one_relay_closed_form(self):
        value = _maxmin_batch(1.0, 0.0, 1.0, 0.0)[0]
        assert float(value) == pytest.approx(LOG2_4_3, abs=1e-8)

    def test_large_budget_limit(self):
        value = _maxmin_batch(10.0, 10.0, 30.0, 30.0)[0]
        assert float(value) == pytest.approx(LOG2_21, abs=1e-3)

    def test_one_relay_reduction_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rho = float(rng.uniform(0.01, 500.0))
            c = float(rng.uniform(0.01, 12.0))
            value = _maxmin_batch(rho, 0.0, c, 0.0)[0]
            closed = math.log2(1.0 + rho) - math.log2(1.0 + rho * 2.0**-c)
            assert float(value) == pytest.approx(closed, abs=1e-5)

    def test_monotone_in_snr_and_budget(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = rng.uniform(0.0, 50.0, 2)
            c = rng.uniform(0.0, 8.0, 2)
            base = _maxmin_batch(*rho, *c)[0]
            bump = rng.integers(0, 2)
            rho_up = rho.copy()
            rho_up[bump] += rng.uniform(0.1, 5.0)
            up_rho = _maxmin_batch(*rho_up, *c)[0]
            c_up = c.copy()
            c_up[bump] += rng.uniform(0.1, 3.0)
            up_c = _maxmin_batch(*rho, *c_up)[0]
            assert up_rho >= base - 1e-6
            assert up_c >= base - 1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_nonfinite_input_gives_nan(self, position, bad):
        # NaN, not the other relay's one-relay rate, so that callers report
        # a failed cell; the finite lane of the same call is unaffected.
        args = [np.array([x, x]) for x in (1.0, 1.0, 5.0, 5.0)]
        args[position][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs = _maxmin_batch(*args)
        assert np.isnan([a[1] for a in outputs]).all()
        finite = [float(x) for x in _maxmin_batch(1.0, 1.0, 5.0, 5.0)]
        assert [a[0] for a in outputs] == finite


class TestLargeBudgets:
    """Budgets past 1,024 bits, where 2^c overflows float64."""

    def test_symmetric_under_budget_swap(self):
        a = _maxmin_batch(10.0, 10.0, 5.0, 1030.0)[0]
        b = _maxmin_batch(10.0, 10.0, 1030.0, 5.0)[0]
        assert float(a) == pytest.approx(float(b), abs=1e-12)

    def test_monotone_in_budget(self):
        budgets = np.linspace(1000.0, 4000.0, 61)
        for c1, c2 in [(budgets, budgets), (5.0, budgets), (budgets, 0.0)]:
            values = _maxmin_batch(10.0, 10.0, c1, c2)[0]
            assert np.all(np.diff(values) >= -1e-12)

    def test_unlimited_budget_limit(self):
        value, r1, r2 = (float(x) for x in _maxmin_batch(10.0, 10.0, 4000.0, 4000.0)[:3])
        assert value == pytest.approx(LOG2_21, abs=1e-12)
        assert 0.0 <= r1 <= 4000.0 and 0.0 <= r2 <= 4000.0

    def test_unlimited_budget_limit_at_high_snr(self):
        # A search whose inner solve formed 2^(c1 + c2) stopped at r2 = c2
        # here and returned 25.18 bits instead of 49.20.
        value = float(_maxmin_batch(3.79e7, 6.48e14, 4000.0, 4000.0)[0])
        assert value == pytest.approx(math.log2(1.0 + 3.79e7 + 6.48e14), abs=1e-12)

    def test_one_relay_rate_keeps_the_excess(self):
        value, r1, r2 = (float(x) for x in _maxmin_batch(100.0, 0.0, 1030.0, 2000.0)[:3])
        assert value == pytest.approx(math.log2(101.0), abs=1e-12)
        # r = log2(1 + (2^c - 1)/(1 + rho)) = c - log2(101) to float precision
        assert r1 == pytest.approx(1030.0 - math.log2(101.0), abs=1e-9)
        assert r2 == 0.0

    def test_no_runtime_warning(self):
        rho = np.array([100.0, 0.0, 10.0, 1e15, 10.0])
        c = np.array([1030.0, 0.0, 4000.0, 1e6, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _maxmin_batch(rho, rho[::-1], c, c[::-1])
            _maxmin_batch(rho, 0.0, c, 0.0)


# SNR over the input box, log-uniform, plus a silent relay; budgets over the box.
SNRS = st.one_of(
    st.just(0.0), st.floats(SNR_DB_BOX[0] / 10, SNR_DB_BOX[1] / 10).map(lambda e: 10.0**e)
)
BUDGETS = st.floats(*BUDGET_BOX)


class TestMaxMinInvariants:
    # Two instances where an inner solve that cancels falls below the
    # lattice, and relays at -300 dB whose crossings round past the budget.
    @given(SNRS, SNRS, BUDGETS, BUDGETS)
    @example(8.24, 1.51e14, 35.631, 0.111)
    @example(6.87e14, 0.0256, 3.864, 42.814)
    @example(1e6, 1e-30, 20.0, 15.0)
    @example(1e-30, 0.0, 0.23, 0.0)
    def test_never_below_lattice_and_consistent(self, rho1, rho2, c1, c2):
        value, r1, r2, slope1, slope2 = (float(x) for x in _maxmin_batch(rho1, rho2, c1, c2))
        assert 0.0 <= slope1 <= 1.0 and 0.0 <= slope2 <= 1.0
        oracle = maxmin_grid_oracle(rho1, rho2, c1, c2, _MIN_GRID)
        assert value >= oracle - 1e-12
        assert 0.0 <= r1 <= c1
        assert 0.0 <= r2 <= c2
        at_r = max(float(_branch_min(rho1, rho2, c1, c2, r1, r2)), 0.0)
        assert value == pytest.approx(at_r, abs=1e-12)


def _random_lanes(seed, n=5000):
    """SNRs log-uniform and budgets uniform over the input box."""
    rng = np.random.default_rng(seed)
    low, high = SNR_DB_BOX[0] / 10, SNR_DB_BOX[1] / 10
    return (
        10.0 ** rng.uniform(low, high, n), 10.0 ** rng.uniform(low, high, n),
        rng.uniform(*BUDGET_BOX, n), rng.uniform(*BUDGET_BOX, n),
    )


class TestSlopes:
    """The kernel's slopes: d value / d c1 and d value / d c2."""

    # Lanes where rows of the candidate set tie in value to the last bit but
    # only one has valid multipliers; the others' slopes are off by up to
    # 1.4e-4.
    TIED = np.array([
        (1.4154554912075717e-04, 712006.0151664866, 0.0011854508879260983, 47.78684678470397),
        (6.904228948990554e-05, 2089316.2073391147, 0.6241051114292584, 59.678614588052525),
        (175969820.14189455, 1.8973439229497198e-05, 58.97043171094836, 0.11022617610954244),
    ]).T

    def test_central_differences(self):
        rho1, rho2, c1, c2 = (
            np.concatenate([a, b]) for a, b in zip(_random_lanes(13), self.TIED)
        )
        h = 1e-6
        value, _, _, slope1, slope2 = _maxmin_batch(rho1, rho2, c1, c2)
        for k, slope in ((0, slope1), (1, slope2)):
            shifted = []
            for step in (h, -h):
                budgets = [c1, c2]
                budgets[k] = budgets[k] + step
                shifted.append(_maxmin_batch(rho1, rho2, *budgets)[0])
            up, down = (shifted[0] - value) / h, (value - shifted[1]) / h
            # away from active-set changes the one-sided slopes agree
            smooth = (np.abs(up - down) < 1e-5) & (np.minimum(c1, c2) > h)
            assert np.count_nonzero(smooth) >= 0.95 * value.size
            central = (shifted[0] - shifted[1]) / (2.0 * h)
            assert np.max(np.abs(central - slope)[smooth]) <= 1e-6

    def test_forward_difference_at_zero_budget(self):
        rho1, rho2, c1, _ = _random_lanes(14)
        c1[::10] = 0.0  # both budgets zero
        zero = np.zeros_like(c1)
        h = 1e-7
        value, _, _, _, slope2 = _maxmin_batch(rho1, rho2, c1, zero)
        forward = (_maxmin_batch(rho1, rho2, c1, zero + h)[0] - value) / h
        assert np.max(np.abs(forward - slope2)) <= 1e-6
        _, _, _, slope1, _ = _maxmin_batch(rho2, rho1, zero, c1)
        assert np.array_equal(slope1, slope2)

    def test_one_relay_closed_form(self):
        rho = 10.0 ** np.linspace(SNR_DB_BOX[0] / 10, SNR_DB_BOX[1] / 10, 22)
        c = np.linspace(*BUDGET_BOX, 22)
        closed = rho * 2.0**-c / (1.0 + rho * 2.0**-c)
        for dead_budget in (0.0, 7.0):
            _, _, _, slope1, slope2 = _maxmin_batch(rho, 0.0, c, dead_budget)
            assert np.allclose(slope1, closed, rtol=1e-14, atol=0.0)
            assert np.all(slope2 == 0.0)
            _, _, _, slope1, slope2 = _maxmin_batch(0.0, rho, dead_budget, c)
            assert np.allclose(slope2, closed, rtol=1e-14, atol=0.0)
            assert np.all(slope1 == 0.0)

    def test_dead_and_capped_lanes_are_flat(self):
        slopes = [float(x) for x in _maxmin_batch(0.0, 0.0, 5.0, 5.0)[3:]]
        assert slopes == [0.0, 0.0]
        _, _, _, slope1, slope2 = _maxmin_batch(10.0, 10.0, [1030.0, 5.0], [5.0, 1030.0])
        assert slope1[0] == 0.0 and slope2[1] == 0.0
        assert slope2[0] > 0.0 and slope1[1] > 0.0
        slopes = [float(x) for x in _maxmin_batch(100.0, 0.0, 1030.0, 2000.0)[3:]]
        assert slopes == [0.0, 0.0]

    def test_within_unit_interval_without_warnings(self):
        rho1, rho2, c1, c2 = _random_lanes(15, n=20000)
        rho1[::17] = 0.0
        c1[::13] = 0.0
        c2[::11] = 0.0
        c2[::19] = 1030.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, _, slope1, slope2 = _maxmin_batch(rho1, rho2, c1, c2)
        for slope in (slope1, slope2):
            assert np.all((slope >= 0.0) & (slope <= 1.0))


class TestGridOracle:
    def test_zero_snr(self):
        assert maxmin_grid_oracle(0.0, 0.0, 4.0, 4.0, _MIN_GRID) == 0.0

    def test_oracle_below_solver_plus_spacing_slack(self):
        value = _maxmin_batch(3.0, 7.0, 2.0, 5.0)[0]
        oracle = maxmin_grid_oracle(3.0, 7.0, 2.0, 5.0, _MIN_GRID)
        spacing_slack = (2.0 + 5.0) / (_MIN_GRID - 1)
        assert oracle <= value + 1e-9
        assert oracle >= value - spacing_slack

    def test_crossing_search_equals_bruteforce(self):
        rng = np.random.default_rng(10)
        for index in range(30):
            rho = rng.uniform(0.0, 100.0, 2)
            c = rng.uniform(0.0, 10.0, 2)
            if index % 7 == 0:
                rho[index % 2] = 0.0
            if index % 11 == 0:
                c[(index + 1) % 2] = 0.0
            n = int(rng.integers(10, 700))
            fast = maxmin_grid_oracle(*rho, *c, n)
            brute = _lattice_max_bruteforce(*rho, *c, n)
            assert fast == pytest.approx(brute, abs=1e-12)


# The values of the 14 pinned instances of OUTPUT_RECORD (rows 2,000 to
# 2,013), as float.hex, from the K-probe section search with the
# cancellation-free inner solve that preceded the candidate kernel.  The two
# agree to a few ulps.
PREVIOUS_MAXMIN_VALUES = [
    '0x1.79d0ecabe7a5bp-10',  # 0.001, 0.001, 1.0, 1.0
    '0x1.9ec698d7876edp-2',  # 0.001, 5.0, 30.0, 0.5
    '0x1.c20c0f26e095fp+0',  # 0.5, 2.0, 3.0, 7.0
    '0x1.86bf2c918364bp-1',  # 1.0, 1.0, 1.0, 1.0
    '0x1.191bba82d333bp+2',  # 10.0, 10.0, 30.0, 30.0
    '0x1.efaa260e7f825p+1',  # 37.5, 0.2, 4.25, 12.0
    '0x1.5ce9a0dc72c52p+3',  # 1000.0, 1000.0, 10.0, 10.0
    '0x1.1f197fa8931f7p+3',  # 25000.0, 300.0, 0.75, 22.0
    '0x1.494892818615ap+4',  # 1e6, 1e6, 20.0, 5.0
    '0x1.cf271f3a63f85p+4',  # 3e7, 1e9, 15.0, 15.0
    '0x1.ee5b4fa8ece93p+4',  # 1e9, 1e9, 30.0, 30.0
    '0x1.8f4e148b86ea2p+4',  # 1e9, 0.004, 25.0, 2.0
    '0x1.ef14c7605d606p+0',  # 8.0, 3.0, 0.0, 6.0
    '0x1.626e9372ecb75p+2',  # 0.0, 50.0, 9.0, 9.0
]


def _bits(arrays):
    return np.stack([np.asarray(a, dtype=float).reshape(-1).view(np.int64) for a in arrays])


# 2,000 instances solved by the K-probe section search that preceded the
# candidate kernel, all five columns as float.hex.  Drawn with
# numpy.random.default_rng(8): SNRs log-uniform in [1e-6, 1e15], budgets
# uniform in [0, 60] bits, then 5 % of the SNRs and 5 % of the budgets set to
# 0 and 3 % of the budgets redrawn in [1,000, 2,000] bits, above the cap.
K_PROBE_RECORD = Path(__file__).parent / "data" / "maxmin_kprobe.csv"

# All five kernel outputs (value, r1, r2, slope1, slope2) as float.hex,
# recorded with the kernel of commit 57608f6, before its fixed cost per call
# was cut, which changed no floating-point operation on any lane.  Rows: the
# 2,000 inputs of maxmin_kprobe.csv, 14 pinned instances (SNRs 0 and 1e-3 to
# 1e9, budgets 0 to 30 bits), then 20 hand-picked lanes of every masked
# class: a relay dead (SNR 0), a zero budget facing a live relay (the
# right-derivative slope), SNR 0 with positive budgets, no relay live, zero
# budgets, one or both budgets above the 1,000-bit cap, and one NaN or +-inf
# input per position.
OUTPUT_RECORD = Path(__file__).parent / "data" / "maxmin_outputs.csv"


class TestMaxMinKernelBits:
    def test_never_below_the_k_probe_kernel(self):
        rows = K_PROBE_RECORD.read_text().splitlines()[1:]
        rho1, rho2, c1, c2, recorded = np.array(
            [[float.fromhex(x) for x in row.split(",")] for row in rows]
        ).T
        value = _maxmin_batch(rho1, rho2, c1, c2)[0]
        assert np.min(value - recorded) >= -1e-12

    @staticmethod
    def recorded_outputs():
        rows = [row.split(",") for row in OUTPUT_RECORD.read_text().splitlines()[1:]]
        inputs = np.array([[float.fromhex(x) for x in row[:4]] for row in rows]).T
        return inputs, [row[4:] for row in rows]

    def test_five_outputs_bit_for_bit(self):
        inputs, recorded = self.recorded_outputs()
        assert len(recorded) == 2034
        outputs = np.array(_maxmin_batch(*inputs)).T.tolist()
        assert [[x.hex() for x in lane] for lane in outputs] == recorded

    def test_five_outputs_one_lane_at_a_time(self):
        # the pinned and hand-picked lanes, each a call of its own
        inputs, recorded = self.recorded_outputs()
        for lane in range(2000, inputs.shape[1]):
            outputs = _maxmin_batch(*inputs[:, lane])
            assert [float(x).hex() for x in outputs] == recorded[lane]

    def test_values_near_previous_kernel(self):
        inputs, _ = self.recorded_outputs()
        value = _maxmin_batch(*inputs[:, 2000:2014])[0]
        previous = np.array([float.fromhex(h) for h in PREVIOUS_MAXMIN_VALUES])
        assert np.max(np.abs(value - previous)) <= 2e-14

    def test_lane_chunk_invariance(self):
        # QCI evaluates its whole rate matrix in one call and TCI its whole
        # threshold grid; both rely on a lane's bits not depending on the
        # other lanes of the call.
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
