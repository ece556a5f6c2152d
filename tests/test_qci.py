"""Quantized-inversion scheme: grid construction, cell rates, and the
budget-allocation ascent."""

import csv
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diamond_bottleneck.channel import SnrPair, SystemConfig
from diamond_bottleneck.errors import InvalidArgument, NonConvergent
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import SolverSettings, _maxmin_batch
from diamond_bottleneck.qci import (
    QciAllocation,
    _ascent,
    _Objective,
    _project_budget,
    build_grid,
    qci_lower_bound,
    qci_lower_bounds,
)
from diamond_bottleneck.sweeps import db_to_linear
from diamond_bottleneck.upper_bound import upper_bound
from diamond_bottleneck.verify import _check_qci_feasibility

SETTINGS = SolverSettings()
XI_QUARTER = 0.72134752044448
XI_HALF = 1.44269504088896
XI_THREE_QUARTER = 3.47605949678222
LOG2_4_3 = 0.41503749927884


class TestBuildGrid:
    def test_levels_are_quarter_quantiles(self):
        grid = build_grid(4, SystemConfig(1.0, 5.0, 5.0))
        assert grid.size == 4
        assert grid.levels[0] == pytest.approx(XI_QUARTER, abs=1e-12)
        assert grid.levels[1] == pytest.approx(XI_HALF, abs=1e-12)
        assert grid.levels[2] == pytest.approx(XI_THREE_QUARTER, abs=1e-12)
        assert grid.levels[3] == math.inf

    def test_snr_levels(self):
        grid = build_grid(4, SystemConfig(1.0, 5.0, 5.0))
        # 1/(level * noise) = -ln(j/J) at unit noise
        assert grid.snr_levels[0] == pytest.approx(math.log(4.0), abs=1e-12)
        assert grid.snr_levels[1] == pytest.approx(math.log(2.0), abs=1e-12)
        assert grid.snr_levels[2] == pytest.approx(-math.log(0.75), abs=1e-12)
        assert grid.snr_levels[3] == 0.0

    def test_noise_scaling(self):
        unit = build_grid(4, SystemConfig(1.0, 5.0, 5.0))
        scaled = build_grid(4, SystemConfig(1e-4, 5.0, 5.0))
        assert scaled.levels == unit.levels
        for a, b in zip(scaled.snr_levels[:-1], unit.snr_levels[:-1]):
            assert a == pytest.approx(1e4 * b, rel=1e-12)

    def test_uniform_probs(self):
        for J in (2, 4, 8):
            grid = build_grid(J, SystemConfig(0.01, 5.0, 5.0))
            assert grid.probs == (1.0 / J,) * J

    def test_header_bits_exact(self):
        config = SystemConfig(0.01, 5.0, 5.0)
        assert build_grid(2, config).header_bits == 1.0
        assert build_grid(4, config).header_bits == 2.0
        assert build_grid(8, config).header_bits == 3.0

    def test_budget_feasible_flag(self):
        assert build_grid(8, SystemConfig(0.01, 3.0, 5.0)).budget_feasible
        assert not build_grid(8, SystemConfig(0.01, 2.9, 5.0)).budget_feasible
        assert not build_grid(8, SystemConfig(0.01, 5.0, 2.9)).budget_feasible

    def test_rejects_small_J(self):
        config = SystemConfig(0.01, 5.0, 5.0)
        for J in (1, 0, -3):
            with pytest.raises(InvalidArgument):
                build_grid(J, config)


@pytest.fixture(scope="module")
def unit_snr_grid():
    # noise ln2 makes the median-level SNR exactly 1
    return build_grid(2, SystemConfig(math.log(2.0), 5.0, 5.0))


def evaluate(grid, c1, c2):
    """Mean rate, rate matrix and gradient of the allocation objective at
    live-cell budgets c1, c2: one kernel call on its flat J x J lanes."""
    objective = _Objective(grid)
    lanes = objective.lanes(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float))
    value, _, _, slope1, slope2 = _maxmin_batch(*lanes)
    return objective.reduce(value, slope1, slope2)


def rate_matrix(grid, c1, c2):
    """Rate matrix of the allocation objective at live-cell budgets c1, c2."""
    return evaluate(grid, c1, c2)[1]


class TestCellRate:
    """Cells of the rate matrix that the allocation objective builds."""

    def test_dead_dead_is_zero(self, unit_snr_grid):
        assert rate_matrix(unit_snr_grid, [3.0], [3.0])[1, 1] == 0.0

    def test_single_live_relay_closed_form(self, unit_snr_grid):
        assert unit_snr_grid.snr_levels[0] == pytest.approx(1.0, abs=1e-12)
        rates = rate_matrix(unit_snr_grid, [1.0], [7.0])
        assert rates[0, 1] == pytest.approx(LOG2_4_3, abs=1e-10)
        # mirrored edge uses the second budget
        assert rate_matrix(unit_snr_grid, [7.0], [1.0])[1, 0] == pytest.approx(
            LOG2_4_3, abs=1e-10
        )

    def test_edge_is_closed_form_whatever_the_dead_budget(self):
        grid = build_grid(4, SystemConfig(0.01, 6.0, 6.0))
        c1 = [1.0, 2.0, 3.0]
        rates = rate_matrix(grid, c1, [5.0, 1.0, 9.0])
        for j, c in enumerate(c1):
            rho = grid.snr_levels[j]
            closed = math.log2(1.0 + rho) - math.log2(1.0 + rho * 2.0**-c)
            assert rates[j, 3] == pytest.approx(closed, abs=1e-12)
            # the dead relay's SNR is 0, so its budget cannot move the cell
            for dead_budget in (0.0, 7.0):
                value = _maxmin_batch(rho, 0.0, c, dead_budget)[0]
                assert float(value) == rates[j, 3]

    def test_interior_matches_maxmin_solver(self):
        grid = build_grid(4, SystemConfig(0.01, 6.0, 6.0))
        c1, c2 = [2.0, 0.5, 1.0], [3.0, 4.0, 1.5]
        rates = rate_matrix(grid, c1, c2)
        for j1 in range(3):
            for j2 in range(3):
                rho = SnrPair(grid.snr_levels[j1], grid.snr_levels[j2])
                assert rates[j1, j2] == fixed_rate(rho, (c1[j1], c2[j2])).rate

    def test_zero_budgets_zero_rate(self, unit_snr_grid):
        assert np.all(rate_matrix(unit_snr_grid, [0.0], [0.0]) == 0.0)


def counted_kernel(monkeypatch):
    """Input shapes of every kernel call from qci, in order; counted through
    the module attribute that the benchmark tracer wraps."""
    module = importlib.import_module("diamond_bottleneck.qci")
    shapes = []

    def counted(*args):
        shapes.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
        return _maxmin_batch(*args)

    monkeypatch.setattr(module, "_maxmin_batch", counted)
    return shapes


def solo_evaluations(J, config):
    """Evaluations a lone ascent asks for, driven by hand, and its result."""
    ascent = _ascent(J, config, SETTINGS)
    count, reply = 0, None
    try:
        while True:
            objective, c1, c2 = ascent.send(reply)
            count += 1
            value, _, _, slope1, slope2 = _maxmin_batch(*objective.lanes(c1, c2))
            reply = objective.reduce(value, slope1, slope2)
    except StopIteration as stop:
        return count, stop.value


@pytest.mark.parametrize("J", [2, 4, 8])
def test_one_kernel_call_per_evaluation(monkeypatch, J):
    config = SystemConfig(0.01, 6.0, 6.0)
    evaluations, _ = solo_evaluations(J, config)
    shapes = counted_kernel(monkeypatch)
    qci_lower_bound(J, config, SETTINGS)
    assert len(shapes) == evaluations
    # every call carries the J x J cell lanes, flat
    assert set(shapes) == {(J * J,)}


def cell_value(grid, j1, j2, c1, c2):
    """Rate of cell (j1, j2) at cell budgets c1, c2 by the scalar solver; the
    dead cell has SNR 0."""
    rho = SnrPair(grid.snr_levels[j1], grid.snr_levels[j2])
    return fixed_rate(rho, (c1, c2)).rate


def uniform_split_value(J, config):
    """Mean cell rate when each live cell gets an equal share of the
    post-header budget.  Any feasible split lower-bounds the optimum, so an
    ascent that reaches the optimum does at least this well, whatever its
    start."""
    grid = build_grid(J, config)
    m = J - 1
    share1 = (config.c1 - grid.header_bits) * J / m
    share2 = (config.c2 - grid.header_bits) * J / m
    total = 0.0
    for j1 in range(J):
        for j2 in range(J):
            total += cell_value(grid, j1, j2, share1, share2)
    return total / J**2


class TestOptimizeAllocation:
    """The allocation ascent, run through qci_lower_bound (the class keeps the
    name of the function that once ran it alone)."""

    def test_infeasible_header(self):
        result = qci_lower_bound(8, SystemConfig(0.01, 2.5, 5.0), SETTINGS)
        assert not result.feasible
        assert result.lower_bound == 0.0
        assert result.iterations == 0
        assert np.all(result.c == 0.0)

    def test_budget_equal_header(self):
        result = qci_lower_bound(2, SystemConfig(0.01, 1.0, 1.0), SETTINGS)
        assert result.feasible
        assert result.lower_bound == 0.0

    def test_constraints_respected(self):
        config = SystemConfig(1e-3, 6.0, 4.0)
        grid = build_grid(4, config)
        result = qci_lower_bound(4, config, SETTINGS)
        assert result.feasible
        probs = np.asarray(grid.probs)
        assert float(probs @ result.c[0]) <= config.c1 - grid.header_bits + 1e-9
        assert float(probs @ result.c[1]) <= config.c2 - grid.header_bits + 1e-9
        assert np.all(result.c >= 0.0)
        assert np.all(result.c[:, -1] == 0.0)

    def test_rates_matrix_consistency(self):
        config = SystemConfig(1e-3, 5.0, 5.0)
        grid = build_grid(4, config)
        result = qci_lower_bound(4, config, SETTINGS)
        assert result.lower_bound == pytest.approx(
            float(result.rates.sum()) / grid.size**2, abs=1e-12
        )
        for j1, j2 in [(0, 0), (1, 2), (0, 3), (3, 1), (3, 3)]:
            expected = cell_value(grid, j1, j2, result.c[0, j1], result.c[1, j2])
            assert result.rates[j1, j2] == pytest.approx(expected, abs=1e-9)

    def test_beats_uniform_split(self):
        for J, config in [
            (2, SystemConfig(1e-2, 4.0, 4.0)),
            (4, SystemConfig(1e-4, 8.0, 8.0)),
        ]:
            result = qci_lower_bound(J, config, SETTINGS)
            assert result.lower_bound >= uniform_split_value(J, config) - 1e-9

    def test_symmetric_budgets_symmetric_split(self):
        config = SystemConfig(1e-3, 6.0, 6.0)
        result = qci_lower_bound(4, config, SETTINGS)
        assert np.allclose(result.c[0], result.c[1], atol=1e-6)

    def test_high_snr_tracks_upper_bound(self):
        config = SystemConfig(1e-4, 10.0, 10.0)
        result = qci_lower_bound(8, config, SETTINGS)
        ub = upper_bound(config, SETTINGS).rate
        assert result.lower_bound <= ub + 1e-9
        assert result.lower_bound >= 0.85 * ub
        assert result.lower_bound == pytest.approx(11.885, abs=0.05)

    def test_nonconvergent_at_tiny_iteration_cap(self):
        tight = SolverSettings(max_iter=1)
        with pytest.raises(NonConvergent):
            qci_lower_bound(4, SystemConfig(1e-4, 8.0, 8.0), tight)

    def test_deterministic(self):
        config = SystemConfig(1e-3, 5.0, 5.0)
        a = qci_lower_bound(4, config, SETTINGS)
        b = qci_lower_bound(4, config, SETTINGS)
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.c, b.c)


def cold_start(monkeypatch, J, config):
    """Live-cell budgets (c1, c2) of a cold ascent's first evaluation."""
    module = importlib.import_module("diamond_bottleneck.qci")
    budgets = []

    def recorded(rho1, rho2, c1, c2):
        budgets.append((np.array(c1), np.array(c2)))
        return _maxmin_batch(rho1, rho2, c1, c2)

    monkeypatch.setattr(module, "_maxmin_batch", recorded)
    qci_lower_bound(J, config, SETTINGS)
    # flat lanes: lane j1 J + j2 holds relay 1's cell j1 and relay 2's cell j2
    c1, c2 = (lanes.reshape(J, J) for lanes in budgets[0])
    assert np.all(c1 == c1[:, :1]) and np.all(c2 == c2[:1, :])
    c1, c2 = c1[:, 0], c2[0, :]
    # the dead cell's lane is the last, with budget 0
    assert c1[-1] == 0.0 and c2[-1] == 0.0
    return c1[:-1], c2[:-1]


class TestColdStart:
    """A cold ascent starts from each relay's one-relay water-filling split."""

    @pytest.mark.parametrize(
        "J, config",
        [
            (2, SystemConfig(1e-2, 4.0, 1.0)),
            (4, SystemConfig(1e-4, 8.0, 5.5)),
            (8, SystemConfig(1.0, 3.2, 3.05)),  # low cells stay dry
            (8, SystemConfig(1e-5, 24.0, 3.0)),  # the second budget is all header
            (8, SystemConfig(10.0 ** -5.2, 18.1, 24.3)),
        ],
    )
    def test_water_filling_split(self, monkeypatch, J, config):
        grid = build_grid(J, config)
        m = J - 1
        p = np.asarray(grid.probs[:m])
        log_rho = np.log2(np.asarray(grid.snr_levels[:m]))
        for c, budget in zip(cold_start(monkeypatch, J, config), config.budgets):
            residual = budget - grid.header_bits
            assert np.all(c >= 0.0)
            assert float(p @ c) == pytest.approx(residual, rel=1e-12, abs=1e-12)
            live = c > 0.0
            if not np.any(live):
                assert residual == 0.0
                continue
            # KKT: log2 rho_i - c_i is one water level over the live cells and
            # no higher over the dry ones
            level = log_rho[live] - c[live]
            assert np.ptp(level) <= 1e-12 * max(1.0, float(np.abs(log_rho).max()))
            assert np.all(log_rho[~live] <= level.max() + 1e-12)

    def test_some_cells_dry(self, monkeypatch):
        c1, _ = cold_start(monkeypatch, 8, SystemConfig(1.0, 3.2, 3.05))
        assert np.any(c1 == 0.0) and np.any(c1 > 0.0)


def test_verify_rejects_an_allocation_below_the_uniform_split(monkeypatch):
    assert _check_qci_feasibility(SETTINGS)[0]

    def short(J, config, settings):
        # feasible, but spends only 1/J of each residual
        grid = build_grid(J, config)
        m = grid.size - 1
        c = np.zeros((2, grid.size))
        for k, budget in enumerate(config.budgets):
            c[k, :m] = (budget - grid.header_bits) / m
        value, rates, _, _ = evaluate(grid, c[0, :m], c[1, :m])
        return QciAllocation(c=c, rates=rates, lower_bound=value, iterations=1, feasible=True)

    monkeypatch.setattr(importlib.import_module("diamond_bottleneck.verify"), "qci_lower_bound", short)
    ok, detail = _check_qci_feasibility(SETTINGS)
    assert not ok, detail


# QCI lower bounds of the finite-difference ascent that preceded exact
# slopes, with its iteration counts; values as repr.  Rows: both presets
# (case fig2, fig3), recorded warm-started point to point as the sweeps of
# that time ran them, and the benchmark's 16 cold points of seeds 0 to 10
# (case cold<seed>), each for J = 2, 4 and 8 in that order.  Every row is
# now computed on its own.
QCI_FLOOR = Path(__file__).parent / "data" / "qci_floor.csv"


@pytest.fixture(scope="module")
def floor_rows():
    """(recorded row, allocation now) for every row of QCI_FLOOR."""
    pairs = []
    for row in csv.DictReader(QCI_FLOOR.open()):
        snr_db, c1, c2 = (float(row[key]) for key in ("snr_db", "c1", "c2"))
        config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
        pairs.append((row, qci_lower_bound(int(row["J"]), config, SETTINGS)))
    return pairs


class TestAgainstRecordedFloor:
    def test_never_below_floor(self, floor_rows):
        worst = min(now.lower_bound - float(row["lower_bound"]) for row, now in floor_rows)
        assert worst >= -1e-9

    def test_no_ascent_reaches_the_cap(self, floor_rows):
        assert max(now.iterations for _, now in floor_rows) < SETTINGS.max_iter

    def test_fewer_iterations(self, floor_rows):
        before = sum(int(row["iterations"]) for row, _ in floor_rows)
        assert sum(now.iterations for _, now in floor_rows) < before

    def test_cold_ascents_are_short(self, floor_rows):
        # cold seeds 0 to 10: 5,785 iterations and at most 114 per ascent from
        # the uniform start with one shared step length; 1,860 and 9 now
        cold = [now.iterations for row, now in floor_rows if row["case"].startswith("cold")]
        assert sum(cold) < 2500
        assert max(cold) <= 20


def bits(allocation):
    """Everything a QciAllocation holds, compared bit for bit."""
    return (
        allocation.c.tobytes(),
        np.asarray(allocation.rates).tobytes(),
        allocation.lower_bound.hex(),
        allocation.iterations,
        allocation.feasible,
    )


class TestLockStep:
    """The ascents of one point run together take the steps each takes alone."""

    def test_floor_points_match_solo_ascents(self, monkeypatch):
        # every point of QCI_FLOOR
        shapes = counted_kernel(monkeypatch)
        rows = list(csv.DictReader(QCI_FLOOR.open()))
        points = 0
        for (_, *point), group in itertools.groupby(
            rows, key=lambda row: (row["case"], row["snr_db"], row["c1"], row["c2"])
        ):
            snr_db, c1, c2 = map(float, point)
            config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
            cells = [int(row["J"]) for row in group]
            solo = [solo_evaluations(J, config) for J in cells]
            shapes.clear()
            together = qci_lower_bounds(cells, config, SETTINGS)
            assert len(shapes) == max(count for count, _ in solo)
            assert sum(math.prod(shape) for shape in shapes) == sum(
                count * J * J for (count, _), J in zip(solo, cells)
            )
            assert [bits(a) for a in together] == [bits(a) for _, a in solo]
            points += 1
        assert points * 3 == len(rows)

    def test_a_failed_problem_leaves_the_others(self):
        config = SystemConfig(1e-3, 6.0, 5.0)
        bad, good = qci_lower_bounds([1, 4], config, SETTINGS)
        assert isinstance(bad, InvalidArgument)
        assert bits(good) == bits(qci_lower_bound(4, config, SETTINGS))


@st.composite
def projection_inputs(draw):
    """(x, p, budget): a point, positive cell weights, a bit budget."""
    n = draw(st.integers(1, 8))
    coords = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    if draw(st.booleans()):
        p = np.full(n, 1.0 / draw(st.sampled_from([2, 4, 8, 3, 5])))
    else:
        p = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    budget = draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
    return x, p, budget


def _scale(x, p, budget):
    return max(1.0, budget, float(p @ np.abs(x)))


class TestProjectBudgetProperties:
    @given(projection_inputs())
    def test_feasible(self, case):
        x, p, budget = case
        c = _project_budget(x, p, budget)
        assert np.all(c >= 0.0)
        assert float(p @ c) <= budget + 1e-12 * _scale(x, p, budget)

    @given(projection_inputs())
    def test_shrinks_along_p(self, case):
        # c = max(x - theta p, 0) for one theta >= 0
        x, p, budget = case
        c = _project_budget(x, p, budget)
        live = c > 0.0
        if not np.any(live):
            theta = max(float(np.max(x / p)), 0.0)
        else:
            thetas = (x[live] - c[live]) / p[live]
            theta = float(np.median(thetas))
            assert np.allclose(thetas, theta, rtol=0.0, atol=1e-9 * _scale(x, p, budget))
        assert theta >= -1e-12 * _scale(x, p, budget)
        expected = np.maximum(x - max(theta, 0.0) * p, 0.0)
        assert np.allclose(c, expected, rtol=0.0, atol=1e-9 * _scale(x, p, budget))

    @given(projection_inputs())
    def test_spends_whole_budget_when_it_binds(self, case):
        # theta > 0 exactly when max(x, 0) overspends; then p . c = budget
        x, p, budget = case
        c = _project_budget(x, p, budget)
        if float(p @ np.maximum(x, 0.0)) <= budget:
            assert np.array_equal(c, np.maximum(x, 0.0))
        else:
            assert float(p @ c) == pytest.approx(budget, rel=0.0, abs=1e-12 * _scale(x, p, budget))
