"""Quantized-inversion scheme: cell SNRs, cell rates, the
budget-allocation ascent and the lock-step driver."""

import csv
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diamond_bottleneck.channel import SnrPair, SystemConfig, xi_quantile
from diamond_bottleneck.errors import DomainError, InvalidArgument, NonConvergent
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import SolverSettings, _maxmin_batch
from diamond_bottleneck.qci import (
    QciAllocation,
    _ascent,
    _lanes,
    _lock_step,
    _project_budget,
    _reduce,
    _solo,
    _sum,
    cell_snrs,
    qci_lower_bound,
)
from diamond_bottleneck.sweeps import db_to_linear
from diamond_bottleneck.tci import _grid
from diamond_bottleneck.verify import _check_qci_feasibility

SETTINGS = SolverSettings()
XI_QUARTER = 0.72134752044448
XI_HALF = 1.44269504088896
XI_THREE_QUARTER = 3.47605949678222
LOG2_4_3 = 0.41503749927884


class TestBuildGrid:
    """The J cells: quantile levels, cell SNRs and the log2 J header."""

    def test_levels_are_quarter_quantiles(self):
        levels = [xi_quantile(j / 4) for j in (1, 2, 3)]
        assert levels == pytest.approx([XI_QUARTER, XI_HALF, XI_THREE_QUARTER], abs=1e-12)
        # at unit noise each live cell's SNR is its level's inverse, exactly
        rho = cell_snrs(4, SystemConfig(1.0, 5.0, 5.0))
        assert rho.tolist() == [1.0 / level for level in levels] + [0.0]

    def test_noise_scaling(self):
        unit = cell_snrs(4, SystemConfig(1.0, 5.0, 5.0))
        scaled = cell_snrs(4, SystemConfig(1e-4, 5.0, 5.0))
        assert scaled[:-1] == pytest.approx(1e4 * unit[:-1], rel=1e-12)
        assert scaled[-1] == 0.0

    def test_uniform_probs(self):
        # P(1/g <= b_j) = exp(-1/b_j) = j/J, and 1/b_j = rho_j sigma^2: every
        # cell has probability 1/J, the dead cell (rho 0) holding the rest
        for J in (2, 4, 8):
            config = SystemConfig(0.01, 5.0, 5.0)
            cdf = np.exp(-cell_snrs(J, config) * config.noise_power)
            assert cdf == pytest.approx([j / J for j in range(1, J + 1)], abs=1e-15)

    def test_header_bits_exact(self):
        # the header is log2(J) bits exactly: a link budget of log2(J) is
        # feasible with nothing left to split, one ulp less is not
        for J in (2, 4, 8):
            header = math.log2(J)
            assert header == J.bit_length() - 1
            fits = qci_lower_bound(J, SystemConfig(0.01, header, 5.0), SETTINGS)
            assert fits.feasible and np.all(fits.c[0] == 0.0)
            short = SystemConfig(0.01, 5.0, math.nextafter(header, 0.0))
            assert not qci_lower_bound(J, short, SETTINGS).feasible

    def test_rejects_small_J(self):
        config = SystemConfig(0.01, 5.0, 5.0)
        for J in (1, 0, -3):
            with pytest.raises(InvalidArgument):
                cell_snrs(J, config)


@pytest.fixture(scope="module")
def unit_snrs():
    # noise ln2 makes the median-level SNR exactly 1
    return cell_snrs(2, SystemConfig(math.log(2.0), 5.0, 5.0))


def evaluate(rho, c1, c2):
    """The kernel's value and slopes on the flat J x J lanes of the cells
    with SNRs rho at live-cell budgets c1, c2: one kernel call."""
    m = rho.size - 1
    block = np.zeros((4, rho.size**2))
    _lanes(rho[:m], rho[:m], block[:2])
    _lanes(np.asarray(c1, float), np.asarray(c2, float), block[2:])
    value, _, _, slope1, slope2 = _maxmin_batch(*block)
    return value, slope1, slope2


def rate_matrix(rho, c1, c2):
    """Rate matrix of the allocation objective at live-cell budgets c1, c2."""
    return evaluate(rho, c1, c2)[0].reshape(rho.size, rho.size)


class TestCellRate:
    """Cells of the rate matrix that the allocation objective builds."""

    def test_dead_dead_is_zero(self, unit_snrs):
        assert rate_matrix(unit_snrs, [3.0], [3.0])[1, 1] == 0.0

    def test_single_live_relay_closed_form(self, unit_snrs):
        assert unit_snrs[0] == pytest.approx(1.0, abs=1e-12)
        rates = rate_matrix(unit_snrs, [1.0], [7.0])
        assert rates[0, 1] == pytest.approx(LOG2_4_3, abs=1e-10)
        # mirrored edge uses the second budget
        assert rate_matrix(unit_snrs, [7.0], [1.0])[1, 0] == pytest.approx(
            LOG2_4_3, abs=1e-10
        )

    def test_edge_is_closed_form_whatever_the_dead_budget(self):
        rho_cells = cell_snrs(4, SystemConfig(0.01, 6.0, 6.0))
        c1 = [1.0, 2.0, 3.0]
        rates = rate_matrix(rho_cells, c1, [5.0, 1.0, 9.0])
        for j, c in enumerate(c1):
            rho = rho_cells[j]
            closed = math.log2(1.0 + rho) - math.log2(1.0 + rho * 2.0**-c)
            assert rates[j, 3] == pytest.approx(closed, abs=1e-12)
            # the dead relay's SNR is 0, so its budget cannot move the cell
            for dead_budget in (0.0, 7.0):
                value = _maxmin_batch(rho, 0.0, c, dead_budget)[0]
                assert float(value) == rates[j, 3]

    def test_interior_matches_maxmin_solver(self):
        rho = cell_snrs(4, SystemConfig(0.01, 6.0, 6.0))
        c1, c2 = [2.0, 0.5, 1.0], [3.0, 4.0, 1.5]
        rates = rate_matrix(rho, c1, c2)
        for j1 in range(3):
            for j2 in range(3):
                assert rates[j1, j2] == fixed_rate(SnrPair(rho[j1], rho[j2]), (c1[j1], c2[j2])).rate

    def test_zero_budgets_zero_rate(self, unit_snrs):
        assert np.all(rate_matrix(unit_snrs, [0.0], [0.0]) == 0.0)

    def test_lane_layout(self):
        # lane j1 J + j2 is cell (j1, j2); the dead cell, last, holds 0
        # written in place: the dead cell's lanes keep out's 0
        out = np.zeros((2, 9))
        _lanes(np.array([1.0, 2.0]), np.array([3.0, 4.0]), out)
        lanes1, lanes2 = out
        assert lanes1.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0]
        assert lanes2.tolist() == [3.0, 4.0, 0.0, 3.0, 4.0, 0.0, 3.0, 4.0, 0.0]


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
            lanes = ascent.send(reply)
            count += 1
            value, _, _, slope1, slope2 = _maxmin_batch(*lanes)
            reply = value, slope1, slope2
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


def cell_value(rho, j1, j2, c1, c2):
    """Rate of cell (j1, j2) at cell budgets c1, c2 by the scalar solver; the
    dead cell has SNR 0."""
    return fixed_rate(SnrPair(rho[j1], rho[j2]), (c1, c2)).rate


def uniform_split_value(J, config):
    """Mean cell rate when each live cell gets an equal share of the
    post-header budget.  Any feasible split lower-bounds the optimum, so an
    ascent that reaches the optimum does at least this well, whatever its
    start."""
    rho = cell_snrs(J, config)
    m = J - 1
    share1 = (config.c1 - math.log2(J)) * J / m
    share2 = (config.c2 - math.log2(J)) * J / m
    total = 0.0
    for j1 in range(J):
        for j2 in range(J):
            total += cell_value(rho, j1, j2, share1, share2)
    return total / J**2


class TestOptimizeAllocation:
    """The allocation ascent, run through qci_lower_bound (the class keeps the
    name of the function that once ran it alone)."""

    def test_infeasible_header(self):
        result = qci_lower_bound(8, SystemConfig(0.01, 2.5, 5.0), SETTINGS)
        assert not result.feasible
        assert result.lower_bound == 0.0
        assert result.iterations == 0
        assert result.c.shape == (2, 8) and np.all(result.c == 0.0)

    def test_budget_equal_header(self):
        result = qci_lower_bound(2, SystemConfig(0.01, 1.0, 1.0), SETTINGS)
        assert result.feasible
        assert result.lower_bound == 0.0

    def test_constraints_respected(self):
        config = SystemConfig(1e-3, 6.0, 4.0)
        result = qci_lower_bound(4, config, SETTINGS)
        assert result.feasible
        # every cell has probability 1/4, and the header takes 2 bits
        assert float(result.c[0].sum()) / 4 <= config.c1 - 2.0 + 1e-9
        assert float(result.c[1].sum()) / 4 <= config.c2 - 2.0 + 1e-9
        assert np.all(result.c >= 0.0)
        assert np.all(result.c[:, -1] == 0.0)

    def test_rates_matrix_consistency(self):
        # lower_bound is the mean of the kernel's value on all J^2 cells at
        # the split it returns, and the cells are the scalar solver's rates
        config = SystemConfig(1e-3, 5.0, 5.0)
        rho = cell_snrs(4, config)
        result = qci_lower_bound(4, config, SETTINGS)
        rates = rate_matrix(rho, result.c[0, :3], result.c[1, :3])
        assert result.lower_bound == pytest.approx(float(rates.sum()) / 16, abs=1e-12)
        for j1, j2 in [(0, 0), (1, 2), (0, 3), (3, 1), (3, 3)]:
            expected = cell_value(rho, j1, j2, result.c[0, j1], result.c[1, j2])
            assert rates[j1, j2] == pytest.approx(expected, abs=1e-9)

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

    def test_step_doubles_where_the_gradient_does_not_turn(self):
        # a linear objective, -0.1 c per lane on relay 1's budget: its
        # gradient never turns, so each accepted step is twice the one before
        # until relay 1's live cell has spent its budget down to 0
        ascent = _ascent(2, SystemConfig(1.0, 5.0, 5.0), SETTINGS)
        trials, reply = [], None
        with pytest.raises(StopIteration):
            while True:
                _, _, c1, _ = ascent.send(reply)
                trials.append(float(c1[0]))
                reply = -0.1 * c1, np.full(c1.shape, -0.1), np.zeros(c1.shape)
        assert trials == pytest.approx([8.0, 7.8, 7.4, 6.6, 5.0, 1.8, 0.0], rel=0.0, abs=1e-12)

    def test_refused_step_is_retried_at_a_quarter(self):
        # the same on relay 2, but the first candidate reports no gain: it is
        # refused, a quarter of its step is taken, and as the gradient did
        # not turn, the next step is twice that quarter
        ascent = _ascent(2, SystemConfig(1.0, 5.0, 5.0), SETTINGS)
        lanes, reply = [], None
        with pytest.raises(StopIteration):
            while True:
                # the ascent rewrites its block at its next evaluation
                _, _, _, c2 = ascent.send(reply).copy()
                lanes.append(c2)
                value = -0.1 * (lanes[0] if len(lanes) == 2 else c2)
                reply = value, np.zeros(c2.shape), np.full(c2.shape, -0.1)
        trials = [float(c2[0]) for c2 in lanes]
        assert trials == pytest.approx(
            [8.0, 7.8, 7.95, 7.85, 7.65, 7.25, 6.45, 4.85, 1.65, 0.0], rel=0.0, abs=1e-12)

    def test_nonconvergent_at_tiny_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("diamond_bottleneck.qci"), "_MAX_ITER", 1)
        with pytest.raises(NonConvergent):
            qci_lower_bound(4, SystemConfig(1e-4, 8.0, 8.0), SETTINGS)


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
        log_rho = np.log2(cell_snrs(J, config)[:-1])
        for c, budget in zip(cold_start(monkeypatch, J, config), config.budgets):
            residual = budget - math.log2(J)
            assert np.all(c >= 0.0)
            assert float(c.sum()) / J == pytest.approx(residual, rel=1e-12, abs=1e-12)
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
        # feasible, but spends only 9/10 of each residual, split evenly
        m = J - 1
        c = np.zeros((2, J))
        for k, budget in enumerate(config.budgets):
            c[k, :m] = 0.9 * (budget - math.log2(J)) * J / m
        value, _, _ = _reduce(J, *evaluate(cell_snrs(J, config), c[0, :m], c[1, :m]))
        return QciAllocation(c=c, lower_bound=value, iterations=1, feasible=True)

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
    with QCI_FLOOR.open() as handle:
        for row in csv.DictReader(handle):
            snr_db, c1, c2 = (float(row[key]) for key in ("snr_db", "c1", "c2"))
            config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
            pairs.append((row, qci_lower_bound(int(row["J"]), config, SETTINGS)))
    return pairs


class TestAgainstRecordedFloor:
    def test_never_below_floor(self, floor_rows):
        worst = min(now.lower_bound - float(row["lower_bound"]) for row, now in floor_rows)
        assert worst >= -1e-9

    def test_no_ascent_reaches_the_cap(self, floor_rows):
        cap = importlib.import_module("diamond_bottleneck.qci")._MAX_ITER
        assert max(now.iterations for _, now in floor_rows) < cap

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
        allocation.lower_bound.hex(),
        allocation.iterations,
        allocation.feasible,
    )


class TestLockStep:
    """The ascents of one point run together take the steps each takes alone."""

    def test_floor_points_match_solo_ascents(self, monkeypatch):
        # every point of QCI_FLOOR
        shapes = counted_kernel(monkeypatch)
        with QCI_FLOOR.open() as handle:
            rows = list(csv.DictReader(handle))
        points = 0
        for (_, *point), group in itertools.groupby(
            rows, key=lambda row: (row["case"], row["snr_db"], row["c1"], row["c2"])
        ):
            snr_db, c1, c2 = map(float, point)
            config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
            cells = [int(row["J"]) for row in group]
            solo = [solo_evaluations(J, config) for J in cells]
            shapes.clear()
            together = _lock_step([_ascent(J, config, SETTINGS) for J in cells])
            assert len(shapes) == max(count for count, _ in solo)
            assert sum(math.prod(shape) for shape in shapes) == sum(
                count * J * J for (count, _), J in zip(solo, cells)
            )
            assert [bits(a) for a in together] == [bits(a) for _, a in solo]
            points += 1
        assert points * 3 == len(rows)

    def test_driver_sends_each_ascent_its_own_outputs(self, monkeypatch):
        # hand-made ascents: one asks for 1 lane and returns after one round,
        # the other asks for 5 lanes and raises in its second round
        rng = np.random.default_rng(24)

        def request(n):
            # the kernel's inputs on n lanes, one block: two SNRs, then two budgets
            return np.concatenate([rng.uniform(0.0, 1e3, (2, n)), rng.uniform(0.0, 12.0, (2, n))])

        asked = [[request(1)], [request(5), request(5)]]
        sent = [[], []]

        def ascent(k):
            for lanes in asked[k]:
                sent[k].append((yield lanes))
            if k == 1:
                raise NonConvergent("second round")
            return "returned"

        shapes = counted_kernel(monkeypatch)
        outcomes = _lock_step([ascent(0), ascent(1)])
        assert outcomes[0] == "returned"
        assert isinstance(outcomes[1], NonConvergent)
        assert shapes == [(6,), (5,)]
        for requests, replies in zip(asked, sent):
            assert len(replies) == len(requests)
            for lanes, reply in zip(requests, replies):
                value, _, _, slope1, slope2 = _maxmin_batch(*lanes)
                assert [a.tobytes() for a in reply] == [a.tobytes() for a in (value, slope1, slope2)]

    def test_a_failed_problem_leaves_the_others(self):
        config = SystemConfig(1e-3, 6.0, 5.0)
        bad, good = _lock_step([_ascent(J, config, SETTINGS) for J in (1, 4)])
        assert isinstance(bad, InvalidArgument)
        assert bits(good) == bits(qci_lower_bound(4, config, SETTINGS))

    @pytest.mark.parametrize("make, error, before_first_yield", [
        (lambda config: _grid((0.0,), config), DomainError, True),
        (lambda config: _ascent(1, config, SETTINGS), InvalidArgument, True),
        (lambda config: _ascent(4, config, SETTINGS), NonConvergent, False),
    ], ids=["threshold-0", "one-cell", "iteration-cap"])
    def test_solo_raises_the_participants_own_exception(
        self, monkeypatch, make, error, before_first_yield,
    ):
        # the exception that the participant raises when driven by hand, of
        # the same type and with the same message, whether it is raised
        # before the participant's first yield or after it
        monkeypatch.setattr(importlib.import_module("diamond_bottleneck.qci"), "_MAX_ITER", 1)
        config = SystemConfig(1e-4, 8.0, 8.0)
        participant = make(config)
        if before_first_yield:
            with pytest.raises(error) as by_hand:
                next(participant)
        else:
            block = next(participant)
            with pytest.raises(error) as by_hand:
                while True:
                    value, _, _, slope1, slope2 = _maxmin_batch(*block)
                    block = participant.send((value, slope1, slope2))
        with pytest.raises(error) as solo:
            _solo(make(config))
        assert type(solo.value) is error
        assert str(solo.value) == str(by_hand.value) != ""


@st.composite
def projection_inputs(draw):
    """(x, budget): a point and a budget."""
    n = draw(st.integers(1, 8))
    coords = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    budget = draw(st.one_of(st.just(0.0), st.floats(0.0, 480.0)))
    return x, budget


def _scale(x, budget):
    return max(1.0, budget, float(np.abs(x).sum()))


class TestProjectBudgetProperties:
    @given(projection_inputs())
    def test_feasible(self, case):
        x, budget = case
        c = _project_budget(x, budget)
        assert np.all(c >= 0.0)
        assert float(c.sum()) <= budget + 1e-12 * _scale(x, budget)

    @given(projection_inputs())
    def test_shrinks_along_p(self, case):
        # c = max(x - theta, 0) for one theta >= 0: every cell weighs 1/J, so
        # the shift along the weights is the same for every entry
        x, budget = case
        c = _project_budget(x, budget)
        live = c > 0.0
        if not np.any(live):
            theta = max(float(np.max(x)), 0.0)
        else:
            thetas = x[live] - c[live]
            theta = float(np.median(thetas))
            assert np.allclose(thetas, theta, rtol=0.0, atol=1e-9 * _scale(x, budget))
        assert theta >= -1e-12 * _scale(x, budget)
        expected = np.maximum(x - max(theta, 0.0), 0.0)
        assert np.allclose(c, expected, rtol=0.0, atol=1e-9 * _scale(x, budget))

    @given(projection_inputs())
    def test_spends_whole_budget_when_it_binds(self, case):
        # theta > 0 exactly when max(x, 0) overspends; then sum(c) = budget
        x, budget = case
        c = _project_budget(x, budget)
        if float(np.maximum(x, 0.0).sum()) <= budget:
            assert np.array_equal(c, np.maximum(x, 0.0))
        else:
            assert float(c.sum()) == pytest.approx(budget, rel=0.0, abs=1e-12 * _scale(x, budget))


def sorted_cumsum_projection(x, p, budget):
    """The weighted sort/cumsum projection onto {c >= 0, p . c <= budget}
    that _project_budget's breakpoint loop replaced, kept verbatim as its
    oracle.  At the uniform weights p = 1/J of the QCI grids, J a power of
    two, every product with p and every division by p . p is exact, so it
    equals _project_budget(x, J budget) bit for bit."""
    c = np.maximum(x, 0.0)
    spend = float(p @ c)
    if spend <= budget:
        return c
    order = np.argsort(-(x / p), kind="stable")
    xs, ps = x[order], p[order]
    thetas = (np.cumsum(ps * xs) - budget) / np.cumsum(ps * ps)
    above = np.flatnonzero(xs - thetas * ps > 0.0)
    if above.size == 0:
        return np.zeros_like(x)
    active = x - thetas[above[-1]] * p > 0.0
    theta = (float(p[active] @ x[active]) - budget) / float(p[active] @ p[active])
    return np.maximum(x - max(theta, 0.0) * p, 0.0)


class TestProjectBudgetBits:
    @staticmethod
    def cases(m):
        """Seeded finite inputs: negative entries, tied breakpoints, budget 0
        and points already inside the budget."""
        rng = np.random.default_rng(100 + m)
        for k in range(600):
            x = rng.uniform(-20.0, 40.0, m) * 10.0 ** rng.integers(-3, 2)
            J = (2, 4, 8)[k % 3]  # the uniform weight 1/J of the QCI grids
            if m > 1 and k % 4 == 0:
                # tied breakpoints
                x[-1] = x[1] = x[0]
            spend = float(np.maximum(x, 0.0).sum()) / J
            budget = (0.0, spend, 1.5 * spend, 0.5 * spend, rng.uniform(0.0, 60.0))[k % 5]
            yield x, J, budget

    @pytest.mark.parametrize("m", range(1, 8))
    def test_equals_the_sorted_cumsum_formulation(self, m):
        inside = binding = 0
        for x, J, budget in self.cases(m):
            got = _project_budget(x, J * budget)
            expected = sorted_cumsum_projection(x, np.full(m, 1.0 / J), budget)
            assert got.tobytes() == expected.tobytes(), (x, J, budget)
            if float(np.maximum(x, 0.0).sum()) / J <= budget:
                inside += 1
            else:
                binding += 1
        assert inside > 50 and binding > 50

    def test_ascent_inputs_match(self, monkeypatch):
        # every projection that the three ascents of one preset point make
        qci = importlib.import_module("diamond_bottleneck.qci")
        calls = []

        def spy(x, budget):
            calls.append((x.copy(), budget))
            return _project_budget(x, budget)

        monkeypatch.setattr(qci, "_project_budget", spy)
        config = SystemConfig(1.0 / db_to_linear(30.0), 10.0, 10.0)
        _lock_step([_ascent(J, config, SETTINGS) for J in (2, 4, 8)])
        assert len(calls) > 20
        for x, budget in calls:
            J = x.size + 1
            expected = sorted_cumsum_projection(x, np.full(x.size, 1.0 / J), budget / J)
            assert _project_budget(x, budget).tobytes() == expected.tobytes()

    # Non-finite entries, with the output of the argsort-ordered loop that
    # the value sort replaced, as float.hex: a NaN comes from a failed kernel
    # lane, an infinity from an overflowing Barzilai-Borwein step.  A plain
    # sort puts a NaN anywhere, so without its filter the NaN cases fail.
    NONFINITE = [
        ([3.0, math.nan, 1.0], 2.0, ["0x1.0000000000000p+1", "nan", "0x0.0p+0"]),
        (
            [math.nan, 5.0, 2.0, 4.0],
            6.0,
            ["nan", "0x1.aaaaaaaaaaaaap+1", "0x1.5555555555554p-2", "0x1.2aaaaaaaaaaaap+1"],
        ),
        ([1.0, 2.0, 3.0, math.nan], 1.0, ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "nan"]),
        ([math.nan, math.nan, 2.0], 1.0, ["nan", "nan", "0x1.0000000000000p+0"]),
        (
            [4.0, 1.0, math.nan, 3.0, 2.0, math.nan, 0.5],
            5.0,
            [
                "0x1.5555555555556p+1", "0x0.0p+0", "nan", "0x1.aaaaaaaaaaaabp+0",
                "0x1.5555555555556p-1", "nan", "0x0.0p+0",
            ],
        ),
        ([math.nan], 1.0, ["0x0.0p+0"]),
        ([math.inf, 1.0, 2.0], 3.0, ["0x0.0p+0"] * 3),
        ([-math.inf, 4.0, 2.0], 3.0, ["0x0.0p+0", "0x1.4000000000000p+1", "0x1.0000000000000p-1"]),
        ([-math.inf, 4.0, 2.0], 10.0, ["0x0.0p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+1"]),
        ([math.inf, -math.inf, 1.0], 2.0, ["0x0.0p+0"] * 3),
        ([2.0, math.inf, math.nan, -math.inf, 5.0], 4.0, ["0x0.0p+0"] * 5),
        ([math.inf, math.inf], 1.0, ["0x0.0p+0"] * 2),
    ]

    @pytest.mark.parametrize("x, budget, expected", NONFINITE)
    def test_nonfinite_entries_keep_the_recorded_bits(self, x, budget, expected):
        assert [v.hex() for v in _project_budget(np.array(x), budget).tolist()] == expected

    @pytest.mark.parametrize("m", range(1, 17))
    def test_python_sum_equals_add_reduce(self, m):
        # _sum stands in for ndarray.sum: left to right from 0.0 below eight
        # entries, as NumPy adds them, and NumPy's own pairwise sum from there
        rng = np.random.default_rng(200 + m)
        for k in range(2000):
            x = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-8.0, 8.0, m)
            if k % 3 == 0:
                x[rng.integers(m)] = -0.0
            if k % 5 == 0:
                x[-1] = x[0]  # a tie
            if k % 7 == 0:
                x[:] = -0.0
            expected = np.add.reduce(x)
            assert np.float64(_sum(x.tolist())).tobytes() == expected.tobytes(), x
