"""Quantized-inversion scheme: grid construction, cell rates, and the
budget-allocation ascent."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diamond_bottleneck.channel import SnrPair, SystemConfig
from diamond_bottleneck.errors import InvalidArgument, NonConvergent
from diamond_bottleneck.fixed_rate import fixed_rate
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.qci import (
    _project_budget,
    build_grid,
    cell_rate,
    optimize_allocation,
    qci_lower_bound,
)
from diamond_bottleneck.upper_bound import upper_bound

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


class TestCellRate:
    def test_dead_dead_is_zero(self, unit_snr_grid):
        assert cell_rate(1, 1, unit_snr_grid, (3.0, 3.0), SETTINGS) == 0.0

    def test_single_live_relay_closed_form(self, unit_snr_grid):
        assert unit_snr_grid.snr_levels[0] == pytest.approx(1.0, abs=1e-12)
        rate = cell_rate(0, 1, unit_snr_grid, (1.0, 7.0), SETTINGS)
        assert rate == pytest.approx(LOG2_4_3, abs=1e-10)
        # dead relay's budget is irrelevant
        assert cell_rate(0, 1, unit_snr_grid, (1.0, 0.0), SETTINGS) == pytest.approx(
            rate, abs=1e-15
        )
        # mirrored cell uses the second budget
        assert cell_rate(1, 0, unit_snr_grid, (7.0, 1.0), SETTINGS) == pytest.approx(
            LOG2_4_3, abs=1e-10
        )

    def test_interior_matches_maxmin_solver(self):
        grid = build_grid(4, SystemConfig(0.01, 6.0, 6.0))
        rho = (grid.snr_levels[0], grid.snr_levels[2])
        value = fixed_rate(SnrPair(*rho), (2.0, 1.5)).rate
        assert cell_rate(0, 2, grid, (2.0, 1.5), SETTINGS) == pytest.approx(
            value, abs=1e-9
        )

    def test_zero_budgets_zero_rate(self, unit_snr_grid):
        assert cell_rate(0, 0, unit_snr_grid, (0.0, 0.0), SETTINGS) == 0.0

    def test_index_validation(self, unit_snr_grid):
        for j1, j2 in [(-1, 0), (0, -1), (2, 0), (0, 2)]:
            with pytest.raises(InvalidArgument):
                cell_rate(j1, j2, unit_snr_grid, (1.0, 1.0), SETTINGS)

    def test_budget_validation(self, unit_snr_grid):
        with pytest.raises(InvalidArgument):
            cell_rate(0, 0, unit_snr_grid, (-0.1, 1.0), SETTINGS)


def uniform_split_value(J, config, settings):
    """Mean cell rate when each live cell gets an equal share of the
    post-header budget: the optimizer must do at least this well."""
    grid = build_grid(J, config)
    m = J - 1
    share1 = (config.c1 - grid.header_bits) * J / m
    share2 = (config.c2 - grid.header_bits) * J / m
    total = 0.0
    for j1 in range(J):
        for j2 in range(J):
            total += cell_rate(j1, j2, grid, (share1, share2), settings)
    return total / J**2


class TestOptimizeAllocation:
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
        result = optimize_allocation(grid, config, SETTINGS)
        assert result.feasible
        probs = np.asarray(grid.probs)
        assert float(probs @ result.c[0]) <= config.c1 - grid.header_bits + 1e-9
        assert float(probs @ result.c[1]) <= config.c2 - grid.header_bits + 1e-9
        assert np.all(result.c >= 0.0)
        assert np.all(result.c[:, -1] == 0.0)

    def test_rates_matrix_consistency(self):
        config = SystemConfig(1e-3, 5.0, 5.0)
        grid = build_grid(4, config)
        result = optimize_allocation(grid, config, SETTINGS)
        assert result.lower_bound == pytest.approx(
            float(result.rates.sum()) / grid.size**2, abs=1e-12
        )
        for j1, j2 in [(0, 0), (1, 2), (0, 3), (3, 1), (3, 3)]:
            expected = cell_rate(
                j1, j2, grid, (result.c[0, j1], result.c[1, j2]), SETTINGS
            )
            assert result.rates[j1, j2] == pytest.approx(expected, abs=1e-9)

    def test_beats_uniform_split(self):
        for J, config in [
            (2, SystemConfig(1e-2, 4.0, 4.0)),
            (4, SystemConfig(1e-4, 8.0, 8.0)),
        ]:
            result = qci_lower_bound(J, config, SETTINGS)
            assert result.lower_bound >= uniform_split_value(J, config, SETTINGS) - 1e-9

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

    def test_warm_start_shape_validation(self):
        config = SystemConfig(1e-2, 4.0, 4.0)
        grid = build_grid(2, config)
        with pytest.raises(InvalidArgument):
            optimize_allocation(grid, config, SETTINGS, initial=np.zeros((2, 3)))

    def test_warm_started_ladder_is_monotone(self):
        budgets = [3.0, 3.5, 4.0, 4.5]
        previous = None
        values = []
        for c in budgets:
            result = qci_lower_bound(
                4, SystemConfig(1e-2, c, c), SETTINGS, initial=previous
            )
            values.append(result.lower_bound)
            previous = result.c
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

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
