"""Fixed-SNR max-min rate: delegation to the batched kernel, active-branch
labeling, the branch values it reads them from, and structural
invariants."""

import math

import numpy as np
import pytest

from diamond_bottleneck.channel import SnrPair
from diamond_bottleneck.fixed_rate import FixedRateResult, fixed_rate
from diamond_bottleneck.numerics import _branch_min, _branches, _maxmin_batch, _snr_used
from diamond_bottleneck.verify import maxmin_grid_oracle

LOG2_4_3 = 0.41503749927884


def rate_of(rho1, rho2, c1, c2) -> FixedRateResult:
    return fixed_rate(SnrPair(rho1, rho2), (c1, c2))


class TestFixedRate:
    def test_zero_budgets(self):
        result = rate_of(25.0, 3.0, 0.0, 0.0)
        assert result.rate == 0.0

    def test_one_relay_reference(self):
        result = rate_of(1.0, 0.0, 1.0, 0.0)
        assert result.rate == pytest.approx(LOG2_4_3, abs=1e-8)

    def test_optimizer_above_overflow_budget(self):
        # 2^1030 overflows float64; r = c - log2(1 + rho) to float precision
        result = rate_of(100.0, 0.0, 1030.0, 0.0)
        assert result.r_opt[0] == pytest.approx(1030.0 - math.log2(101.0), abs=1e-9)
        assert result.rate == pytest.approx(math.log2(101.0), abs=1e-12)

    def test_symmetric_optimizer(self):
        result = rate_of(5.0, 5.0, 3.0, 3.0)
        assert result.r_opt[0] == pytest.approx(result.r_opt[1], abs=1e-4)

    def test_matches_solver(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = rng.uniform(0.0, 60.0, 2)
            c = rng.uniform(0.0, 8.0, 2)
            result = rate_of(rho[0], rho[1], c[0], c[1])
            value, r1, r2 = _maxmin_batch(rho[0], rho[1], c[0], c[1])[:3]
            assert (result.rate, *result.r_opt) == (value, r1, r2)

    def test_relay_exchange_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            a, b = rng.uniform(0.0, 40.0, 2)
            c, d = rng.uniform(0.0, 7.0, 2)
            assert rate_of(a, b, c, d).rate == pytest.approx(
                rate_of(b, a, d, c).rate, abs=1e-8
            )

    def test_monotone_in_each_argument(self):
        base = rate_of(4.0, 6.0, 2.0, 3.0).rate
        assert rate_of(5.0, 6.0, 2.0, 3.0).rate >= base - 1e-6
        assert rate_of(4.0, 7.0, 2.0, 3.0).rate >= base - 1e-6
        assert rate_of(4.0, 6.0, 2.5, 3.0).rate >= base - 1e-6
        assert rate_of(4.0, 6.0, 2.0, 3.5).rate >= base - 1e-6

    def test_upper_caps(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            rho = rng.uniform(0.0, 100.0, 2)
            c = rng.uniform(0.0, 10.0, 2)
            result = rate_of(rho[0], rho[1], c[0], c[1])
            assert result.rate <= c[0] + c[1] + 1e-8
            assert result.rate <= math.log2(1.0 + rho[0] + rho[1]) + 1e-8

    def test_oracle_agreement(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            rho = rng.uniform(0.0, 100.0, 2)
            c = rng.uniform(0.0, 10.0, 2)
            result = rate_of(rho[0], rho[1], c[0], c[1])
            oracle = maxmin_grid_oracle(*rho, *c, max(10, int(20000 * (c[0] + c[1])) + 2))
            assert result.rate == pytest.approx(oracle, abs=1e-3)
            assert result.rate >= oracle - 1e-6


def hand_branch_values(rho1, rho2, c1, c2, r1, r2):
    """Independent recomputation of the four cut values at a rate pair."""
    u1 = 1.0 - 2.0**-r1
    u2 = 1.0 - 2.0**-r2
    return {
        "{}": math.log2(1.0 + rho1 * u1 + rho2 * u2),
        "{1}": c1 - r1 + math.log2(1.0 + rho2 * u2),
        "{2}": math.log2(1.0 + rho1 * u1) + c2 - r2,
        "{1,2}": c1 - r1 + c2 - r2,
    }


class TestActiveSubsets:
    def test_large_budget_saturates_full_observation_branch(self):
        # budgets far above the SNR cap: the no-cut branch pins the value
        result = rate_of(10.0, 10.0, 30.0, 30.0)
        assert "{}" in result.active_subsets
        assert result.rate == pytest.approx(math.log2(21.0), abs=1e-6)

    def test_labels_are_known_subsets(self):
        known = {"{}", "{1}", "{2}", "{1,2}"}
        rng = np.random.default_rng(25)
        for _ in range(10):
            rho = rng.uniform(0.0, 50.0, 2)
            c = rng.uniform(0.0, 6.0, 2)
            result = rate_of(rho[0], rho[1], c[0], c[1])
            assert result.active_subsets
            assert set(result.active_subsets) <= known

    def test_labels_match_recomputed_branches(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            rho = rng.uniform(0.5, 50.0, 2)
            c = rng.uniform(0.5, 6.0, 2)
            result = rate_of(rho[0], rho[1], c[0], c[1])
            values = hand_branch_values(rho[0], rho[1], c[0], c[1], *result.r_opt)
            low = min(values.values())
            expected = tuple(
                label for label, value in values.items() if value - low <= 1e-6
            )
            assert result.active_subsets == expected


class TestBranchMinimum:
    def test_value_at_optimizer_matches_rate(self):
        result = rate_of(7.0, 2.0, 3.0, 1.5)
        value = _branch_min(7.0, 2.0, 3.0, 1.5, *result.r_opt)
        assert value == pytest.approx(result.rate, abs=1e-12)

    def test_zero_rates_give_zero(self):
        assert _branch_min(3.0, 1.0, 4.0, 4.0, 0.0, 0.0) == 0.0

    def test_full_budget_rates_give_zero(self):
        assert _branch_min(3.0, 1.0, 4.0, 4.0, 4.0, 4.0) == 0.0

    def test_hand_computed_minimum(self):
        value = _branch_min(3.0, 1.0, 4.0, 4.0, 2.0, 1.0)
        assert value == pytest.approx(math.log2(3.75), abs=1e-12)

    def test_agrees_with_hand_branches(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            rho = rng.uniform(0.0, 80.0, 2)
            c = rng.uniform(0.0, 8.0, 2)
            r = (rng.uniform(0.0, c[0]), rng.uniform(0.0, c[1]))
            hand = hand_branch_values(rho[0], rho[1], c[0], c[1], *r)
            used = _snr_used(rho[0], r[0]), _snr_used(rho[1], r[1])
            branches = _branches(c[0], c[1], *r, *used)
            assert branches == pytest.approx(tuple(hand.values()), abs=1e-9)
            value = _branch_min(rho[0], rho[1], c[0], c[1], *r)
            assert value == min(branches)
