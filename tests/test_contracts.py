"""Cross-scheme contracts beyond the preset grids: over the input box of
`bound` and `sweep` (sweeps.SNR_DB_BOX in dB, sweeps.BUDGET_BOX in bits,
with an explicit example at each edge), every lower bound stays at or below
the upper bound, the upper bound stays at or below the cut-set bound
c1 + c2 and spends the budget to 1e-6 of min(1, c1 + c2) bits (or one ulp
of c1 + c2, where that is larger), every rate
is nonnegative and symmetric under c1 <-> c2, and every rate is monotone
along short ladders of budget and of SNR.

Each point runs the scheme cold, as `bound` does.  The `mmse` expression is
not a valid lower bound yet (ROADMAP item 2): its strict xfails carry an
explicit failing example each, so they fail on every run until the formula
is repaired.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamond_bottleneck.channel import SystemConfig
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.sweeps import BUDGET_BOX, SCHEMES, SNR_DB_BOX, compute_point

SETTINGS = SolverSettings()
TOL = 1e-9

SNR_DB = st.floats(*SNR_DB_BOX)
BUDGET = st.floats(*BUDGET_BOX)
# Ladders climb two rungs of at most 5 and stay inside the same box.
LADDER_SNR_DB = st.floats(SNR_DB_BOX[0], SNR_DB_BOX[1] - 10.0)
LADDER_BUDGET = st.floats(BUDGET_BOX[0], BUDGET_BOX[1] - 10.0)
RUNG = st.floats(0.01, 5.0)
LOW_DB, HIGH_DB = SNR_DB_BOX
LOW_C, HIGH_C = BUDGET_BOX

# 60 draws per scheme and property: this module takes about 2 s of Tier-1's
# 19 s on a 2-core host; the cold QCI ascent dominates.
FEW = settings(max_examples=60)

LOWER_BOUNDS = tuple(scheme for scheme in SCHEMES if scheme != "ub")
VALID = tuple(scheme for scheme in SCHEMES if scheme != "mmse")


def with_mmse_xfail(reason):
    return [*VALID, pytest.param("mmse", marks=pytest.mark.xfail(strict=True, reason=reason))]


def results(snr_db, c1, c2, schemes):
    config = SystemConfig(noise_power=10.0 ** (-snr_db / 10.0), c1=c1, c2=c2)
    got = {r.scheme: r for r in compute_point(config, schemes, SETTINGS)}
    assert None not in [r.rate for r in got.values()], got
    return got


def rates(snr_db, c1, c2, schemes):
    return {scheme: r.rate for scheme, r in results(snr_db, c1, c2, schemes).items()}


def rate(snr_db, c1, c2, scheme):
    return rates(snr_db, c1, c2, (scheme,))[scheme]


def assert_nondecreasing(values):
    assert all(b >= a - TOL for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("scheme", LOWER_BOUNDS)
@FEW
@given(SNR_DB, BUDGET, BUDGET)
@example(LOW_DB, LOW_C, HIGH_C)
@example(HIGH_DB, HIGH_C, LOW_C)
def test_below_upper_bound(scheme, snr_db, c1, c2):
    got = rates(snr_db, c1, c2, ("ub", scheme))
    assert got[scheme] <= got["ub"] + TOL


@FEW
@given(SNR_DB, BUDGET, BUDGET)
@example(40.0, 1e-300, 1e-300)
@example(150.0, 1e-12, 1e-12)
def test_upper_bound_within_cut_set(snr_db, c1, c2):
    # no tolerance: at budgets this small any slack would hide the overshoot
    assert rate(snr_db, c1, c2, "ub") <= c1 + c2


@FEW
@given(SNR_DB, BUDGET, BUDGET)
@example(40.0, 1e-300, 1e-300)
@example(40.0, 5e-324, 5e-324)
@example(150.0, 1e-12, 1e-12)
@example(LOW_DB, HIGH_C, HIGH_C)
def test_water_level_spends_the_budget(snr_db, c1, c2):
    # relative below 1 bit, so a tiny budget is not lost in an absolute stop;
    # floored at one ulp of the budget, where the relative limit underflows
    residual = results(snr_db, c1, c2, ("ub",))["ub"].diagnostic
    assert abs(residual) <= max(1e-6 * min(1.0, c1 + c2), math.ulp(c1 + c2))


@pytest.mark.parametrize("scheme", with_mmse_xfail("mmse is -0.9045 bits at -9.36 dB, C = 5"))
@FEW
@given(SNR_DB, BUDGET, BUDGET)
@example(-9.36, 5.0, 5.0)
def test_nonnegative(scheme, snr_db, c1, c2):
    assert rate(snr_db, c1, c2, scheme) >= 0.0


@pytest.mark.parametrize("scheme", SCHEMES)
@FEW
@given(SNR_DB, BUDGET, BUDGET)
def test_symmetric_in_budgets(scheme, snr_db, c1, c2):
    assert rate(snr_db, c1, c2, scheme) == pytest.approx(rate(snr_db, c2, c1, scheme), abs=TOL)


@pytest.mark.parametrize(
    "scheme", with_mmse_xfail("mmse falls from 0.2467 bits at C = (1, 1) to 0.2409 at (2, 1), -3 dB")
)
@FEW
@given(LADDER_SNR_DB, LADDER_BUDGET, LADDER_BUDGET, RUNG)
@example(-3.0, 0.0, 1.0, 1.0)
def test_monotone_in_budget(scheme, snr_db, c1, c2, rung):
    assert_nondecreasing([rate(snr_db, c1 + k * rung, c2, scheme) for k in range(3)])


@pytest.mark.parametrize(
    "scheme", with_mmse_xfail("mmse falls by 5.4e-4 bits from -59 to -58 dB, C = 10")
)
@FEW
@given(LADDER_SNR_DB, BUDGET, BUDGET, RUNG)
@example(-59.0, 10.0, 10.0, 1.0)
def test_monotone_in_snr(scheme, snr_db, c1, c2, rung):
    assert_nondecreasing([rate(snr_db + k * rung, c1, c2, scheme) for k in range(3)])
