"""Cross-scheme contracts beyond the preset grids: over SNR from -60 to 150 dB
and budgets from 0 to 60 bits, every lower bound stays at or below the upper
bound, every rate is nonnegative and symmetric under c1 <-> c2, and every rate
is monotone along short ladders of budget and of SNR.

Each point runs the scheme cold, as `bound` does.  The `mmse` expression is
not a valid lower bound yet (ROADMAP item 2): its strict xfails carry an
explicit failing example each, so they fail on every run until the formula
is repaired.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamond_bottleneck.channel import SystemConfig
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.sweeps import SCHEMES, compute_point

SETTINGS = SolverSettings()
TOL = 1e-9

SNR_DB = st.floats(-60.0, 150.0)
BUDGET = st.floats(0.0, 60.0)
# Ladders climb three rungs and stay inside the same box.
LADDER_SNR_DB = st.floats(-60.0, 140.0)
LADDER_BUDGET = st.floats(0.0, 50.0)
RUNG = st.floats(0.01, 5.0)

# 60 draws per scheme and property keep the whole suite near 11 s; the cold
# QCI ascent dominates.
FEW = settings(max_examples=60)

LOWER_BOUNDS = tuple(scheme for scheme in SCHEMES if scheme != "ub")
VALID = tuple(scheme for scheme in SCHEMES if scheme != "mmse")


def with_mmse_xfail(reason):
    return [*VALID, pytest.param("mmse", marks=pytest.mark.xfail(strict=True, reason=reason))]


def rates(snr_db, c1, c2, schemes):
    config = SystemConfig(noise_power=10.0 ** (-snr_db / 10.0), c1=c1, c2=c2)
    results = {r.scheme: r.rate for r in compute_point(config, schemes, SETTINGS)}
    assert None not in results.values(), results
    return results


def rate(snr_db, c1, c2, scheme):
    return rates(snr_db, c1, c2, (scheme,))[scheme]


def assert_nondecreasing(values):
    assert all(b >= a - TOL for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("scheme", LOWER_BOUNDS)
@FEW
@given(SNR_DB, BUDGET, BUDGET)
def test_below_upper_bound(scheme, snr_db, c1, c2):
    got = rates(snr_db, c1, c2, ("ub", scheme))
    assert got[scheme] <= got["ub"] + TOL


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
