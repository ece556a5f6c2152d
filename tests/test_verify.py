"""Seeded faults in the oracle checks of verify, which acceptance criteria 4,
5, 6 and 8 also run: each check passes on the library as it is and fails
once the library value it guards is perturbed, so none of them passes
vacuously.  The instance counts are small; the perturbation shows on every
instance."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1

import diamond_bottleneck.verify as verify
from diamond_bottleneck.numerics import SolverSettings

SETTINGS = SolverSettings()


def _shift_live_cells(allocation):
    # one more microbit on every live cell; the dead cell stays at 0
    c = allocation.c.copy()
    c[:, :-1] += 1e-6
    return replace(allocation, c=c)


# fault: (library name that verify calls, perturbation of its result, check)
FAULTS = {
    "e1_vs_reference": (
        # an absolute error far below 1e-12 that is huge next to E1(100)
        "exp_integral_e1",
        lambda value: value + 1e-30,
        verify._check_e1_reference,
    ),
    "e1_vs_reference_above_1e3": (
        # e^t E1(t) is about 1/t, so this moves only the points past t = 1e3
        "_e1_scaled",
        lambda value: value * (1.0 + 1e-11) if value < 1e-3 else value,
        verify._check_e1_reference,
    ),
    "e1_vs_quadrature": (
        "exp_integral_e1",
        lambda value: value + 1e-8,
        verify._check_e1_quadrature,
    ),
    "quantile_cells": (
        "xi_quantile",
        lambda b: b * (1.0 + 1e-6),
        verify._check_quantiles,
    ),
    "one_relay_rate": (
        "fixed_rate",
        lambda result: replace(result, rate=result.rate + 1e-4),
        lambda: verify._check_one_relay(202, 5),
    ),
    "lattice_gap": (
        "fixed_rate",
        lambda result: replace(result, rate=result.rate - 1e-5),
        lambda: verify._check_solver_vs_grid(101, 3),
    ),
    "water_level_residual": (
        "upper_bound",
        lambda result: replace(result, nu=result.nu * (1.0 + 1e-3)),
        lambda: verify._check_water_level(SETTINGS, 606, 3),
    ),
    "cond_noise": (
        "tci_rate",
        lambda point: replace(point, cond_noise=point.cond_noise * (1.0 + 1e-6)),
        verify._check_conditional_noise,
    ),
    "cond_noise_nan": (
        # a NaN gap fails the check, wherever it falls among the cases
        "tci_rate",
        lambda point: replace(point, cond_noise=math.nan) if point.threshold == 1.0 else point,
        verify._check_conditional_noise,
    ),
    "est_power": (
        "calibrate",
        lambda cal: replace(cal, est_power=cal.est_power * (1.0 + 1e-6)),
        verify._check_est_power,
    ),
    "qci_spend": (
        "qci_lower_bound",
        _shift_live_cells,
        lambda: verify._check_qci_feasibility(SETTINGS),
    ),
    "mmse_distortion": (
        "calibrate",
        lambda cal: replace(cal, distortion=tuple(d * (1.0 + 1e-6) for d in cal.distortion)),
        verify._check_mmse_calibration,
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_check_fails_on_a_perturbed_library_value(monkeypatch, fault):
    name, perturb, check = FAULTS[fault]
    ok, detail = check()
    assert ok, detail
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: perturb(original(*args)))
    ok, detail = check()
    assert not ok, detail


def test_e1_reference_matches_scipy():
    # the decimal reference that verify checks E1 against, on seeded
    # log-uniform points up to where E1 nears the smallest normal float
    for t in 10.0 ** np.random.default_rng(7).uniform(-8.0, math.log10(700.0), 200):
        reference = math.exp(-t) * verify._e1_scaled_reference(t)
        assert reference == pytest.approx(exp1(t), rel=1e-13, abs=0.0), t
