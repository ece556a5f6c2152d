"""Seeded faults in the oracle checks of verify, which acceptance criteria 4,
5, 6 and 8 also run: each check passes on the library as it is and fails
once the library value it guards is perturbed, so none of them passes
vacuously.  The instance counts are small; the perturbation shows on every
instance."""

from dataclasses import replace

import pytest

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
    "est_power": (
        "calibrate",
        lambda cal: replace(cal, est_power=tuple(p * (1.0 + 1e-6) for p in cal.est_power)),
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
