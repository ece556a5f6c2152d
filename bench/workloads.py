"""The benchmark's workloads: which operating points, through which entry point.

Every workload is a closed loop in one process: each point starts only after
the previous one has finished.

fig2         ``sweep --preset fig2`` through ``run_sweep(fig2_spec(...))``:
             31 SNR points, 0 to 60 dB at C = 10 bits, QCI warm-started along
             the SNR axis.  The workload where tci and mmse together cost as
             much as qci.
fig3         ``sweep --preset fig3`` through ``run_sweep(fig3_spec(...))``:
             26 budget points, 0 to 25 bits at 40 dB.  Reaches mmse's
             degenerate C = 0, qci_J8's infeasible C < 3, ub's water levels far
             below float epsilon, and a warm start along the budget axis.
cold_points  16 operating points evaluated as ``bound`` does, one
             ``compute_point(..., warm_start=None)`` each: SNR in [0, 80] dB,
             c1 and c2 independently in [0, 25] bits.  No warm start and
             asymmetric budgets, so the qci ascent does most of the work and
             has a heavy tail.

The presets are fixed inputs; ``--seed`` changes only the cold points.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

NAMES = ("fig2", "fig3", "cold_points")

# (low, high) of snr_db, c1 and c2; c1 and c2 are drawn independently.  The
# SNR starts at 0 dB, the low end of the fig2 axis: below about -2.3 dB mmse
# returns negative rates (see README.md, "Known defect").
COLD_BOX = np.array([(0.0, 80.0), (0.0, 25.0), (0.0, 25.0)])
COLD_POINT_COUNT = 16
# Fixes which slot of each axis every cold point occupies; only the position
# inside the middle fifth of the slot comes from --seed (see README.md for why).
_SLOT_SEED = 2206_14453
_JITTER = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    points: tuple[tuple[float, float, float], ...]  # (snr_db, c1, c2)
    run_pass: Callable[[], None]


def cold_points(seed: int, count: int = COLD_POINT_COUNT) -> list[tuple[float, float, float]]:
    """Latin hypercube over (snr_db, c1, c2) with fixed slots, jittered by seed."""
    slots_rng = np.random.default_rng(_SLOT_SEED)
    slots = np.stack([slots_rng.permutation(count) for _ in range(3)], axis=1)
    jitter = _JITTER * np.random.default_rng(seed).random((count, 3))
    unit = (slots + (1.0 - _JITTER) / 2 + jitter) / count
    low, high = COLD_BOX[:, 0], COLD_BOX[:, 1]
    return [tuple(float(x) for x in row) for row in low + (high - low) * unit]


def _truncated(spec, count: int):
    """The first `count` points of a preset's axis."""
    field = "snr_db_range" if spec.mode == "snr_sweep" else "budget_range"
    start, stop, step = getattr(spec, field)
    return replace(spec, **{field: (start, min(stop, start + step * (count - 1)), step)})


def build(name: str, seed: int, out_dir: str, max_points: int | None = None) -> Workload:
    """The named workload; diamond_bottleneck must be importable."""
    package = importlib.import_module("diamond_bottleneck")
    sweeps = importlib.import_module("diamond_bottleneck.sweeps")
    if name in ("fig2", "fig3"):
        preset = sweeps.fig2_spec if name == "fig2" else sweeps.fig3_spec
        spec = preset(os.path.join(out_dir, f"{name}.csv"))
        if max_points is not None:
            spec = _truncated(spec, max_points)
        return Workload(name, tuple(sweeps.sweep_points(spec)), lambda: sweeps.run_sweep(spec))

    if name != "cold_points":
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")
    points = cold_points(seed)[:max_points]
    settings = package.SolverSettings()
    configs = [
        package.SystemConfig(noise_power=1.0 / sweeps.db_to_linear(snr_db), c1=c1, c2=c2)
        for snr_db, c1, c2 in points
    ]

    def run_pass() -> None:
        for config in configs:
            # looked up on the module at call time, so the point timer sees it
            sweeps.compute_point(config, sweeps.SCHEMES, settings, warm_start=None)

    return Workload(name, tuple(points), run_pass)
