"""Parameter sweeps and CSV emission.

A sweep walks one axis (SNR in dB, or per-relay budget in bits), evaluates
the requested bounds at every point, and writes one CSV row per point:
axis columns first, then one rate column per scheme, then one diagnostic
column per scheme.  Failed schemes, including those that return a
non-finite rate, leave their cells empty and report on stderr; the other
columns of the row are unaffected.  No scheme draws random numbers, so
every run of a spec gives a byte-identical file.

The two preset sweeps pin the operating points of the reference curves:
rate versus SNR at C = 10 bits per relay, and rate versus C at 40 dB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channel import SystemConfig
from .errors import DomainError, InvalidArgument
from .mmse import mmse_rate
from .numerics import SolverSettings
# bench/tracer.py times each scheme at the sweeps.<function> it calls, and
# reports a missing one; qci_lower_bound is bound here for that lookup
# alone, since compute_point runs its cell counts through qci_lower_bounds.
from .qci import qci_lower_bound, qci_lower_bounds  # noqa: F401
from .tci import tci_best
from .upper_bound import upper_bound

SCHEMES = ("ub", "qci_J2", "qci_J4", "qci_J8", "tci", "mmse")

_DIAGNOSTIC_COLUMN = {
    "ub": "ub_residual",
    "qci_J2": "qci_J2_iters",
    "qci_J4": "qci_J4_iters",
    "qci_J8": "qci_J8_iters",
    "tci": "tci_threshold",
    "mmse": "mmse_halfwidth",
}

_MODES = ("snr_sweep", "budget_sweep", "single")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


@dataclass(frozen=True, slots=True)
class BoundResult:
    """One scheme's outcome at one sweep point; rate None means it failed.

    Slotted, with the scheme's one diagnostic as a bare value (None when the
    scheme failed) rather than a dict: a caller that keeps every point's
    results, as the benchmark does, holds about half the bytes.
    """

    scheme: str
    rate: float | None
    diagnostic: float | None = None

    @property
    def diagnostics(self) -> dict[str, float]:
        """The diagnostic keyed by its CSV column name; empty when failed."""
        if self.diagnostic is None:
            return {}
        return {_DIAGNOSTIC_COLUMN[self.scheme]: self.diagnostic}


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    schemes: tuple[str, ...]
    settings: SolverSettings
    output_path: str
    snr_db_range: tuple[float, float, float] | None = None
    budget_range: tuple[float, float, float] | None = None
    fixed_c: float | None = None
    fixed_snr_db: float | None = None
    fixed_c2: float | None = None  # single mode only; defaults to fixed_c

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise InvalidArgument(f"unknown sweep mode {self.mode!r}")
        if not self.schemes:
            raise InvalidArgument("at least one scheme is required")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise InvalidArgument(f"unknown scheme {scheme!r}; valid: {SCHEMES}")
        if self.mode == "snr_sweep":
            self._check_range(self.snr_db_range, "snr_db_range")
            self._need(self.fixed_c, "fixed_c")
        elif self.mode == "budget_sweep":
            self._check_range(self.budget_range, "budget_range")
            self._need(self.fixed_snr_db, "fixed_snr_db")
        else:
            self._need(self.fixed_c, "fixed_c")
            self._need(self.fixed_snr_db, "fixed_snr_db")

    @staticmethod
    def _need(value, name: str) -> None:
        if value is None:
            raise InvalidArgument(f"{name} is required for this mode")

    @staticmethod
    def _check_range(rng, name: str) -> None:
        if rng is None:
            raise InvalidArgument(f"{name} is required for this mode")
        start, stop, step = rng
        if not all(math.isfinite(value) for value in rng):
            raise InvalidArgument(f"{name} start, stop and step must be finite")
        if not (step > 0.0):
            raise InvalidArgument(f"{name} step must be positive")
        if start > stop:
            raise InvalidArgument(f"{name} start must not exceed stop")


def fig2_spec(output_path: str = "fig2.csv", settings: SolverSettings | None = None) -> SweepSpec:
    """Rate versus SNR: 0 to 60 dB in 2 dB steps at C1 = C2 = 10 bits."""
    return SweepSpec(
        mode="snr_sweep",
        schemes=SCHEMES,
        settings=settings or SolverSettings(),
        output_path=output_path,
        snr_db_range=(0.0, 60.0, 2.0),
        fixed_c=10.0,
    )


def fig3_spec(output_path: str = "fig3.csv", settings: SolverSettings | None = None) -> SweepSpec:
    """Rate versus budget: C = 0 to 25 bits in 1 bit steps at 40 dB SNR."""
    return SweepSpec(
        mode="budget_sweep",
        schemes=SCHEMES,
        settings=settings or SolverSettings(),
        output_path=output_path,
        budget_range=(0.0, 25.0, 1.0),
        fixed_snr_db=40.0,
    )


def _axis(rng: tuple[float, float, float]) -> list[float]:
    start, stop, step = rng
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def sweep_points(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """(snr_db, c1, c2) triples of the sweep, in row order."""
    if spec.mode == "snr_sweep":
        return [(db, spec.fixed_c, spec.fixed_c) for db in _axis(spec.snr_db_range)]
    if spec.mode == "budget_sweep":
        return [(spec.fixed_snr_db, c, c) for c in _axis(spec.budget_range)]
    c2 = spec.fixed_c if spec.fixed_c2 is None else spec.fixed_c2
    return [(spec.fixed_snr_db, spec.fixed_c, c2)]


def compute_point(
    config: SystemConfig,
    schemes: Iterable[str],
    settings: SolverSettings,
    warm_start: dict[str, np.ndarray] | None = None,
) -> list[BoundResult]:
    """Evaluate the requested schemes at one operating point.

    The quantized schemes' ascents run together, in lock-step, before the
    rest (qci_lower_bounds); a failure still fails only its own cell, with
    its warning in scheme order.  warm_start carries each quantized
    scheme's previous allocation between points of a sweep; entries are
    updated in place.
    """
    schemes = tuple(schemes)
    quantized = [s for s in dict.fromkeys(schemes) if s.startswith("qci_J") and s[5:].isdigit()]
    initials = [warm_start.get(s) if warm_start is not None else None for s in quantized]
    outcomes = qci_lower_bounds([int(s[5:]) for s in quantized], config, settings, initials)
    allocations = dict(zip(quantized, outcomes))
    results = []
    for scheme in schemes:
        try:
            if scheme == "ub":
                bound = upper_bound(config, settings)
                result = BoundResult(scheme, bound.rate, bound.constraint_residual)
            elif scheme in allocations:
                allocation = allocations[scheme]
                if isinstance(allocation, Exception):
                    raise allocation
                if warm_start is not None and allocation.feasible:
                    warm_start[scheme] = allocation.c
                result = BoundResult(scheme, allocation.lower_bound, allocation.iterations)
            elif scheme == "tci":
                point = tci_best(config)
                result = BoundResult(scheme, point.rate, point.threshold)
            elif scheme == "mmse":
                outcome = mmse_rate(config, settings)
                result = BoundResult(scheme, outcome.rate, outcome.error_estimate)
            else:
                raise InvalidArgument(f"unknown scheme {scheme!r}")
            if not math.isfinite(result.rate):
                raise DomainError(f"non-finite rate {result.rate}")
        except Exception as error:  # noqa: BLE001 - row isolation is the contract
            print(
                f"warning: scheme {scheme} failed at noise_power={config.noise_power:g}, "
                f"c=({config.c1:g}, {config.c2:g}): {error}",
                file=sys.stderr,
            )
            result = BoundResult(scheme, None)
        results.append(result)
    return results


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".9g")


def render_rows(spec: SweepSpec) -> list[str]:
    """Header plus one CSV line per sweep point, in sweep order."""
    diag_columns = [_DIAGNOSTIC_COLUMN[s] for s in spec.schemes]
    header = ",".join(["rho_db", "c_bits", *spec.schemes, *diag_columns])
    lines = [header]
    warm: dict[str, np.ndarray] = {}
    for snr_db, c1, c2 in sweep_points(spec):
        config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
        results = compute_point(config, spec.schemes, spec.settings, warm_start=warm)
        rates = [_cell(r.rate) for r in results]
        diags = [_cell(r.diagnostic) for r in results]
        lines.append(",".join([_cell(snr_db), _cell(c1), *rates, *diags]))
    return lines


def run_sweep(spec: SweepSpec) -> str:
    """Run the sweep and write its CSV; returns the output path."""
    lines = render_rows(spec)
    with open(spec.output_path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return spec.output_path
