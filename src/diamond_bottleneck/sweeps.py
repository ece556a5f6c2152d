"""Parameter sweeps and CSV emission.

A sweep walks one axis (SNR in dB, or per-relay budget in bits), evaluates
the requested bounds at every point, and writes one CSV row per point:
axis columns first, then one rate column per scheme, then one diagnostic
column per scheme.  Failed schemes, including those that return a
non-finite rate, leave their cells empty and report on stderr; the other
columns of the row are unaffected.  Every row, of a sweep (run_sweep) or
of `bound`'s one point, comes from render_points and from its own point
alone, so a sweep row equals the row `bound` prints at that point.  No
scheme draws random numbers, so every run of a spec gives a byte-identical
file.  At a point every scheme is one participant of one qci._lock_step
call (compute_point); ub and mmse finish before its first kernel call.

The two preset sweeps pin the operating points of the reference curves:
rate versus SNR at C = 10 bits per relay, and rate versus C at 40 dB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator

from .channel import SystemConfig
from .errors import DomainError, InvalidArgument
from .mmse import mmse_rate
from .numerics import SolverSettings
# bench/tracer.py times each scheme at the sweeps.<function> it calls, and
# reports a missing one, so _participant looks upper_bound and mmse_rate up
# here when it runs; qci_lower_bound and tci_best are bound for that lookup
# alone, since QCI's ascents and TCI's threshold grid run in _lock_step.
from .qci import _ascent, _lock_step, qci_lower_bound  # noqa: F401
from .tci import _best_round, tci_best  # noqa: F401
from .upper_bound import upper_bound

# Every scheme in column order: its diagnostic column and, for a quantized
# scheme, its cell count J.
_SCHEME_TABLE = {
    "ub": ("ub_residual", None),
    "qci_J2": ("qci_J2_iters", 2),
    "qci_J4": ("qci_J4_iters", 4),
    "qci_J8": ("qci_J8_iters", 8),
    "tci": ("tci_threshold", None),
    "mmse": ("mmse_halfwidth", None),
}
SCHEMES = tuple(_SCHEME_TABLE)

_MODES = ("snr_sweep", "budget_sweep")

# The most points a sweep axis may have.  The axis is listed before its first
# point is evaluated, and a point takes milliseconds (fig2 has 31), so a longer
# axis is a mistyped step, not a curve: this many already take minutes.
_MAX_POINTS = 100_000


# The input box of bound and sweep, ends included: SNR in dB, each budget in
# bits.  Every invariant is tested on it (tests/test_contracts.py); outside
# it some results are wrong or missing.  The library takes a wider range.
SNR_DB_BOX = (-60.0, 150.0)
BUDGET_BOX = (0.0, 60.0)


def db_to_linear(db: float) -> float:
    """10^(dB/10)."""
    return 10.0 ** (db / 10.0)


def check_in_box(snr_db: float, c1: float, c2: float) -> None:
    """Raise InvalidArgument unless the point lies in the input box; NaN does not."""
    for name, value, unit in (("SNR", snr_db, "dB"), ("c1", c1, "bits"), ("c2", c2, "bits")):
        low, high = SNR_DB_BOX if unit == "dB" else BUDGET_BOX
        if not low <= value <= high:
            raise InvalidArgument(f"{name} {value:g} {unit} is outside [{low:g}, {high:g}] {unit}")


def check_schemes(schemes: tuple[str, ...]) -> None:
    """Raise InvalidArgument unless there are schemes, each known and given once."""
    if not schemes:
        raise InvalidArgument("at least one scheme is required")
    for k, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise InvalidArgument(f"unknown scheme {scheme!r}; valid: {', '.join(SCHEMES)}")
        if scheme in schemes[:k]:
            raise InvalidArgument(f"scheme {scheme!r} is given twice")


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
        return {_SCHEME_TABLE[self.scheme][0]: self.diagnostic}


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

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise InvalidArgument(f"unknown sweep mode {self.mode!r}")
        check_schemes(self.schemes)
        if self.mode == "snr_sweep":
            self._check_range(self.snr_db_range, "snr_db_range")
            self._need(self.fixed_c, "fixed_c")
        else:
            self._check_range(self.budget_range, "budget_range")
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
        if not _steps(rng) < _MAX_POINTS:  # an infinite count too
            raise InvalidArgument(f"{name} has more than {_MAX_POINTS} points; raise its step")


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


def _steps(rng: tuple[float, float, float]) -> float:
    """Steps from start to stop, with slack for a stop that division rounds down."""
    start, stop, step = rng
    return (stop - start) / step + 1e-9


def _axis(rng: tuple[float, float, float]) -> list[float]:
    """start + k * step up to stop, each clamped to stop: _steps' slack may pass it."""
    start, stop, step = rng
    return [min(start + k * step, stop) for k in range(math.floor(_steps(rng)) + 1)]


def sweep_points(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """(snr_db, c1, c2) triples of the sweep, in row order."""
    if spec.mode == "snr_sweep":
        return [(db, spec.fixed_c, spec.fixed_c) for db in _axis(spec.snr_db_range)]
    return [(spec.fixed_snr_db, c, c) for c in _axis(spec.budget_range)]


def compute_point(
    config: SystemConfig,
    schemes: Iterable[str],
    settings: SolverSettings,
    warm_start: None = None,
) -> list[BoundResult]:
    """Evaluate the requested schemes at one operating point.

    One qci._lock_step call runs one participant per scheme, in the order
    given (_participant): TCI's lanes ride the ascents' first kernel call.
    A failure fails only its own cell, with its warning in scheme order.
    Every result depends on this point alone.

    warm_start is a leftover: the benchmark's workloads still pass
    warm_start=None by keyword.  Any other value raises InvalidArgument,
    so no input is silently dropped.  It goes when the benchmark reads
    counters kept in the package (ROADMAP.md, "Instrumentation inside the
    package").
    """
    if warm_start is not None:
        raise InvalidArgument("compute_point has no warm start; pass warm_start=None or omit it")
    schemes = tuple(schemes)
    outcomes = _lock_step([_participant(scheme, config, settings) for scheme in schemes])
    results = []
    for scheme, outcome in zip(schemes, outcomes):
        if isinstance(outcome, Exception):
            print(
                f"warning: scheme {scheme} failed at noise_power={config.noise_power:g}, "
                f"c=({config.c1:g}, {config.c2:g}): {outcome}",
                file=sys.stderr,
            )
            outcome = (None, None)
        results.append(BoundResult(scheme, *outcome))
    return results


def _participant(
    scheme: str, config: SystemConfig, settings: SolverSettings,
) -> Generator[object, tuple, tuple[float, float]]:
    """One scheme at one point as a qci._lock_step participant: (rate,
    diagnostic).  ub and mmse return before their first yield; an unknown
    scheme raises InvalidArgument, and a non-finite rate DomainError."""
    if scheme == "ub":
        bound = upper_bound(config, settings)
        rate, diagnostic = bound.rate, bound.constraint_residual
    elif scheme == "mmse":
        outcome = mmse_rate(config, settings)
        rate, diagnostic = outcome.rate, outcome.error_estimate
    elif scheme == "tci":
        point = yield from _best_round(config)
        rate, diagnostic = point.rate, point.threshold
    elif scheme in _SCHEME_TABLE:
        allocation = yield from _ascent(_SCHEME_TABLE[scheme][1], config, settings)
        rate, diagnostic = allocation.lower_bound, allocation.iterations
    else:
        raise InvalidArgument(f"unknown scheme {scheme!r}")
    if not math.isfinite(rate):
        raise DomainError(f"non-finite rate {rate}")
    return rate, diagnostic


def _cell(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".9g")


def render_points(
    points: list[tuple[float, float, float]], schemes: tuple[str, ...], settings: SolverSettings
) -> Iterator[str]:
    """Header plus one CSV line per (snr_db, c1, c2) point, each from its point
    alone; the schemes are as check_schemes accepts them.  Every point is
    checked against the input box in this call; the lines are computed as
    they are read, so a caller opens its output between the two.  The
    c_bits column is c1 alone: a row does not show c2."""
    for point in points:
        check_in_box(*point)
    return _lines(points, schemes, settings)


def _lines(points, schemes: tuple[str, ...], settings: SolverSettings) -> Iterator[str]:
    diag_columns = [_SCHEME_TABLE[s][0] for s in schemes]
    yield ",".join(["rho_db", "c_bits", *schemes, *diag_columns])
    for snr_db, c1, c2 in points:
        config = SystemConfig(noise_power=1.0 / db_to_linear(snr_db), c1=c1, c2=c2)
        results = compute_point(config, schemes, settings)
        rates = [_cell(r.rate) for r in results]
        diags = [_cell(r.diagnostic) for r in results]
        yield ",".join([_cell(snr_db), _cell(c1), *rates, *diags])


def write_csv(path: str, lines: Iterable[str]) -> str:
    """Open the file, then write the lines as they come, each ended by a
    newline; returns the path.  Given render_points' lines, an unwritable
    path fails before the first point is evaluated."""
    with open(path, "w", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path


def run_sweep(spec: SweepSpec) -> str:
    """Check the sweep's points, open its CSV, then evaluate and write them
    row by row; returns the output path."""
    lines = render_points(sweep_points(spec), spec.schemes, spec.settings)
    return write_csv(spec.output_path, lines)
