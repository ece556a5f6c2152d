"""Command-line front end.

Three subcommands: `bound` evaluates the requested schemes at a single
operating point, `sweep` reproduces the preset curves (or a custom axis)
as CSV, and `verify` runs the oracle self-checks.  Flags override values
from an optional key=value config file; everything else falls back to
documented defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import InvalidArgument
from .numerics import SolverSettings
from .sweeps import (
    SCHEMES,
    SweepSpec,
    db_to_linear,
    fig2_spec,
    fig3_spec,
    linear_to_db,
    render_rows,
    run_sweep,
)
from .verify import verify

_FLOAT_KEYS = ("sigma2", "snr_db", "c1", "c2", "tol", "start", "stop", "step")
_INT_KEYS = ("seed", "samples", "quad_order")
_PRESETS = ("fig2", "fig3")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgument(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, file_values: dict[str, str], key: str):
    """Explicit flag first, then config file, then None."""
    explicit = getattr(args, key, None)
    if explicit is not None:
        return explicit
    if key not in file_values:
        return None
    raw = file_values[key]
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(float(raw))
        if key == "scheme":
            return raw.split(",")
        return raw
    except ValueError as error:
        raise InvalidArgument(f"config value {key}={raw!r}: {error}") from None


def _build_settings(get) -> SolverSettings:
    """Settings from the given values; an absent one keeps its default, and
    every given one, 0 included, is validated by SolverSettings."""
    given = {
        "abs_tol": get("tol"),
        "quad_order": get("quad_order"),
        "mc_samples": get("samples"),
        "seed": get("seed"),
    }
    return SolverSettings(**{key: value for key, value in given.items() if value is not None})


def _schemes(get) -> tuple[str, ...]:
    requested = get("scheme")
    if not requested:
        return SCHEMES
    flat: list[str] = []
    for entry in requested:
        flat.extend(part.strip() for part in entry.split(",") if part.strip())
    if flat == ["all"]:
        return SCHEMES
    for name in flat:
        if name not in SCHEMES:
            raise InvalidArgument(f"unknown scheme {name!r}; valid: {', '.join(SCHEMES)}")
    return tuple(flat)


def _noise_power(get, default_snr_db: float | None = None) -> tuple[float, float]:
    """Resolve (noise_power, snr_db) from --snr-db / --sigma2 / default."""
    snr_db = get("snr_db")
    if snr_db is not None:
        return 1.0 / db_to_linear(snr_db), snr_db
    sigma2 = get("sigma2")
    if sigma2 is not None:
        if sigma2 <= 0.0:
            raise InvalidArgument("sigma2 must be positive")
        return sigma2, linear_to_db(1.0 / sigma2)
    if default_snr_db is not None:
        return 1.0 / db_to_linear(default_snr_db), default_snr_db
    return 1.0, 0.0


def _cmd_bound(args: argparse.Namespace) -> int:
    file_values = _load_config_file(args.config) if args.config else {}
    get = lambda key: _resolve(args, file_values, key)  # noqa: E731
    settings = _build_settings(get)
    _, snr_db = _noise_power(get)
    c1 = get("c1")
    c1 = 10.0 if c1 is None else c1
    c2 = get("c2")
    c2 = c1 if c2 is None else c2
    spec = SweepSpec(
        mode="single",
        schemes=_schemes(get),
        settings=settings,
        output_path=get("out") or "bound.csv",
        fixed_c=c1,
        fixed_c2=c2,
        fixed_snr_db=snr_db,
    )
    if get("out"):
        run_sweep(spec)
    else:
        print("\n".join(render_rows(spec)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_values = _load_config_file(args.config) if args.config else {}
    get = lambda key: _resolve(args, file_values, key)  # noqa: E731
    settings = _build_settings(get)
    schemes_given = get("scheme")
    preset = get("preset")
    mode = get("sweep")
    if preset and mode:
        raise InvalidArgument("use either --preset or --sweep, not both")
    if mode in _PRESETS:
        preset, mode = mode, None
    if preset:
        if preset not in _PRESETS:
            raise InvalidArgument(f"unknown preset {preset!r}; valid: {', '.join(_PRESETS)}")
        base = fig2_spec if preset == "fig2" else fig3_spec
        spec = base(get("out") or f"{preset}.csv", settings)
        if schemes_given:
            spec = replace(spec, schemes=_schemes(get))
    elif mode == "snr":
        c1 = get("c1")
        c1 = 10.0 if c1 is None else c1
        c2 = get("c2")
        if c2 is not None and c2 != c1:
            raise InvalidArgument("snr sweeps use equal budgets; set --c1 only")
        start = get("start")
        stop = get("stop")
        step = get("step")
        spec = SweepSpec(
            mode="snr_sweep",
            schemes=_schemes(get),
            settings=settings,
            output_path=get("out") or "sweep.csv",
            snr_db_range=(
                0.0 if start is None else start,
                60.0 if stop is None else stop,
                2.0 if step is None else step,
            ),
            fixed_c=c1,
        )
    elif mode == "budget":
        _, snr_db = _noise_power(get, default_snr_db=40.0)
        start = get("start")
        stop = get("stop")
        step = get("step")
        spec = SweepSpec(
            mode="budget_sweep",
            schemes=_schemes(get),
            settings=settings,
            output_path=get("out") or "sweep.csv",
            budget_range=(
                0.0 if start is None else start,
                25.0 if stop is None else stop,
                1.0 if step is None else step,
            ),
            fixed_snr_db=snr_db,
        )
    elif mode is None:
        raise InvalidArgument("sweep needs --preset fig2|fig3 or --sweep snr|budget")
    else:
        raise InvalidArgument(f"unknown sweep mode {mode!r}; valid: snr, budget")
    path = run_sweep(spec)
    print(f"wrote {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    file_values = _load_config_file(args.config) if args.config else {}
    get = lambda key: _resolve(args, file_values, key)  # noqa: E731
    settings = _build_settings(get)
    return verify(settings, _break_determinism=bool(args.break_determinism))


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--sigma2", type=float, help="noise power (default 1.0)")
    parser.add_argument("--snr-db", type=float, dest="snr_db",
                        help="SNR in dB; takes precedence over --sigma2")
    parser.add_argument("--c1", type=float, help="budget of link 1 in bits (default 10)")
    parser.add_argument("--c2", type=float, help="budget of link 2 in bits (default: c1)")
    parser.add_argument("--scheme", action="append",
                        help=f"scheme to evaluate, repeatable or comma-separated; "
                             f"one of {', '.join(SCHEMES)} (default: all)")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int, help="RNG seed of the verify oracles (default 0)")
    parser.add_argument("--samples", type=int,
                        help="Monte Carlo draws of the verify oracles (default 1000000)")
    parser.add_argument("--quad-order", type=int, dest="quad_order",
                        help="base Gauss-Laguerre order of the verify quadrature "
                             "checks (default 64)")
    parser.add_argument("--tol", type=float, help="absolute solver tolerance (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-bottleneck",
        description="Bounds on the bottleneck rate of a two-relay fading diamond channel.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bound = commands.add_parser("bound", help="evaluate one operating point")
    _add_shared_flags(bound)
    bound.set_defaults(handler=_cmd_bound)

    sweep = commands.add_parser("sweep", help="write a CSV over an SNR or budget axis")
    _add_shared_flags(sweep)
    sweep.add_argument("--preset", help="named sweep: fig2 (rate vs SNR) or fig3 (rate vs C)")
    sweep.add_argument("--sweep", dest="sweep",
                       help="custom axis: snr or budget (presets also accepted)")
    sweep.add_argument("--start", type=float, help="axis start (default: preset value)")
    sweep.add_argument("--stop", type=float, help="axis stop (default: preset value)")
    sweep.add_argument("--step", type=float, help="axis step (default: preset value)")
    sweep.set_defaults(handler=_cmd_sweep)

    check = commands.add_parser("verify", help="run the oracle self-checks")
    _add_shared_flags(check)
    check.add_argument("--break-determinism", action="store_true",
                       dest="break_determinism", help=argparse.SUPPRESS)
    check.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidArgument as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
