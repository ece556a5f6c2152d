"""Command-line front end.

Three subcommands: `bound` evaluates the requested schemes at a single
operating point, `sweep` reproduces the preset curves (or a custom axis)
as CSV, and `verify` runs the oracle self-checks.  Each accepts only the
flags it reads.  Flags override values from an optional key=value config
file, whose keys are checked like the flags; everything else falls back to
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

_PRESETS = ("fig2", "fig3")

# Every flag by its key, the flag's name with '_' for '-'.  A config-file
# value goes through the same type as its flag.
_FLAGS = {
    "config": dict(help="key=value config file; flags override it"),
    "tol": dict(type=float, help="absolute solver tolerance (default 1e-9)"),
    "sigma2": dict(type=float, help="noise power (default 1.0)"),
    "snr_db": dict(type=float, help="SNR in dB; give this or --sigma2, not both"),
    "c1": dict(type=float, help="budget of link 1 in bits (default 10)"),
    "c2": dict(type=float, help="budget of link 2 in bits (default: c1)"),
    "scheme": dict(action="append",
                   help=f"scheme to evaluate, repeatable or comma-separated; "
                        f"one of {', '.join(SCHEMES)} (default: all)"),
    "out": dict(help="output CSV path"),
    "preset": dict(help="named sweep: fig2 (rate vs SNR) or fig3 (rate vs C)"),
    "sweep": dict(help="custom axis: snr or budget (presets also accepted)"),
    "start": dict(type=float, help="axis start (default 0)"),
    "stop": dict(type=float, help="axis stop (default 60 dB or 25 bits)"),
    "step": dict(type=float, help="axis step (default 2 dB or 1 bit)"),
    "seed": dict(type=int, help="RNG seed of the Monte Carlo checks (default 0)"),
    "samples": dict(type=int, help="Monte Carlo draws per check (default 1000000)"),
    "quad_order": dict(type=int,
                       help="base Gauss-Laguerre order of the quadrature checks (default 64)"),
}
_POINT_FLAGS = ("config", "tol", "sigma2", "snr_db", "c1", "c2", "scheme", "out")

# The flags each kind of sweep does not read, and so rejects.
_UNREAD_BY_SWEEP = {
    "preset": ("sigma2", "snr_db", "c1", "c2", "start", "stop", "step"),
    "snr": ("sigma2", "snr_db"),
    "budget": ("c1", "c2"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: str, command: str) -> dict:
    """The file's key=value lines, each key a flag of the command and each
    value converted as that flag's would be."""
    keys = [key for key in _COMMANDS[command][2] if key != "config"]
    values = {}
    first_seen = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise InvalidArgument(f"{where}: expected key=value, got {raw.strip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if key not in keys:
                raise InvalidArgument(
                    f"{where}: {key!r} is not a {command} key; valid: {', '.join(keys)}"
                )
            if key in first_seen:
                raise InvalidArgument(f"{key} is set twice, at {first_seen[key]} and {where}")
            first_seen[key] = where
            spec = _FLAGS[key]
            if spec.get("action") == "append":
                values[key] = [value]
                continue
            convert = spec.get("type", str)
            try:
                values[key] = convert(value)
            except ValueError:
                raise InvalidArgument(
                    f"{where}: {key} = {value!r} is not a valid {convert.__name__}"
                ) from None
    return values


def _settings(values: dict) -> SolverSettings:
    """Solver settings with the given tolerance, validated by SolverSettings
    (0 included); without one, the defaults."""
    return SolverSettings(abs_tol=values["tol"]) if "tol" in values else SolverSettings()


def _schemes(values: dict) -> tuple[str, ...]:
    requested = values.get("scheme")
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


def _noise_power(values: dict, default_snr_db: float | None = None) -> tuple[float, float]:
    """Resolve (noise_power, snr_db) from --snr-db / --sigma2 / default."""
    if "snr_db" in values and "sigma2" in values:
        raise InvalidArgument("--snr-db and --sigma2 both set the noise power; give one")
    snr_db = values.get("snr_db")
    if snr_db is not None:
        return 1.0 / db_to_linear(snr_db), snr_db
    sigma2 = values.get("sigma2")
    if sigma2 is not None:
        if sigma2 <= 0.0:
            raise InvalidArgument("sigma2 must be positive")
        return sigma2, linear_to_db(1.0 / sigma2)
    if default_snr_db is not None:
        return 1.0 / db_to_linear(default_snr_db), default_snr_db
    return 1.0, 0.0


def _cmd_bound(values: dict) -> int:
    _, snr_db = _noise_power(values)
    c1 = values.get("c1", 10.0)
    out = values.get("out")
    spec = SweepSpec(
        mode="single",
        schemes=_schemes(values),
        settings=_settings(values),
        output_path=out or "bound.csv",
        fixed_c=c1,
        fixed_c2=values.get("c2", c1),
        fixed_snr_db=snr_db,
    )
    if out:
        run_sweep(spec)
    else:
        print("\n".join(render_rows(spec)))
    return 0


def _cmd_sweep(values: dict) -> int:
    settings = _settings(values)
    preset = values.get("preset")
    mode = values.get("sweep")
    if preset and mode:
        raise InvalidArgument("use either --preset or --sweep, not both")
    if mode in _PRESETS:
        preset, mode = mode, None
    if preset:
        if preset not in _PRESETS:
            raise InvalidArgument(f"unknown preset {preset!r}; valid: {', '.join(_PRESETS)}")
        kind, label = "preset", f"preset {preset}"
    elif mode in ("snr", "budget"):
        kind, label = mode, f"--sweep {mode}"
    elif mode is None:
        raise InvalidArgument("sweep needs --preset fig2|fig3 or --sweep snr|budget")
    else:
        raise InvalidArgument(f"unknown sweep mode {mode!r}; valid: snr, budget")
    unread = [_flag(key) for key in _UNREAD_BY_SWEEP[kind] if key in values]
    if unread:
        raise InvalidArgument(f"{label} does not read {', '.join(unread)}")

    out = values.get("out")
    start = values.get("start", 0.0)
    if preset:
        base = fig2_spec if preset == "fig2" else fig3_spec
        spec = base(out or f"{preset}.csv", settings)
        if values.get("scheme"):
            spec = replace(spec, schemes=_schemes(values))
    elif mode == "snr":
        c1 = values.get("c1", 10.0)
        if values.get("c2", c1) != c1:
            raise InvalidArgument("snr sweeps use equal budgets; set --c1 only")
        spec = SweepSpec(
            mode="snr_sweep",
            schemes=_schemes(values),
            settings=settings,
            output_path=out or "sweep.csv",
            snr_db_range=(start, values.get("stop", 60.0), values.get("step", 2.0)),
            fixed_c=c1,
        )
    else:
        _, snr_db = _noise_power(values, default_snr_db=40.0)
        spec = SweepSpec(
            mode="budget_sweep",
            schemes=_schemes(values),
            settings=settings,
            output_path=out or "sweep.csv",
            budget_range=(start, values.get("stop", 25.0), values.get("step", 1.0)),
            fixed_snr_db=snr_db,
        )
    path = run_sweep(spec)
    print(f"wrote {path}")
    return 0


def _cmd_verify(values: dict) -> int:
    settings = _settings(values)
    from .verify import verify  # imported here: bound and sweep never need it

    oracle = {key: values[key] for key in ("seed", "samples", "quad_order") if key in values}
    return verify(settings, **oracle)


_COMMANDS = {
    "bound": ("evaluate one operating point", _cmd_bound, _POINT_FLAGS),
    "sweep": (
        "write a CSV over an SNR or budget axis",
        _cmd_sweep,
        _POINT_FLAGS + ("preset", "sweep", "start", "stop", "step"),
    ),
    "verify": (
        "run the oracle self-checks",
        _cmd_verify,
        ("config", "tol", "seed", "samples", "quad_order"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-bottleneck",
        description="Bounds on the bottleneck rate of a two-relay fading diamond channel.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, keys) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        for key in keys:
            sub.add_argument(_flag(key), dest=key, **_FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, keys = _COMMANDS[args.command]
    try:
        values = _load_config_file(args.config, args.command) if args.config else {}
        values.update(
            (key, getattr(args, key)) for key in keys if getattr(args, key) is not None
        )
        return handler(values)
    except InvalidArgument as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
