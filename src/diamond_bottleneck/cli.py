"""Command-line front end.

Three subcommands: `bound` evaluates the requested schemes at a single
operating point and `sweep` along a preset's curve, both through one CSV
row function; `verify` runs the oracle self-checks.  Each input has one
flag (the noise only `--snr-db`), spelt out in full, and each subcommand
and preset accepts only the flags it reads.  Inputs that no flag gives
fall back to `bound`'s defaults or the preset's.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import InvalidArgument
from .numerics import SolverSettings
from .sweeps import (
    SCHEMES,
    check_schemes,
    fig2_spec,
    fig3_spec,
    render_points,
    run_sweep,
    write_csv,
)

# Each preset with the SweepSpec field of its axis, which --start, --stop and
# --step move, and its fixed input: the SweepSpec field and the flag's key.
# A preset rejects the other preset's fixed input.
_PRESETS = {
    "fig2": (fig2_spec, "snr_db_range", "fixed_c", "c1"),
    "fig3": (fig3_spec, "budget_range", "fixed_snr_db", "snr_db"),
}
_AXIS_KEYS = ("start", "stop", "step")
# bound's operating point where its flags give none.
_BOUND_DEFAULTS = {"snr_db": 0.0, "c1": 10.0}


def path(text: str) -> str:
    """A file path from a flag.  An empty one is an error, never a request
    for the default; argparse's message names this type ("invalid path
    value")."""
    if not text:
        raise InvalidArgument("empty path")
    return text


# Every flag by its key, the flag's name with '_' for '-'.
_FLAGS = {
    "tol": dict(type=float,
                help=f"absolute solver tolerance (default {SolverSettings().abs_tol:g})"),
    "snr_db": dict(type=float, help=f"SNR in dB (default: {_BOUND_DEFAULTS['snr_db']:g} "
                                    "for bound, the preset's for --preset fig3)"),
    "c1": dict(type=float, help=f"budget of link 1 in bits (default: {_BOUND_DEFAULTS['c1']:g} "
                                "for bound, the preset's for --preset fig2)"),
    "c2": dict(type=float, help="budget of link 2 in bits (default: c1)"),
    "scheme": dict(action="append",
                   help=f"scheme to evaluate, repeatable or comma-separated; "
                        f"one of {', '.join(SCHEMES)} (default: all)"),
    "out": dict(type=path, help="output CSV path"),
    "preset": dict(help="fig2 (rate vs SNR, at --c1) or fig3 (rate vs C, at --snr-db)"),
    "start": dict(type=float, help="axis start (default: the preset's)"),
    "stop": dict(type=float, help="axis stop (default: the preset's)"),
    "step": dict(type=float, help="axis step (default: the preset's)"),
    "seed": dict(type=int, help="RNG seed of the checks' random instances (default 0)"),
}
_BOUND_FLAGS = ("tol", "snr_db", "c1", "c2", "scheme", "out")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _settings(values: dict) -> SolverSettings:
    """Solver settings with the given tolerance, validated by SolverSettings
    (0 included); without one, the defaults."""
    return SolverSettings(abs_tol=values["tol"]) if "tol" in values else SolverSettings()


def _schemes(values: dict) -> tuple[str, ...]:
    entries = values.get("scheme") or ["all"]
    flat = tuple(part.strip() for entry in entries for part in entry.split(",") if part.strip())
    if flat == ("all",):
        return SCHEMES
    check_schemes(flat)
    return flat


def _cmd_bound(values: dict) -> int:
    schemes = _schemes(values)
    settings = _settings(values)
    c1 = values.get("c1", _BOUND_DEFAULTS["c1"])
    point = (values.get("snr_db", _BOUND_DEFAULTS["snr_db"]), c1, values.get("c2", c1))
    lines = render_points([point], schemes, settings)
    if "out" in values:
        write_csv(values["out"], lines)
    else:
        print("\n".join(lines))
    return 0


def _cmd_sweep(values: dict) -> int:
    settings = _settings(values)
    preset = values.get("preset")
    if preset not in _PRESETS:
        given = f", not {preset!r}" if preset else ""
        raise InvalidArgument(f"sweep needs --preset {' or '.join(_PRESETS)}{given}")
    make_spec, axis, fixed, fixed_key = _PRESETS[preset]
    unread = [_flag(key) for *_, key in _PRESETS.values() if key != fixed_key and key in values]
    if unread:
        raise InvalidArgument(f"preset {preset} does not read {', '.join(unread)}")

    # A moved preset writes sweep.csv, so it never overwrites the preset's file.
    moved = any(key in values for key in (*_AXIS_KEYS, fixed_key))
    spec = make_spec(values.get("out", "sweep.csv" if moved else f"{preset}.csv"), settings)
    custom = {
        axis: tuple(values.get(key, v) for key, v in zip(_AXIS_KEYS, getattr(spec, axis))),
        fixed: values.get(fixed_key, getattr(spec, fixed)),
    }
    path = run_sweep(replace(spec, schemes=_schemes(values), **custom))
    print(f"wrote {path}")
    return 0


def _cmd_verify(values: dict) -> int:
    settings = _settings(values)
    from .verify import verify  # imported here: bound and sweep never need it

    return verify(settings, seed=values.get("seed", 0))


_COMMANDS = {
    "bound": ("evaluate one operating point", _cmd_bound, _BOUND_FLAGS),
    "sweep": (
        "write a preset's CSV over its SNR or budget axis",
        _cmd_sweep,
        ("tol", "snr_db", "c1", "scheme", "out", "preset", *_AXIS_KEYS),
    ),
    "verify": (
        "run the oracle self-checks",
        _cmd_verify,
        ("tol", "seed"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-bottleneck",
        description="Bounds on the bottleneck rate of a two-relay fading diamond channel.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, keys) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary, allow_abbrev=False)
        for key in keys:
            sub.add_argument(_flag(key), dest=key, **_FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, keys = _COMMANDS[args.command]
    values = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    try:
        return handler(values)
    except InvalidArgument as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
