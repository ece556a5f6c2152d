"""The package root's API, the command line's flags and README commands,
and the demo scripts that import past the root."""

import argparse
import dataclasses
import inspect
import re
import shlex
from pathlib import Path

import pytest

import diamond_bottleneck
from conftest import run_python
from diamond_bottleneck.cli import build_parser
from diamond_bottleneck.qci import qci_lower_bounds
from diamond_bottleneck.sweeps import SweepSpec, compute_point

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

LIBRARY_API = {
    # problem, settings, bounds and the fixed-fading rate
    "SystemConfig", "SnrPair", "SolverSettings",
    "upper_bound", "qci_lower_bound", "tci_best", "mmse_rate", "fixed_rate",
    # their result types
    "UpperBoundResult", "QciAllocation", "TciPoint", "MmseResult", "FixedRateResult",
    # error types
    "BracketError", "DegenerateBudget", "DomainError", "InvalidArgument", "NonConvergent",
}


def test_root_exports_library_api():
    assert set(diamond_bottleneck.__all__) == LIBRARY_API
    assert len(diamond_bottleneck.__all__) == len(LIBRARY_API)
    for name in LIBRARY_API:
        assert hasattr(diamond_bottleneck, name)


POINT_FLAGS = {"--config", "--tol", "--snr-db", "--c1", "--scheme", "--out"}
COMMAND_FLAGS = {
    "bound": POINT_FLAGS | {"--c2"},
    "sweep": POINT_FLAGS | {"--preset", "--start", "--stop", "--step"},
    "verify": {"--config", "--tol", "--seed"},
}


def test_settings_and_flags_are_only_those_read():
    # A new knob needs a reader and a deliberate edit here.
    fields = tuple(field.name for field in dataclasses.fields(diamond_bottleneck.SolverSettings))
    assert fields == ("abs_tol",)
    # every QCI ascent starts from the water-filling split: no start knob;
    # compute_point's warm_start accepts only None
    parameters = {
        function: tuple(inspect.signature(function).parameters)
        for function in (diamond_bottleneck.qci_lower_bound, qci_lower_bounds, compute_point)
    }
    assert parameters == {
        diamond_bottleneck.qci_lower_bound: ("J", "config", "settings"),
        qci_lower_bounds: ("cells", "config", "settings"),
        compute_point: ("config", "schemes", "settings", "warm_start"),
    }
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert set(commands) == set(COMMAND_FLAGS)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == COMMAND_FLAGS[name], name
    assert [len(COMMAND_FLAGS[name]) for name in ("bound", "sweep", "verify")] == [7, 10, 3]
    assert [field.name for field in dataclasses.fields(SweepSpec)] == [
        "mode", "schemes", "settings", "output_path",
        "snr_db_range", "budget_range", "fixed_c", "fixed_snr_db",
    ]


def readme_commands() -> list[list[str]]:
    """The arguments of each `diamond-bottleneck` command in README.md's sh
    blocks, with continuation lines joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["diamond-bottleneck"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    # parsed only, nothing is evaluated: a flag the parser lacks exits 2
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"bound", "sweep", "verify"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: diamond-bottleneck {shlex.join(argv)}")


def test_cli_leaves_verify_unimported():
    # bound and sweep should not pay for importing the oracle checks
    result = run_python(
        ["-c", "import sys, diamond_bottleneck.cli; print('diamond_bottleneck.verify' in sys.modules)"]
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # demo_rate_curves writes its CSV files into the directory it is given
    result = run_python([str(demo), str(tmp_path)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout
