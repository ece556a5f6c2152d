"""The package root's API, the command line's flags and README commands,
and the demo scripts that import past the root."""

import argparse
import ast
import dataclasses
import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest

import diamond_bottleneck
from conftest import run_python
from diamond_bottleneck.cli import build_parser
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


POINT_FLAGS = {"--tol", "--snr-db", "--c1", "--scheme", "--out"}
COMMAND_FLAGS = {
    "bound": POINT_FLAGS | {"--c2"},
    "sweep": POINT_FLAGS | {"--preset", "--start", "--stop", "--step"},
    "verify": {"--tol", "--seed"},
}


def test_settings_and_flags_are_only_those_read():
    # A new knob needs a reader and a deliberate edit here.
    fields = tuple(field.name for field in dataclasses.fields(diamond_bottleneck.SolverSettings))
    assert fields == ("abs_tol",)
    # every QCI ascent starts from the water-filling split: no start knob;
    # compute_point's warm_start accepts only None
    parameters = {
        function: tuple(inspect.signature(function).parameters)
        for function in (diamond_bottleneck.qci_lower_bound, compute_point)
    }
    assert parameters == {
        diamond_bottleneck.qci_lower_bound: ("J", "config", "settings"),
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
    assert [len(COMMAND_FLAGS[name]) for name in ("bound", "sweep", "verify")] == [6, 9, 2]
    assert [field.name for field in dataclasses.fields(SweepSpec)] == [
        "mode", "schemes", "settings", "output_path",
        "snr_db_range", "budget_range", "fixed_c", "fixed_snr_db",
    ]


# Flags that the subcommand given does not declare, each argv with the
# unrecognized tail that argparse must print: --snr-db is the one noise
# flag (a noise power X is --snr-db 10*log10(1/X)), --preset the one sweep
# selector, no sweep reads a second budget, verify draws no fading gains
# and its quadrature order is fixed, and no subcommand takes another's flag.
UNDECLARED = {
    "bound --sigma2": (["bound", "--sigma2", "0.01", "--scheme", "ub"], "--sigma2 0.01"),
    "bound --sigma2 with --snr-db": (
        ["bound", "--sigma2", "0.01", "--snr-db", "10", "--scheme", "ub"], "--sigma2 0.01"),
    "sweep fig3 --sigma2 with --snr-db": (
        ["sweep", "--preset", "fig3", "--snr-db", "10", "--sigma2", "0.01", "--scheme", "ub"],
        "--sigma2 0.01"),
    "sweep --sigma2": (
        ["sweep", "--sigma2", "0.01", "--scheme", "ub", "--out", "o.csv"], "--sigma2 0.01"),
    "sweep --sweep fig2": (
        ["sweep", "--sweep", "fig2", "--scheme", "ub", "--out", "o.csv"], "--sweep fig2"),
    "sweep --sweep snr": (
        ["sweep", "--sweep", "snr", "--scheme", "ub", "--out", "o.csv"], "--sweep snr"),
    "sweep fig2 --c2": (
        ["sweep", "--preset", "fig2", "--c2", "10", "--scheme", "ub", "--out", "o.csv"],
        "--c2 10"),
    "sweep fig2 --samples": (["sweep", "--preset", "fig2", "--samples", "10"], "--samples 10"),
    "bound --seed": (["bound", "--seed", "3"], "--seed 3"),
    "verify --c1": (["verify", "--c1", "5"], "--c1 5"),
    "verify --scheme --out": (["verify", "--scheme", "ub", "--out", "z.csv"], "--scheme ub --out z.csv"),
    "verify --samples 10": (["verify", "--samples", "10"], "--samples 10"),
    "verify --samples 0": (["verify", "--samples", "0"], "--samples 0"),
    "verify --quad-order 64": (["verify", "--quad-order", "64"], "--quad-order 64"),
    "verify --quad-order 0": (["verify", "--quad-order", "0"], "--quad-order 0"),
}


@pytest.mark.parametrize(
    "argv, tail",
    [
        # the longest prefix of each flag, which argparse would otherwise
        # take for it (bound's --c too, which it would call ambiguous)
        *(pytest.param([command, flag[:-1], "1"], f"{flag[:-1]} 1", id=f"{command} {flag} prefix")
          for command, flags in COMMAND_FLAGS.items() for flag in sorted(flags)),
        # no subcommand reads a config file, even one that exists
        *(pytest.param([command, "--config", "run.cfg"], "--config run.cfg", id=f"{command} --config")
          for command in COMMAND_FLAGS),
        *(pytest.param(argv, tail, id=name) for name, (argv, tail) in UNDECLARED.items()),
    ],
)
def test_undeclared_spelling_exits_2(cli, tmp_path, argv, tail):
    (tmp_path / "run.cfg").write_text("tol = 1e-6\n")
    result = cli(argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: unrecognized arguments: {tail}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


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


def test_third_party_imports_are_the_declared_dependencies():
    # every import statement of the package, at module level or inside a
    # function, verify's included: outside the standard library it may name
    # only what pyproject.toml declares, and that is NumPy alone
    tomllib = pytest.importorskip("tomllib")
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        for requirement in tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    }
    imported = set()
    for path in (ROOT / "src" / "diamond_bottleneck").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - sys.stdlib_module_names - {"diamond_bottleneck"}
    assert third_party == declared == {"numpy"}


# Imported and never read: bench/tracer.py wraps each of these module
# attributes by name (its BOUNDARIES) and reports one that is missing.
TRACER_ONLY_IMPORTS = {
    ("sweeps", "qci_lower_bound"), ("sweeps", "tci_best"), ("tci", "_maxmin_batch"),
    ("mmse", "sample_gains"), ("mmse", "integrate_semiinfinite"),
}


def test_every_imported_name_is_read():
    # every name a module imports, at module level or inside a function, is
    # read in that module, annotations included; the tracer's names are the
    # only exceptions, and they stay unread.  __init__.py re-exports.
    unread = set()
    for path in (ROOT / "src" / "diamond_bottleneck").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unread.update((path.stem, name) for name in bound - read)
    assert unread == TRACER_ONLY_IMPORTS
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    boundaries = next(ast.literal_eval(node.value) for node in tracer.body
                      if isinstance(node, ast.Assign)
                      and getattr(node.targets[0], "id", None) == "BOUNDARIES")
    assert TRACER_ONLY_IMPORTS <= {(module, attribute) for module, attribute, _ in boundaries}


def test_cli_leaves_verify_unimported():
    # bound and sweep should not pay for importing the oracle checks
    result = run_python(
        ["-c", "import sys, diamond_bottleneck.cli; print('diamond_bottleneck.verify' in sys.modules)"]
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


PROPERTY_FAILS_THEN_PASSES = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(n):
    assert n < 0

def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_run(pytestconfig, tmp_path):
    # reporting a failing @given example imports libcst, which warns; with
    # every warning an error, that warning used to end the session
    (tmp_path / "test_two.py").write_text(PROPERTY_FAILS_THEN_PASSES)
    result = run_python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pytestconfig.inipath),
         "--rootdir", str(tmp_path), "test_two.py"],
        tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # demo_rate_curves writes its CSV files into the directory it is given
    result = run_python([str(demo), str(tmp_path)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout
