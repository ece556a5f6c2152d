"""Shared fixtures: the command line in process and in a child interpreter,
CLI sweep runs (used by several acceptance criteria), and CSV parsing
helpers."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

import diamond_bottleneck
from diamond_bottleneck.cli import main

# Property tests draw the same examples on every run, so the gate stays
# deterministic; no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# The directory that holds the package this test process imported, whether
# that is the checkout's src/ or an install.  A relative PYTHONPATH entry
# (such as PYTHONPATH=src) would resolve against the child's temporary
# working directory, so the child gets this absolute path first.
PACKAGE_ROOT = str(Path(diamond_bottleneck.__file__).resolve().parent.parent)


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_python(args: list[str], cwd=None) -> subprocess.CompletedProcess:
    """Run a child interpreter with `args` in `cwd`, importing the package
    that this test process imported."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, inherited])))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def run_cli(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run the command-line front end of the imported package in a child
    process in `cwd`."""
    return run_python(["-m", "diamond_bottleneck", *args], cwd)


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    """`cli(argv)` runs the command line in this process, in tmp_path, and
    returns (returncode, stdout, stderr) of that run; argparse's exit becomes
    the return code."""
    monkeypatch.chdir(tmp_path)

    def run(argv: list[str]) -> CliRun:
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        return CliRun(code, *capsys.readouterr())

    return run


def parse_csv(data: bytes) -> list[dict[str, float | None]]:
    """Rows as {column: float-or-None}; empty cells become None."""
    text = data.decode("utf-8")
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        rows.append({
            key: (float(value) if value != "" else None)
            for key, value in record.items()
        })
    return rows


def column(table: list[dict], name: str) -> list[float | None]:
    return [row[name] for row in table]


@pytest.fixture(scope="session")
def fig2_runs(tmp_path_factory):
    """Two independent executions of the fig2 preset command in fresh
    working directories; returns (first bytes, second bytes, elapsed)."""
    outputs = []
    elapsed = 0.0
    for name in ("fig2_run_a", "fig2_run_b"):
        cwd = tmp_path_factory.mktemp(name)
        start = time.time()
        result = run_cli(["sweep", "--preset", "fig2"], cwd)
        elapsed += time.time() - start
        assert result.returncode == 0, result.stderr
        # pytest's warning filter does not reach the child: nothing on stderr
        assert result.stderr == "", result.stderr
        outputs.append((cwd / "fig2.csv").read_bytes())
    return outputs[0], outputs[1], elapsed


@pytest.fixture(scope="session")
def fig3_run(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("fig3_run")
    start = time.time()
    result = run_cli(["sweep", "--preset", "fig3"], cwd)
    elapsed = time.time() - start
    assert result.returncode == 0, result.stderr
    assert result.stderr == "", result.stderr
    return (cwd / "fig3.csv").read_bytes(), elapsed


@pytest.fixture(scope="session")
def fig2_table(fig2_runs):
    return parse_csv(fig2_runs[0])


@pytest.fixture(scope="session")
def fig3_table(fig3_run):
    return parse_csv(fig3_run[0])
