"""Shared fixtures: CLI sweep runs (used by several acceptance criteria) and
CSV parsing helpers."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

import diamond_bottleneck

# Property tests draw the same examples on every run, so the gate stays
# deterministic; no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

CLI = [sys.executable, "-m", "diamond_bottleneck"]

# The directory that holds the package this test process imported, whether
# that is the checkout's src/ or an install.  A relative PYTHONPATH entry
# (such as PYTHONPATH=src) would resolve against the child's temporary
# working directory, so the child gets this absolute path first.
PACKAGE_ROOT = str(Path(diamond_bottleneck.__file__).resolve().parent.parent)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    return env


def run_cli(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run the command-line front end of the imported package in `cwd`."""
    return subprocess.run(
        CLI + args, cwd=cwd, env=_child_env(), capture_output=True, text=True,
        timeout=600,
    )


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
        result = run_cli(["sweep", "--preset", "fig2", "--seed", "7"], cwd)
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
    result = run_cli(["sweep", "--preset", "fig3", "--seed", "7"], cwd)
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
