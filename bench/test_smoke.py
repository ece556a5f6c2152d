"""Smoke test of the benchmark on a two-point axis per workload.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins the BLAS thread variables)
import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _run_two_points(monkeypatch, capsys, tmp_path, workload: str, trace: int):
    """run.main on the first two points of `workload`: (stdout lines, stderr)."""
    build = workloads.build
    monkeypatch.setattr(workloads, "build",
                        lambda name, seed, out_dir: build(name, seed, out_dir, max_points=2))
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out.splitlines(), err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed(workload, trace, monkeypatch, capsys, tmp_path):
    lines, err = _run_two_points(monkeypatch, capsys, tmp_path, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, err
    assert result["failed"] == 0
    assert result["attempted"] == 2 * 6 * (2 if trace else 1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in printed
    assert "fail_ratio" in printed
    assert trace or "point_p50_s" in printed


@pytest.mark.parametrize("retired", [False, True])
def test_missing_boundary_is_reported(retired, monkeypatch, capsys, tmp_path):
    gone = ("qci", "_renamed_kernel", "numerics.maxmin")
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (gone,))
    if retired:
        monkeypatch.setattr(tracing, "RETIRABLE", ("qci._renamed_kernel",))
    lines, err = _run_two_points(monkeypatch, capsys, tmp_path, "fig2", 1)
    label = "retired" if retired else "unexpected"
    assert f"missing_boundary qci._renamed_kernel ({label})" in lines
    assert json.loads(lines[-1])["correct"] is retired, err
    record = json.loads((tmp_path / "result-fig2-seed3-trace1.json").read_text())
    assert record["missing_boundaries"] == ["qci._renamed_kernel"]


def _two_point_pass(name: str):
    workload = workloads.build(name, 1, str(run.OUT), max_points=2)
    timer = tracing.PointTimer()
    with tracing.installed(timer, None):
        workload.run_pass()
    return workload, [{"timer": timer}]


@pytest.mark.parametrize(
    ("scheme", "shift"),
    [("ub", 1e-6), ("tci", -1e-6), ("qci_J4", -1e-6), ("mmse", 1.0), ("qci_J2", None)],
)
def test_one_corrupted_cell_fails(scheme, shift):
    run.OUT.mkdir(parents=True, exist_ok=True)
    reference = check.load_reference()
    workload, passes = _two_point_pass("fig2")
    assert run.check_cells(workload, passes, reference) == (12, [])

    config, results, seconds = passes[0]["timer"].points[1]
    corrupted = [
        replace(r, rate=None if shift is None else r.rate + shift) if r.scheme == scheme else r
        for r in results
    ]
    passes[0]["timer"].points[1] = (config, corrupted, seconds)
    attempted, failures = run.check_cells(workload, passes, reference)
    assert attempted == 12
    assert len(failures) == 1 and "point 1 " in failures[0] and scheme in failures[0]


def test_lower_bound_above_ub_fails():
    _, passes = _two_point_pass("cold_points")
    _, results, _ = passes[0]["timer"].points[0]
    ub = next(r.rate for r in results if r.scheme == "ub")
    lifted = [replace(r, rate=ub + 1e-6) if r.scheme == "tci" else r for r in results]
    assert check.check_point(results, None) == []
    assert [m.split(":")[0] for m in check.check_point(lifted, None)] == ["tci"]


@pytest.mark.xfail(strict=True, reason="known defect: mmse is negative below about -2.3 dB SNR")
def test_mmse_is_nonnegative_below_the_cold_box():
    """The defect that keeps cold_points above 0 dB; when it is fixed this
    test passes, strict xfail turns that into a failure, and the cold box can
    go back down to -10 dB."""
    from diamond_bottleneck import SolverSettings, SystemConfig
    from diamond_bottleneck.mmse import mmse_rate

    config = SystemConfig(noise_power=10 ** (9.36 / 10), c1=5.0, c2=5.0)
    assert mmse_rate(config, SolverSettings()).rate >= 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fig2", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
