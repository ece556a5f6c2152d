"""Sweep specification, CSV rendering, failure isolation, and the
command-line front end."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import _child_env, parse_csv, run_cli

import diamond_bottleneck.sweeps as sweeps
import diamond_bottleneck.verify as verify
from diamond_bottleneck.cli import main
from diamond_bottleneck.errors import InvalidArgument, NonConvergent
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.sweeps import (
    _DIAGNOSTIC_COLUMN,
    SCHEMES,
    SweepSpec,
    compute_point,
    db_to_linear,
    fig2_spec,
    fig3_spec,
    linear_to_db,
    render_rows,
    run_sweep,
    sweep_points,
    _cell,
)
from diamond_bottleneck.channel import SystemConfig
from diamond_bottleneck.qci import qci_lower_bound
from diamond_bottleneck.tci import tci_best

SETTINGS = SolverSettings()
DATA = Path(__file__).resolve().parent / "data"


def single_spec(snr_db, c1, c2=None, schemes=("ub", "tci")):
    return SweepSpec(
        mode="single",
        schemes=tuple(schemes),
        settings=SETTINGS,
        output_path="out.csv",
        fixed_c=c1,
        fixed_c2=c2,
        fixed_snr_db=snr_db,
    )


class TestDbConversion:
    def test_round_numbers(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(40.0) == pytest.approx(1e4, rel=1e-15)

    def test_round_trip(self):
        for db in (-7.0, 0.0, 13.5, 60.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


class TestSweepSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="walk", schemes=SCHEMES, settings=SETTINGS, output_path="x")

    def test_empty_schemes(self):
        with pytest.raises(InvalidArgument):
            single_spec(10.0, 5.0, schemes=())

    def test_unknown_scheme(self):
        with pytest.raises(InvalidArgument):
            single_spec(10.0, 5.0, schemes=("ub", "magic"))

    def test_snr_mode_needs_range_and_budget(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(
                mode="snr_sweep", schemes=SCHEMES, settings=SETTINGS,
                output_path="x", fixed_c=10.0,
            )
        with pytest.raises(InvalidArgument):
            SweepSpec(
                mode="snr_sweep", schemes=SCHEMES, settings=SETTINGS,
                output_path="x", snr_db_range=(0.0, 60.0, 2.0),
            )

    def test_budget_mode_needs_snr(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(
                mode="budget_sweep", schemes=SCHEMES, settings=SETTINGS,
                output_path="x", budget_range=(0.0, 25.0, 1.0),
            )

    def test_bad_ranges(self):
        nan, inf = float("nan"), float("inf")
        for rng in [
            (0.0, 60.0, 0.0), (0.0, 60.0, -1.0), (10.0, 5.0, 1.0),
            (nan, 60.0, 2.0), (0.0, inf, 2.0), (-inf, 60.0, 2.0), (0.0, 60.0, inf),
        ]:
            with pytest.raises(InvalidArgument):
                SweepSpec(
                    mode="snr_sweep", schemes=SCHEMES, settings=SETTINGS,
                    output_path="x", snr_db_range=rng, fixed_c=10.0,
                )


class TestSweepPoints:
    def test_snr_preset_axis(self):
        points = sweep_points(fig2_spec())
        assert len(points) == 31
        assert points[0] == (0.0, 10.0, 10.0)
        assert points[-1] == (60.0, 10.0, 10.0)
        assert points[5][0] == pytest.approx(10.0)
        assert all(c1 == 10.0 and c2 == 10.0 for _, c1, c2 in points)

    def test_budget_preset_axis(self):
        points = sweep_points(fig3_spec())
        assert len(points) == 26
        assert points[0] == (40.0, 0.0, 0.0)
        assert points[-1] == (40.0, 25.0, 25.0)
        assert all(db == 40.0 for db, _, _ in points)

    def test_single_point_default_c2(self):
        assert sweep_points(single_spec(12.0, 4.0)) == [(12.0, 4.0, 4.0)]
        assert sweep_points(single_spec(12.0, 4.0, 6.0)) == [(12.0, 4.0, 6.0)]

    def test_inclusive_endpoint_with_float_step(self):
        spec = SweepSpec(
            mode="snr_sweep", schemes=("ub",), settings=SETTINGS,
            output_path="x", snr_db_range=(0.0, 1.0, 0.1), fixed_c=5.0,
        )
        points = sweep_points(spec)
        assert len(points) == 11
        assert points[-1][0] == pytest.approx(1.0, abs=1e-12)


class TestCellFormat:
    def test_empty_for_none(self):
        assert _cell(None) == ""

    def test_nine_significant_digits(self):
        assert _cell(13.876958321234) == "13.8769583"
        assert _cell(0.5) == "0.5"
        assert _cell(1e-12) == "1e-12"
        assert _cell(2.0) == "2"


class TestComputePoint:
    def test_order_follows_request(self):
        config = SystemConfig(1e-2, 4.0, 4.0)
        results = compute_point(config, ("tci", "ub"), SETTINGS)
        assert [r.scheme for r in results] == ["tci", "ub"]

    def test_diagnostics_present(self):
        config = SystemConfig(1e-2, 4.0, 4.0)
        results = {r.scheme: r for r in compute_point(config, SCHEMES, SETTINGS)}
        assert "ub_residual" in results["ub"].diagnostics
        assert "qci_J2_iters" in results["qci_J2"].diagnostics
        assert "tci_threshold" in results["tci"].diagnostics
        assert "mmse_halfwidth" in results["mmse"].diagnostics
        for result in results.values():
            assert result.diagnostics == {_DIAGNOSTIC_COLUMN[result.scheme]: result.diagnostic}

    def test_warm_start_refused(self):
        # the keyword stays only so that warm_start=None keeps working
        config = SystemConfig(1e-2, 4.0, 4.0)
        alone = compute_point(config, ("qci_J2",), SETTINGS)
        assert compute_point(config, ("qci_J2",), SETTINGS, warm_start=None) == alone
        with pytest.raises(InvalidArgument):
            compute_point(config, ("qci_J2",), SETTINGS, warm_start={})

    def test_failure_isolated_to_one_cell(self, monkeypatch, capsys):
        def explode(config, settings):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweeps, "upper_bound", explode)
        config = SystemConfig(1e-2, 4.0, 4.0)
        results = compute_point(config, ("ub", "tci"), SETTINGS)
        assert results[0].rate is None
        assert results[0].diagnostic is None and results[0].diagnostics == {}
        assert results[1].rate is not None
        err = capsys.readouterr().err
        assert "ub" in err and "synthetic failure" in err


    @pytest.mark.parametrize("snr_db, c", [(40.0, 10.0), (60.0, 4.0)])
    def test_lock_step_failure_fails_only_its_cell(self, capsys, snr_db, c):
        # at max_iter=2, J = 2 converges and J = 8 (or J = 4) does not
        tight = SolverSettings(max_iter=2)
        config = SystemConfig(1.0 / db_to_linear(snr_db), c, c)
        schemes = ("qci_J2", "tci", "qci_J4", "qci_J8")
        expected, warnings = [], []
        for scheme in schemes:
            try:
                if scheme == "tci":
                    point = tci_best(config)
                    expected.append((point.rate, point.threshold))
                else:
                    allocation = qci_lower_bound(int(scheme[5:]), config, tight)
                    expected.append((allocation.lower_bound, allocation.iterations))
            except NonConvergent as error:
                expected.append((None, None))
                warnings.append(
                    f"warning: scheme {scheme} failed at noise_power={config.noise_power:g}, "
                    f"c=({config.c1:g}, {config.c2:g}): {error}"
                )
        assert expected[0][0] is not None and None in (expected[2][0], expected[3][0])
        capsys.readouterr()
        results = compute_point(config, schemes, tight)
        assert [(r.rate, r.diagnostic) for r in results] == expected
        assert capsys.readouterr().err.splitlines() == warnings


class TestRenderRows:
    def test_header_layout(self):
        lines = render_rows(single_spec(10.0, 3.0))
        assert lines[0] == "rho_db,c_bits,ub,tci,ub_residual,tci_threshold"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 6
        assert float(cells[0]) == 10.0
        assert float(cells[1]) == 3.0
        assert float(cells[3]) <= float(cells[2]) + 1e-9  # lower <= upper

    def test_failed_scheme_leaves_empty_cells(self, monkeypatch, capsys):
        def explode(config, settings):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweeps, "upper_bound", explode)
        lines = render_rows(single_spec(10.0, 3.0))
        cells = lines[1].split(",")
        assert cells[2] == "" and cells[4] == ""
        assert cells[3] != "" and cells[5] != ""
        assert "synthetic failure" in capsys.readouterr().err

    def test_run_sweep_writes_file(self, tmp_path):
        spec = SweepSpec(
            mode="budget_sweep",
            schemes=("ub",),
            settings=SETTINGS,
            output_path=str(tmp_path / "mini.csv"),
            budget_range=(1.0, 3.0, 1.0),
            fixed_snr_db=20.0,
        )
        path = run_sweep(spec)
        text = (tmp_path / "mini.csv").read_text()
        assert path == spec.output_path
        assert text.endswith("\n") and not text.endswith("\n\n")
        rows = parse_csv(text.encode())
        assert [row["c_bits"] for row in rows] == [1.0, 2.0, 3.0]
        assert all(row["rho_db"] == 20.0 for row in rows)


class TestCommandLine:
    def test_bound_prints_single_row(self, tmp_path):
        result = run_cli(
            ["bound", "--snr-db", "10", "--c1", "2", "--scheme", "ub,tci"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert len(rows) == 1
        assert rows[0]["rho_db"] == 10.0
        assert rows[0]["c_bits"] == 2.0
        assert rows[0]["tci"] <= rows[0]["ub"] + 1e-9

    def test_bound_defaults(self, tmp_path):
        result = run_cli(["bound", "--scheme", "ub"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert rows[0]["rho_db"] == 0.0  # unit noise by default
        assert rows[0]["c_bits"] == 10.0

    def test_bound_sigma2_flag(self, tmp_path):
        result = run_cli(["bound", "--sigma2", "0.01", "--scheme", "ub"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert rows[0]["rho_db"] == pytest.approx(20.0, abs=1e-9)

    @pytest.mark.parametrize(
        "command, flags, lines",
        [
            ("bound", ["--sigma2", "0.01", "--snr-db", "10"], ""),
            ("bound", ["--snr-db", "10"], "sigma2 = 0.01\n"),
            ("bound", [], "snr-db = 10\nsigma2 = 0.01\n"),
            ("sweep", ["--sweep", "budget", "--sigma2", "0.01"], "snr_db = 10\n"),
        ],
        ids=["flags", "flag-and-file", "file", "budget-sweep"],
    )
    def test_sigma2_and_snr_db_together_exit_2(
        self, tmp_path, monkeypatch, capsys, command, flags, lines
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(lines)
        assert main([command, *flags, "--config", "run.cfg", "--scheme", "ub"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--snr-db and --sigma2" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag", ["--tol", "--quad-order", "--samples"])
    def test_zero_setting_exits_2(self, tmp_path, flag):
        # rejected before the first check runs: nothing is printed
        result = run_cli(["verify", flag, "0"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "error:" in result.stderr

    def test_bound_zero_tol_exits_2(self, tmp_path):
        result = run_cli(["bound", "--scheme", "ub", "--tol", "0"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert "error:" in result.stderr

    def test_seed_zero_accepted(self, stubbed_checks, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        assert stubbed_checks == {"seed": 0}
        assert capsys.readouterr().out.endswith("10/10 checks passed\n")

    @pytest.mark.parametrize(
        "key, value", [("quad_order", 7), ("samples", 999), ("seed", -1)]
    )
    def test_verify_rejects_one_below_oracle_limit(self, stubbed_checks, capsys, key, value):
        with pytest.raises(InvalidArgument):
            verify.verify(**{key: value})
        flag = "--" + key.replace("_", "-")
        assert main(["verify", flag, str(value)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert stubbed_checks == {}  # rejected before the first check ran

    def test_verify_accepts_oracle_limits(self, stubbed_checks, capsys):
        assert verify.verify(quad_order=8, samples=1000, seed=0) == 0
        assert stubbed_checks == {"seed": 0}
        assert capsys.readouterr().out.endswith("10/10 checks passed\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--seed", "3"],
            ["sweep", "--preset", "fig2", "--samples", "10"],
            ["verify", "--c1", "5"],
            ["verify", "--scheme", "ub", "--out", "z.csv"],
        ],
    )
    def test_flag_a_subcommand_does_not_read_exits_2(self, tmp_path, args):
        result = run_cli(args, tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert not list(tmp_path.iterdir())

    def test_bound_out_writes_csv(self, tmp_path):
        result = run_cli(
            ["bound", "--scheme", "ub", "--c1", "3", "--out", "point.csv"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        rows = parse_csv((tmp_path / "point.csv").read_bytes())
        assert rows[0]["c_bits"] == 3.0

    def test_config_file_with_flag_override(self, tmp_path):
        (tmp_path / "run.cfg").write_text(
            "# sample configuration\nsnr-db = 20\nc1 = 3  # overridden below\n"
            "scheme = ub,tci\n"
        )
        result = run_cli(["bound", "--config", "run.cfg", "--c1", "4"], tmp_path)
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert rows[0]["rho_db"] == 20.0
        assert rows[0]["c_bits"] == 4.0
        assert set(rows[0]) == {
            "rho_db", "c_bits", "ub", "tci", "ub_residual", "tci_threshold",
        }

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("bound", "snrdb = 40", "'snrdb' is not a bound key"),
            ("bound", "seed = 3", "'seed' is not a bound key"),
            ("verify", "c1 = 5", "'c1' is not a verify key"),
            ("verify", "samples = 1000.9", "samples = '1000.9' is not a valid int"),
            ("bound", "c1 = ten", "c1 = 'ten' is not a valid float"),
        ],
    )
    def test_config_key_checked_like_a_flag(self, tmp_path, command, line, message):
        (tmp_path / "run.cfg").write_text(f"# checked line by line\n{line}\n")
        result = run_cli([command, "--config", "run.cfg"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert f"error: run.cfg:2: {message}" in result.stderr

    @pytest.mark.parametrize(
        "first, second",
        [("c1 = 3", "c1 = 4"), ("snr-db = 20", "snr_db = 30"), ("scheme = ub", "scheme = tci")],
        ids=["c1", "snr_db", "scheme"],
    )
    def test_config_key_given_twice_exits_2(self, tmp_path, monkeypatch, capsys, first, second):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{first}\n# between\n{second}\n")
        assert main(["bound", "--config", "run.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "set twice, at run.cfg:1 and run.cfg:3" in err

    def test_malformed_config_line(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("this is not a pair\n")
        result = run_cli(["bound", "--config", "bad.cfg"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "error:" in result.stderr

    def test_missing_config_file(self, tmp_path):
        result = run_cli(["bound", "--config", "nope.cfg"], tmp_path)
        assert result.returncode == 1, result.stderr
        assert "error:" in result.stderr
        # a child that cannot import the package also exits 1
        assert "No module named" not in result.stderr

    def test_unknown_scheme_exits_2(self, tmp_path):
        result = run_cli(["bound", "--scheme", "magic"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "unknown scheme" in result.stderr

    def test_nonfinite_rate_leaves_cells_empty(self, tmp_path):
        # mmse evaluates to NaN at -80 dB; the cell fails like an exception
        result = run_cli(
            ["bound", "--snr-db", "-80", "--c1", "5", "--scheme", "ub,mmse"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        row = parse_csv(result.stdout.encode())[0]
        assert row["mmse"] is None and row["mmse_halfwidth"] is None
        assert row["ub"] is not None and row["ub_residual"] is not None
        assert "warning: scheme mmse failed" in result.stderr
        assert "non-finite rate" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize(
        "axis",
        [
            ["--sweep", "budget", "--start", "nan", "--stop", "2"],
            ["--sweep", "snr", "--stop", "inf"],
        ],
    )
    def test_nonfinite_sweep_axis_exits_2(self, tmp_path, axis):
        result = run_cli(["sweep", *axis, "--scheme", "ub", "--out", "o.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "must be finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o.csv").exists()  # no point was evaluated

    def test_sweep_needs_mode(self, tmp_path):
        result = run_cli(["sweep"], tmp_path)
        assert result.returncode == 2, result.stderr

    def test_sweep_rejects_preset_plus_mode(self, tmp_path):
        result = run_cli(
            ["sweep", "--preset", "fig2", "--sweep", "snr"], tmp_path
        )
        assert result.returncode == 2, result.stderr

    def test_sweep_unknown_preset(self, tmp_path):
        result = run_cli(["sweep", "--preset", "fig9"], tmp_path)
        assert result.returncode == 2, result.stderr

    def test_custom_budget_sweep(self, tmp_path):
        result = run_cli(
            [
                "sweep", "--sweep", "budget", "--start", "2", "--stop", "4",
                "--step", "1", "--scheme", "ub", "--out", "o.csv",
            ],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "wrote o.csv" in result.stdout
        rows = parse_csv((tmp_path / "o.csv").read_bytes())
        assert [row["c_bits"] for row in rows] == [2.0, 3.0, 4.0]
        assert all(row["rho_db"] == 40.0 for row in rows)  # default SNR

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "mode, unread, message",
        [
            (["--preset", "fig3"], {"c1": "3", "snr-db": "10"},
             "preset fig3 does not read --snr-db, --c1"),
            (["--sweep", "snr"], {"snr-db": "30"}, "--sweep snr does not read --snr-db"),
            (["--sweep", "budget"], {"c1": "4"}, "--sweep budget does not read --c1"),
        ],
        ids=["preset", "snr", "budget"],
    )
    def test_sweep_mode_rejects_flags_it_does_not_read(
        self, tmp_path, source, mode, unread, message
    ):
        if source == "flag":
            extra = [arg for key, value in unread.items() for arg in (f"--{key}", value)]
        else:
            (tmp_path / "run.cfg").write_text(
                "".join(f"{key} = {value}\n" for key, value in unread.items())
            )
            extra = ["--config", "run.cfg"]
        result = run_cli(["sweep", *mode, *extra, "--out", "o.csv"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert f"error: {message}" in result.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_custom_snr_sweep_rejects_unequal_budgets(self, tmp_path):
        result = run_cli(
            ["sweep", "--sweep", "snr", "--c1", "4", "--c2", "6"], tmp_path
        )
        assert result.returncode == 2, result.stderr

    def test_preset_name_accepted_as_sweep_value(self, tmp_path):
        result = run_cli(
            ["sweep", "--sweep", "fig3", "--scheme", "ub", "--out", "f.csv"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        rows = parse_csv((tmp_path / "f.csv").read_bytes())
        assert len(rows) == 26
        assert set(rows[0]) == {"rho_db", "c_bits", "ub", "ub_residual"}

    def test_repeatable_scheme_flag(self, tmp_path):
        result = run_cli(
            ["bound", "--scheme", "ub", "--scheme", "tci", "--c1", "2"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert set(rows[0]) == {
            "rho_db", "c_bits", "ub", "tci", "ub_residual", "tci_threshold",
        }

    def test_verify_passes(self, tmp_path):
        result = run_cli(["verify"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout
        assert "FAIL" not in result.stdout

    @pytest.mark.parametrize("module", ["diamond_bottleneck", "diamond_bottleneck.cli"])
    def test_import_does_not_load_scipy(self, module, tmp_path):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_verify_detects_seeded_fault(self, stubbed_checks, monkeypatch, capsys):
        def crash():
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(verify, "_check_one_relay", lambda seed: (False, "synthetic miss"))
        monkeypatch.setattr(verify, "_check_mmse_calibration", crash)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  one_relay_reduction    synthetic miss",
            "FAIL  mmse_calibration       raised RuntimeError: synthetic crash",
        ]
        assert lines[-1] == "8/10 checks passed"


@pytest.fixture
def stubbed_checks(monkeypatch):
    """Replace every verify check by one that passes at once; returns the
    seed that reached solver_vs_grid."""
    seen = {}

    def passing(*args, **kwargs):
        return True, "stub"

    def solver_vs_grid(seed):
        seen["seed"] = seed
        return True, "stub"

    for name in dir(verify):
        if name.startswith("_check_"):
            monkeypatch.setattr(verify, name, passing)
    monkeypatch.setattr(verify, "_check_solver_vs_grid", solver_vs_grid)
    return seen


# Every column of the preset CSVs: no scheme draws random numbers, so the
# seed changes none of them.
DETERMINISTIC_COLUMNS = (
    "rho_db", "c_bits", "ub", "qci_J2", "qci_J4", "qci_J8", "tci", "mmse",
    "ub_residual", "qci_J2_iters", "qci_J4_iters", "qci_J8_iters", "tci_threshold",
    "mmse_halfwidth",
)
# The mmse columns of the presets at seed 7 when mmse was a Monte Carlo
# estimate: its value and 95% half-width.
MONTE_CARLO_COLUMNS = ("rho_db", "c_bits", "mmse", "mmse_halfwidth")


def select_columns(data: bytes, names: tuple[str, ...] = DETERMINISTIC_COLUMNS) -> bytes:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    keep = [header.index(name) for name in names]
    return "".join(
        ",".join(line.split(",")[k] for k in keep) + "\n" for line in lines
    ).encode("utf-8")


class TestPresetGolden:
    """The preset columns, byte for byte, against a recording
    (tests/data/*_deterministic.csv): a speed-up of the solvers must not move
    a single digit of the curves."""

    def test_fig2(self, fig2_runs):
        golden = (DATA / "fig2_deterministic.csv").read_bytes()
        assert select_columns(fig2_runs[0]) == golden

    def test_fig3(self, fig3_run):
        golden = (DATA / "fig3_deterministic.csv").read_bytes()
        assert select_columns(fig3_run[0]) == golden


class TestRowsStandAlone:
    """Every preset row equals, byte for byte, the row that a one-point spec
    renders at its point, which is what `bound` prints: no row depends on
    the rows before it."""

    @staticmethod
    def check(data: bytes, spec: SweepSpec) -> None:
        lines = data.decode("utf-8").splitlines()
        points = sweep_points(spec)
        assert len(lines) == len(points) + 1
        for line, (snr_db, c1, c2) in zip(lines[1:], points):
            assert render_rows(single_spec(snr_db, c1, c2, SCHEMES)) == [lines[0], line]

    def test_fig2(self, fig2_runs):
        self.check(fig2_runs[0], fig2_spec())

    def test_fig3(self, fig3_run):
        self.check(fig3_run[0], fig3_spec())


class TestMmseAgainstMonteCarlo:
    """Every mmse value lies within three half-widths of the Monte Carlo
    estimate it replaced (tests/data/*_monte_carlo.csv), the bound of
    criterion 1, and its own error estimate is at most 1e-9."""

    @staticmethod
    def check(data: bytes, recording: str) -> None:
        new = parse_csv(select_columns(data, MONTE_CARLO_COLUMNS))
        old = parse_csv((DATA / recording).read_bytes())
        assert [(r["rho_db"], r["c_bits"]) for r in new] == [
            (r["rho_db"], r["c_bits"]) for r in old
        ]
        for now, then in zip(new, old):
            assert abs(now["mmse"] - then["mmse"]) <= 3.0 * then["mmse_halfwidth"], then
            assert 0.0 <= now["mmse_halfwidth"] <= 1e-9, now

    def test_fig2(self, fig2_runs):
        self.check(fig2_runs[0], "fig2_monte_carlo.csv")

    def test_fig3(self, fig3_run):
        self.check(fig3_run[0], "fig3_monte_carlo.csv")
