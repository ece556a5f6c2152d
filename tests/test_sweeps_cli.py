"""Sweep specification, CSV rendering, failure isolation, and the
command-line front end."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import parse_csv, run_cli, run_python

import diamond_bottleneck.qci as qci
import diamond_bottleneck.sweeps as sweeps
import diamond_bottleneck.tci as tci
import diamond_bottleneck.verify as verify
from diamond_bottleneck.errors import InvalidArgument, NonConvergent
from diamond_bottleneck.mmse import MmseResult
from diamond_bottleneck.numerics import SolverSettings
from diamond_bottleneck.sweeps import (
    BUDGET_BOX,
    SCHEMES,
    SNR_DB_BOX,
    SweepSpec,
    check_in_box,
    compute_point,
    db_to_linear,
    fig2_spec,
    fig3_spec,
    render_points,
    run_sweep,
    sweep_points,
)
from diamond_bottleneck.channel import SystemConfig
from diamond_bottleneck.qci import qci_lower_bound
from diamond_bottleneck.tci import tci_best

SETTINGS = SolverSettings()
DATA = Path(__file__).resolve().parent / "data"


def snr_spec(schemes, snr_db_range=(0.0, 60.0, 2.0)):
    return SweepSpec(
        mode="snr_sweep", schemes=schemes, settings=SETTINGS,
        output_path="x", snr_db_range=snr_db_range, fixed_c=10.0,
    )


def refusal(name: str, value: float, unit: str) -> str:
    """The message that refuses `value` of input `name`, outside the box."""
    low, high = SNR_DB_BOX if unit == "dB" else BUDGET_BOX
    return f"{name} {value:g} {unit} is outside [{low:g}, {high:g}] {unit}"


class TestDbConversion:
    """db_to_linear is the conversion alone; check_in_box decides the input
    box, whose ends are both included."""

    def test_round_trip(self):
        for db in (-7.0, 0.0, 13.5, 60.0):
            assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_in_range_bits_kept(self):
        for db in (SNR_DB_BOX[0], -7.0, 0.0, 13.5, SNR_DB_BOX[1]):
            check_in_box(db, *BUDGET_BOX)
            check_in_box(db, *BUDGET_BOX[::-1])
            assert db_to_linear(db) == 10.0 ** (db / 10.0)

    @pytest.mark.parametrize("db", [3083.0, 4000.0, -3077.0, -4000.0, math.inf, -math.inf, math.nan])
    def test_out_of_range_raises(self, db):
        with pytest.raises(InvalidArgument, match=re.escape(refusal("SNR", db, "dB"))):
            check_in_box(db, 10.0, 10.0)


class TestSweepSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="walk", schemes=SCHEMES, settings=SETTINGS, output_path="x")

    def test_empty_schemes(self):
        with pytest.raises(InvalidArgument):
            snr_spec(())

    def test_unknown_scheme(self):
        with pytest.raises(InvalidArgument):
            snr_spec(("ub", "magic"))

    @pytest.mark.parametrize("schemes", [("ub", "ub"), ("tci", "ub", "mmse", "tci")])
    def test_repeated_scheme(self, schemes):
        with pytest.raises(InvalidArgument, match="is given twice"):
            snr_spec(schemes)

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
                snr_spec(SCHEMES, rng)

    @pytest.mark.parametrize(
        "rng",
        [(0.0, 60.0, 5e-324), (0.0, 60.0, 1e-300), (-1e308, 1e308, 1.0),
         (0.0, sweeps._MAX_POINTS, 1.0)],
        ids=["subnormal-step", "tiny-step", "overflowing-span", "one-too-many"],
    )
    def test_point_count_bounded(self, rng):
        # rejected when the spec is built, before any point is listed
        with pytest.raises(InvalidArgument, match="points"):
            snr_spec(("ub",), rng)

    def test_snr_out_of_range(self, no_point_evaluated, tmp_path):
        # each end of the SNR axis, and a budget sweep's SNR: the spec is
        # built, and its rows are refused before any point is evaluated or
        # the file is opened
        out = str(tmp_path / "out.csv")
        specs = [replace(snr_spec(("ub",), rng), output_path=out)
                 for rng in [(0.0, 4000.0, 4000.0), (-4000.0, 0.0, 4000.0)]]
        specs.append(SweepSpec(
            mode="budget_sweep", schemes=("ub",), settings=SETTINGS, output_path=out,
            budget_range=(0.0, 25.0, 1.0), fixed_snr_db=4000.0,
        ))
        for spec in specs:
            with pytest.raises(InvalidArgument, match="4000 dB is outside"):
                run_sweep(spec)
        assert list(tmp_path.iterdir()) == []

    def test_largest_point_count_accepted(self):
        # listed only: the input box would refuse most of these budgets
        spec = SweepSpec(
            mode="budget_sweep", schemes=("ub",), settings=SETTINGS, output_path="x",
            budget_range=(0.0, sweeps._MAX_POINTS - 1.0, 1.0), fixed_snr_db=20.0,
        )
        assert len(sweep_points(spec)) == sweeps._MAX_POINTS


class TestSweepPoints:
    def test_one_point_axis(self):
        assert sweep_points(snr_spec(("ub",), (20.0, 20.0, 1.0))) == [(20.0, 10.0, 10.0)]

    def test_inclusive_endpoint_with_float_step(self):
        spec = SweepSpec(
            mode="snr_sweep", schemes=("ub",), settings=SETTINGS,
            output_path="x", snr_db_range=(0.0, 1.0, 0.1), fixed_c=5.0,
        )
        points = sweep_points(spec)
        assert len(points) == 11
        assert points[-1][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            replace(fig2_spec(), snr_db_range=(*SNR_DB_BOX, 0.07)),
            replace(fig3_spec(), budget_range=(5.5, BUDGET_BOX[1], 1.09)),
        ],
        ids=["snr", "budget"],
    )
    def test_axis_never_steps_past_stop(self, spec):
        # start + k * step rounds to just past stop on these axes; the last
        # point is stop itself, so an axis that ends at the box's edge stays in
        points = sweep_points(spec)
        axis = [point[0 if spec.mode == "snr_sweep" else 1] for point in points]
        stop = (spec.snr_db_range or spec.budget_range)[1]
        assert axis[-1] == stop and max(axis) == stop
        for point in points:
            check_in_box(*point)


class TestComputePoint:
    def test_warm_start_refused(self):
        # the keyword stays only so that warm_start=None keeps working
        config = SystemConfig(1e-2, 4.0, 4.0)
        alone = compute_point(config, ("qci_J2",), SETTINGS)
        assert compute_point(config, ("qci_J2",), SETTINGS, warm_start=None) == alone
        with pytest.raises(InvalidArgument):
            compute_point(config, ("qci_J2",), SETTINGS, warm_start={})

    def test_only_listed_schemes_are_evaluated(self, monkeypatch, capsys):
        # qci_J3 and qci_J016 are spelled like quantized schemes but are not
        # in SCHEMES: each fails its own cell, and only qci_J2's ascent runs
        config = SystemConfig(1e-2, 4.0, 4.0)
        alone = compute_point(config, ("qci_J2",), SETTINGS)
        requested = []

        def spy(J, config, settings):
            requested.append(J)
            return qci._ascent(J, config, settings)

        monkeypatch.setattr(sweeps, "_ascent", spy)
        results = compute_point(config, ("qci_J3", "qci_J2", "qci_J016"), SETTINGS)
        assert requested == [2]
        assert results[1] == alone[0]
        for result in (results[0], results[2]):
            assert result.rate is None and result.diagnostics == {}
        err = capsys.readouterr().err
        assert "unknown scheme 'qci_J3'" in err and "unknown scheme 'qci_J016'" in err

    @pytest.mark.parametrize("scheme, function", [("ub", "upper_bound"), ("mmse", "mmse_rate")])
    def test_failure_isolated_to_one_cell(self, monkeypatch, capsys, scheme, function):
        # ub and mmse fail in the lock-step's first advance, qci_J3 (unknown)
        # there too, and qci_J8, capped at 2 iterations, in a later round:
        # every other cell keeps its value, and the warnings keep scheme order
        def explode(config, settings):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(qci, "_MAX_ITER", 2)
        config = SystemConfig(1e-4, 10.0, 10.0)
        schemes = ("qci_J8", "ub", "qci_J2", "tci", "mmse", "qci_J3")
        alone = compute_point(config, schemes, SETTINGS)
        capsys.readouterr()
        monkeypatch.setattr(sweeps, function, explode)
        results = compute_point(config, schemes, SETTINGS)
        k = schemes.index(scheme)
        assert results[k].rate is None
        assert results[k].diagnostic is None and results[k].diagnostics == {}
        assert results[:k] + results[k + 1:] == alone[:k] + alone[k + 1:]
        assert [r.scheme for r in results if r.rate is None] == ["qci_J8", scheme, "qci_J3"]
        prefix = "warning: scheme {} failed at noise_power=0.0001, c=(10, 10): "
        assert capsys.readouterr().err.splitlines() == [
            prefix.format("qci_J8")
            + "allocation ascent still improving by more than 1e-6 after 2 iterations",
            prefix.format(scheme) + "synthetic failure",
            prefix.format("qci_J3") + "unknown scheme 'qci_J3'",
        ]


    def test_tci_rides_the_first_round(self, monkeypatch):
        # TCI's threshold lanes join the ascents' first kernel call, so a
        # point makes no more calls than its QCI ascents alone
        config = SystemConfig(1.0 / db_to_linear(40.0), 10.0, 10.0)
        kernel = qci._maxmin_batch
        lanes = []

        def counted(*args):
            lanes.append(math.prod(np.broadcast_shapes(*(np.shape(a) for a in args))))
            return kernel(*args)

        for module in (qci, tci):
            monkeypatch.setattr(module, "_maxmin_batch", counted)
        qci._lock_step([qci._ascent(J, config, SETTINGS) for J in (2, 4, 8)])
        alone = lanes.copy()
        lanes.clear()
        compute_point(config, SCHEMES, SETTINGS)
        assert len(lanes) == len(alone) > 1
        assert lanes[0] == alone[0] + 3 * len(tci.THRESHOLD_GRID)
        assert lanes[1:] == alone[1:]

    def test_one_lock_step_call_per_point(self, monkeypatch):
        # every requested scheme, ub and mmse too, is one participant of it
        calls = []

        def spy(participants):
            calls.append(len(participants))
            return qci._lock_step(participants)

        monkeypatch.setattr(sweeps, "_lock_step", spy)
        compute_point(SystemConfig(1e-2, 4.0, 4.0), SCHEMES, SETTINGS)
        assert calls == [len(SCHEMES)]

    @pytest.mark.parametrize("snr_db, c", [(40.0, 10.0), (60.0, 4.0)])
    def test_lock_step_failure_fails_only_its_cell(self, monkeypatch, capsys, snr_db, c):
        # capped at 2 iterations, J = 2 converges and J = 8 (or J = 4) does not
        monkeypatch.setattr(qci, "_MAX_ITER", 2)
        config = SystemConfig(1.0 / db_to_linear(snr_db), c, c)
        schemes = ("qci_J2", "tci", "qci_J4", "qci_J8")
        expected, warnings = [], []
        for scheme in schemes:
            try:
                if scheme == "tci":
                    point = tci_best(config)
                    expected.append((point.rate, point.threshold))
                else:
                    allocation = qci_lower_bound(int(scheme[5:]), config, SETTINGS)
                    expected.append((allocation.lower_bound, allocation.iterations))
            except NonConvergent as error:
                expected.append((None, None))
                warnings.append(
                    f"warning: scheme {scheme} failed at noise_power={config.noise_power:g}, "
                    f"c=({config.c1:g}, {config.c2:g}): {error}"
                )
        assert expected[0][0] is not None and None in (expected[2][0], expected[3][0])
        capsys.readouterr()
        results = compute_point(config, schemes, SETTINGS)
        assert [(r.rate, r.diagnostic) for r in results] == expected
        assert capsys.readouterr().err.splitlines() == warnings


class TestRenderRows:
    POINT = [(10.0, 3.0, 3.0)]

    def test_failed_scheme_leaves_empty_cells(self, monkeypatch, capsys):
        def explode(config, settings):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweeps, "upper_bound", explode)
        lines = list(render_points(self.POINT, ("ub", "tci"), SETTINGS))
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


def assert_exits_2(result, message: str = "error:") -> None:
    """The run exited 2 with nothing on stdout, named `message` on stderr,
    and wrote nothing into its working directory."""
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert message in result.stderr
    assert list(Path.cwd().iterdir()) == []


@pytest.fixture
def no_point_evaluated(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweeps, "compute_point", unreachable)


class TestCommandLine:
    def test_bound_prints_single_row(self, cli):
        result = cli(["bound", "--snr-db", "10", "--c1", "2", "--scheme", "ub,tci"])
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert len(rows) == 1
        assert rows[0]["rho_db"] == 10.0
        assert rows[0]["c_bits"] == 2.0
        assert rows[0]["tci"] <= rows[0]["ub"] + 1e-9

    def test_bound_defaults(self, cli):
        result = cli(["bound", "--scheme", "ub"])
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert rows[0]["rho_db"] == 0.0  # unit noise by default
        assert rows[0]["c_bits"] == 10.0

    def test_bound_c2_defaults_to_c1(self, cli):
        outputs = [
            cli(["bound", "--c1", "4", "--scheme", "ub,tci", *extra])
            for extra in ([], ["--c2", "4"], ["--c2", "6"])
        ]
        assert [result.returncode for result in outputs] == [0, 0, 0]
        assert outputs[0] == outputs[1]
        assert outputs[0].stdout != outputs[2].stdout

    @pytest.mark.parametrize(
        "args",
        [["bound", "--out", ""], ["sweep", "--preset", "fig2", "--stop", "2", "--out", ""]],
        ids=["bound-out", "sweep-out"],
    )
    def test_empty_path_exits_2(self, cli, no_point_evaluated, args):
        # an empty path is an error: never stdout or a preset's file name
        # instead
        assert_exits_2(cli([*args, "--scheme", "ub"]), "argument --out: invalid path value: ''")

    @pytest.mark.parametrize(
        "schemes", [["--scheme", "ub,ub"], ["--scheme", "ub,tci", "--scheme", "ub"]]
    )
    def test_repeated_scheme_exits_2(self, cli, schemes):
        for command in (["bound", "--snr-db", "10"], ["sweep", "--preset", "fig2", "--stop", "2"]):
            result = cli([*command, *schemes])
            assert_exits_2(result)
            assert result.stderr.count("error: scheme 'ub' is given twice") == 1

    def test_overlong_sweep_axis_exits_2(self, cli, no_point_evaluated):
        # a step whose point count overflows; a merely huge count (step
        # 1e-300) is left to test_point_count_bounded, which lists no axis
        assert_exits_2(
            cli(["sweep", "--preset", "fig2", "--step", "5e-324"]),
            "error: snr_db_range has more than",
        )

    @pytest.mark.parametrize(
        "args, value",
        [
            (["bound", "--snr-db", "150.5"], 150.5),
            (["bound", "--snr-db", "-100"], -100.0),
            (["sweep", "--preset", "fig3", "--snr-db", "-61"], -61.0),
            (["sweep", "--preset", "fig2", "--stop", "152"], 152.0),
        ],
        ids=["bound-high", "bound-low", "fig3-snr", "fig2-stop"],
    )
    def test_out_of_range_snr_exits_2(self, cli, no_point_evaluated, args, value):
        # outside the input box: rejected before any point is evaluated
        assert_exits_2(
            cli([*args, "--scheme", "ub", "--out", "o.csv"]),
            f"error: {refusal('SNR', value, 'dB')}\n",
        )

    @pytest.mark.parametrize(
        "args, key, value",
        [
            (["bound", "--c1", "61"], "c1", 61.0),
            (["bound", "--c2", "61"], "c2", 61.0),
            (["bound", "--c1", "nan"], "c1", math.nan),
            (["bound", "--c2", "-1"], "c2", -1.0),
            (["sweep", "--preset", "fig2", "--c1", "61"], "c1", 61.0),
            (["sweep", "--preset", "fig3", "--stop", "61"], "c1", 61.0),
        ],
        ids=["bound-c1", "bound-c2", "bound-nan", "bound-negative", "fig2-budget", "fig3-stop"],
    )
    def test_out_of_range_budget_exits_2(self, cli, no_point_evaluated, args, key, value):
        result = cli([*args, "--scheme", "ub", "--out", "o.csv"])
        assert_exits_2(result, f"error: {refusal(key, value, 'bits')}\n")

    @pytest.mark.parametrize("flag", ["--tol"])
    def test_zero_setting_exits_2(self, cli, flag):
        # rejected before the first check runs: nothing is printed
        assert_exits_2(cli(["verify", flag, "0"]))

    def test_bound_zero_tol_exits_2(self, cli):
        assert_exits_2(cli(["bound", "--scheme", "ub", "--tol", "0"]))

    def test_seed_zero_accepted(self, stubbed_checks, cli):
        result = cli(["verify", "--seed", "0"])
        assert result.returncode == 0
        assert stubbed_checks == {"seed": 101}  # solver_vs_grid's offset
        assert result.stdout.endswith("10/10 checks passed\n")

    @pytest.mark.parametrize("key, value", [("seed", -1)])
    def test_verify_rejects_one_below_oracle_limit(self, stubbed_checks, cli, key, value):
        with pytest.raises(InvalidArgument):
            verify.verify(**{key: value})
        result = cli(["verify", "--" + key.replace("_", "-"), str(value)])
        assert_exits_2(result)
        assert result.stderr.startswith("error:")
        assert stubbed_checks == {}  # rejected before the first check ran

    def test_bound_out_writes_csv(self, cli, tmp_path):
        result = cli(["bound", "--scheme", "ub", "--c1", "3", "--out", "point.csv"])
        assert result.returncode == 0, result.stderr
        rows = parse_csv((tmp_path / "point.csv").read_bytes())
        assert rows[0]["c_bits"] == 3.0

    def test_unwritable_out_exits_1(self, cli, no_point_evaluated):
        # an I/O failure is exit 1, reported on one line; the output is
        # opened once the point passes the box check, before it is evaluated
        result = cli(["bound", "--scheme", "ub", "--out", "missing/x.csv"])
        assert result.returncode == 1, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("error: [Errno 2] No such file or directory")
        assert result.stderr.count("\n") == 1

    def test_unwritable_sweep_out_exits_1(self, cli, no_point_evaluated):
        # as for bound: all 31 points pass the box check, and none is evaluated
        result = cli(["sweep", "--preset", "fig2", "--out", "missing/x.csv"])
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize(
        "args", [["bound", "--snr-db", "-100"], ["sweep", "--preset", "fig2", "--stop", "152"]],
        ids=["bound", "sweep"],
    )
    def test_refused_point_leaves_existing_out_untouched(self, cli, no_point_evaluated, args):
        Path("o.csv").write_text("kept\n")
        result = cli([*args, "--out", "o.csv"])
        assert result.returncode == 2, result.stderr
        assert Path("o.csv").read_text() == "kept\n"

    def test_unknown_scheme_exits_2(self, tmp_path):
        # the one case run as `python -m diamond_bottleneck`: main's return
        # value must reach the exit status through __main__'s sys.exit
        result = run_cli(["bound", "--scheme", "magic"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "unknown scheme" in result.stderr

    @pytest.mark.parametrize("scheme, column", [("mmse", "mmse_halfwidth"), ("tci", "tci_threshold")])
    def test_nonfinite_rate_leaves_cells_empty(self, cli, monkeypatch, scheme, column):
        # a NaN rate fails its cell like an exception, whether its scheme
        # finishes before the first kernel round (mmse) or in it (tci);
        # inside the input box neither returns one, so each is stubbed to
        if scheme == "mmse":
            nan = MmseResult(math.nan, math.nan)
            monkeypatch.setattr(sweeps, "mmse_rate", lambda config, settings: nan)
        else:
            def nan_round(config):
                point = yield from tci._best_round(config)
                return replace(point, rate=math.nan)

            monkeypatch.setattr(sweeps, "_best_round", nan_round)
        result = cli(["bound", "--snr-db", "10", "--c1", "5", "--scheme", f"ub,{scheme}"])
        assert result.returncode == 0, result.stderr
        row = parse_csv(result.stdout.encode())[0]
        assert row[scheme] is None and row[column] is None
        assert row["ub"] is not None and row["ub_residual"] is not None
        assert f"warning: scheme {scheme} failed" in result.stderr
        assert "non-finite rate" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize(
        "axis",
        [
            ["--preset", "fig3", "--start", "nan", "--stop", "2"],
            ["--preset", "fig2", "--stop", "inf"],
        ],
    )
    def test_nonfinite_sweep_axis_exits_2(self, cli, axis):
        result = cli(["sweep", *axis, "--scheme", "ub", "--out", "o.csv"])
        assert_exits_2(result, "must be finite")  # no point was evaluated
        assert "Traceback" not in result.stderr

    def test_sweep_needs_mode(self, cli):
        # --preset is the only selector: axis flags alone pick no axis
        for args in ([], ["--stop", "10", "--scheme", "ub", "--out", "o.csv"]):
            result = cli(["sweep", *args])
            assert_exits_2(result)
            assert result.stderr.count("error: sweep needs --preset fig2 or fig3\n") == 1

    def test_sweep_unknown_preset(self, cli):
        assert_exits_2(cli(["sweep", "--preset", "fig9"]))

    def test_custom_budget_sweep(self, cli, tmp_path):
        result = cli([
            "sweep", "--preset", "fig3", "--start", "2", "--stop", "4",
            "--step", "1", "--scheme", "ub", "--out", "o.csv",
        ])
        assert result.returncode == 0, result.stderr
        assert "wrote o.csv" in result.stdout
        rows = parse_csv((tmp_path / "o.csv").read_bytes())
        assert [row["c_bits"] for row in rows] == [2.0, 3.0, 4.0]
        assert all(row["rho_db"] == 40.0 for row in rows)  # default SNR

    @pytest.mark.parametrize(
        "mode, unread, message",
        [
            # the fixed input and axis it reads pass; the other preset's is named
            (["--preset", "fig2"], {"c1": "3", "stop": "10", "snr-db": "10"},
             "preset fig2 does not read --snr-db"),
            (["--preset", "fig2"], {"snr-db": "30"}, "preset fig2 does not read --snr-db"),
            (["--preset", "fig3"], {"c1": "4"}, "preset fig3 does not read --c1"),
        ],
        ids=["preset", "snr", "budget"],
    )
    def test_sweep_mode_rejects_flags_it_does_not_read(self, cli, mode, unread, message):
        extra = [arg for key, value in unread.items() for arg in (f"--{key}", value)]
        assert_exits_2(cli(["sweep", *mode, *extra, "--out", "o.csv"]), f"error: {message}")

    def test_custom_axes_start_from_the_presets(self, cli, tmp_path, fig2_runs, fig3_run):
        # an axis or fixed-input flag changes only what it gives, and writes
        # sweep.csv, so a custom curve never overwrites the preset's file
        def written(args, name):
            result = cli(["sweep", *args])
            assert result.returncode == 0 and result.stderr == "", result.stderr
            return (tmp_path / name).read_bytes()

        two = ["--scheme", "ub,tci"]
        fig2 = written(["--preset", "fig2", *two], "fig2.csv")
        assert written(["--preset", "fig2", "--c1", "10", *two], "sweep.csv") == fig2
        assert written(["--preset", "fig3", "--snr-db", "40"], "sweep.csv") == fig3_run[0]
        head = written(["--preset", "fig2", "--stop", "10"], "sweep.csv")
        assert head.splitlines() == fig2_runs[0].splitlines()[:7]
        assert (tmp_path / "fig2.csv").read_bytes() == fig2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fig2.csv", "sweep.csv"]

    def test_custom_snr_sweep_rejects_unequal_budgets(self, cli):
        # sweep has no --c2: both budgets of an snr sweep are --c1
        assert_exits_2(cli(["sweep", "--preset", "fig2", "--c1", "4", "--c2", "6"]))

    def test_repeatable_scheme_flag(self, cli):
        result = cli(["bound", "--scheme", "ub", "--scheme", "tci", "--c1", "2"])
        assert result.returncode == 0, result.stderr
        rows = parse_csv(result.stdout.encode())
        assert set(rows[0]) == {
            "rho_db", "c_bits", "ub", "tci", "ub_residual", "tci_threshold",
        }

    def test_verify_passes(self, tmp_path):
        # a full verify in an interpreter where importing SciPy fails: the
        # checks need nothing past the runtime's one dependency, NumPy
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from diamond_bottleneck.cli import main\n"
                "sys.exit(main(['verify']))")
        result = run_python(["-c", code], tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.endswith("10/10 checks passed\n")
        assert "FAIL" not in result.stdout

    def test_verify_passes_at_a_coarse_tolerance(self, cli, monkeypatch):
        # --tol loosens upper_bound's bisection and water_level's residual
        # limit with it; solver_vs_grid reads no tolerance and is stubbed to
        # spare its lattices
        monkeypatch.setattr(verify, "_check_solver_vs_grid", lambda seed, count: (True, "stub"))
        result = cli(["verify", "--tol", "1e-3"])
        assert result.returncode == 0, result.stdout
        assert result.stdout.endswith("10/10 checks passed\n")

    def test_verify_detects_seeded_fault(self, stubbed_checks, monkeypatch, cli):
        def crash():
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(
            verify, "_check_one_relay", lambda seed, count: (False, "synthetic miss")
        )
        monkeypatch.setattr(verify, "_check_mmse_calibration", crash)
        result = cli(["verify"])
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  one_relay_reduction    synthetic miss",
            "FAIL  mmse_calibration       raised RuntimeError: synthetic crash",
        ]
        assert lines[-1] == "8/10 checks passed"


@pytest.fixture
def stubbed_checks(monkeypatch):
    """Replace every verify check by one that passes at once; returns the
    generator seed that reached solver_vs_grid."""
    seen = {}

    def passing(*args, **kwargs):
        return True, "stub"

    def solver_vs_grid(seed, count):
        seen["seed"] = seed
        return True, "stub"

    for name in dir(verify):
        if name.startswith("_check_"):
            monkeypatch.setattr(verify, name, passing)
    monkeypatch.setattr(verify, "_check_solver_vs_grid", solver_vs_grid)
    return seen


# The mmse columns of the presets at seed 7 when mmse was a Monte Carlo
# estimate: its value and 95% half-width.
MONTE_CARLO_COLUMNS = ("rho_db", "c_bits", "mmse", "mmse_halfwidth")


def select_columns(data: bytes, names: tuple[str, ...]) -> bytes:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    keep = [header.index(name) for name in names]
    return "".join(
        ",".join(line.split(",")[k] for k in keep) + "\n" for line in lines
    ).encode("utf-8")


class TestPresetGolden:
    """The preset files, byte for byte, against a recording
    (tests/data/*_deterministic.csv): a speed-up of the solvers must not move
    a single digit of the curves, and no column may come or go unseen."""

    def test_fig2(self, fig2_runs):
        assert fig2_runs[0] == (DATA / "fig2_deterministic.csv").read_bytes()

    def test_fig3(self, fig3_run):
        assert fig3_run[0] == (DATA / "fig3_deterministic.csv").read_bytes()


class TestRowsStandAlone:
    """Every preset row equals, byte for byte, the row that render_points
    gives for its point alone, which is what `bound` prints: no row depends
    on the rows before it."""

    @staticmethod
    def check(data: bytes, spec: SweepSpec) -> None:
        lines = data.decode("utf-8").splitlines()
        points = sweep_points(spec)
        assert len(lines) == len(points) + 1
        for line, (snr_db, c1, c2) in zip(lines[1:], points):
            assert list(render_points([(snr_db, c1, c2)], SCHEMES, SETTINGS)) == [lines[0], line]

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
