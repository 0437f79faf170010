import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as stn

from spectratact import NoiseModel, SensorConfig, cli, sweep, twin
from spectratact.cli import CliError, main
from spectratact.errors import (BelowFloorError, BelowThresholdError, ConfigError,
                                DegenerateFitError, GridMismatchError, NoContactError,
                                NonMonotoneDataError, SaturatedError, UnreachableError,
                                UnusableSampleError)
from spectratact.twin import TwinAssembly, encoder_sensor_config


@pytest.fixture()
def line_config_path(tmp_path):
    path = tmp_path / "sensor.json"
    path.write_text(json.dumps(encoder_sensor_config().to_dict()))
    return str(path)


@pytest.fixture()
def band_config_path(tmp_path):
    path = tmp_path / "band_sensor.json"
    path.write_text(json.dumps(SensorConfig.default().to_dict()))
    return str(path)


@pytest.fixture()
def twin_config_path(tmp_path):
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(TwinAssembly().to_dict()))
    return str(path)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(path):
    lines = read(path).strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_missing_config_exits_2(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o"), "--positions", "0:85:5",
                     "--forces", "2"])
        assert code == 2

    def test_row_count_and_manifest(self, line_config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--config", line_config_path, "--out", str(out),
                     "--positions", "0:85:18", "--forces", "1,2,5"])
        assert code == 0
        header, rows = csv_rows(out / "sweep.csv")
        assert header[:2] == ["position_mm", "force_n"]
        assert len(rows) == 18 * 3
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "simulate"
        assert manifest["config_sha256"]

    def test_failed_write_leaves_no_temporary_file(self, line_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "sweep.csv").mkdir(parents=True)  # os.replace cannot put a file there
        assert main(["simulate", "--config", line_config_path, "--out", str(out),
                     "--positions", "10", "--forces", "2"]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]
        assert not any((out / "sweep.csv").iterdir())

    def test_rerun_byte_identical(self, line_config_path, tmp_path):
        args = ["simulate", "--config", line_config_path, "--positions", "0:85:10",
                "--forces", "2", "--snr-db", "30", "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")
        assert read(tmp_path / "a" / "manifest.json") == read(tmp_path / "b" / "manifest.json")

    def test_replay_from_manifest(self, line_config_path, tmp_path):
        assert main(["simulate", "--config", line_config_path,
                     "--out", str(tmp_path / "a"), "--positions", "0:85:10",
                     "--forces", "2", "--snr-db", "30", "--seed", "11"]) == 0
        assert main(["replay", "--manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")

    def test_replay_rejects_changed_config(self, line_config_path, tmp_path, capsys):
        assert main(["simulate", "--config", line_config_path,
                     "--out", str(tmp_path / "a"), "--positions", "0:85:10",
                     "--forces", "2", "--snr-db", "30", "--seed", "11"]) == 0
        recorded = json.loads(read(tmp_path / "a" / "manifest.json"))["config_sha256"]
        doc = json.loads(read(line_config_path))
        doc["clear_loss_per_mm"] += 0.001
        with open(line_config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["replay", "--manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert recorded in err
        with open(line_config_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() in err
        assert not (tmp_path / "b").exists()

    def test_out_of_range_position_exits_2(self, line_config_path, tmp_path):
        code = main(["simulate", "--config", line_config_path,
                     "--out", str(tmp_path / "o"), "--positions", "0:120:5",
                     "--forces", "2"])
        assert code == 2

    def test_value_list_may_start_with_a_minus(self, line_config_path, tmp_path):
        # argparse took "-0.0,10" for an option: "expected one argument", exit 2
        base = ["simulate", "--config", line_config_path]
        assert main(base + ["--positions", "-0.0,10", "--forces", "-0.0,2",
                            "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--positions=-0.0,10", "--forces=-0.0,2",
                            "--out", str(tmp_path / "b")]) == 0
        assert main(["replay", "--manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "c")]) == 0
        sweep_csv = read(tmp_path / "a" / "sweep.csv")
        assert sweep_csv.split("\n")[1].startswith("-0.0,-0.0,")
        assert read(tmp_path / "b" / "sweep.csv") == read(tmp_path / "c" / "sweep.csv") \
            == sweep_csv

    def test_abbreviated_value_list_may_start_with_a_minus(self, line_config_path, tmp_path):
        # only the full option names were joined: "--pos -0.0,10" exited 2
        base = ["simulate", "--config", line_config_path]
        assert main(base + ["--pos", "-0.0,10", "--for", "-0.0,2",
                            "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--positions=-0.0,10", "--forces=-0.0,2",
                            "--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")

    @pytest.mark.parametrize("argv, values", [
        (["--lengths", "-1,85", "--concentrations", "-0.5"], ("-1,85", "-0.5")),
        (["--concentrations", "-1:2:3", "--lengths", "-inf"], ("-inf", "-1:2:3")),
        (["--lengths=-1", "--concentrations", "--x"], None),  # '--x' is no value list
        (["--lengths", "1", "--concentrations"], None),
        (["--lengths", "85", "--conc", "-1"], ("85", "-1")),  # as --concentrations=-1
    ])
    def test_every_value_list_option_takes_a_leading_minus(self, argv, values, capsys):
        argv = ["sweep-design", "--config", "c.json", "--out", "o"] + argv
        if values is None:
            with pytest.raises(SystemExit):
                cli._parse_args(argv)
            assert "--concentrations: expected one argument" in capsys.readouterr().err
        else:
            args = cli._parse_args(argv)
            assert (args.lengths, args.concentrations) == values


class TestCalibrate:
    def run_pipeline(self, config_path, tmp_path, positions="0:85:86", forces="2", noise=()):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(sim),
                     "--positions", positions, "--forces", forces, *noise]) == 0
        cal = tmp_path / "cal"
        code = main(["calibrate", "--config", config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")])
        return code, cal, sim

    def test_noise_free_fit_is_exact(self, line_config_path, tmp_path, capsys):
        code, cal, _ = self.run_pipeline(line_config_path, tmp_path)
        assert code == 0
        doc = json.loads(read(cal / "calibration.json"))
        assert doc["position"]["r_squared"] > 1.0 - 1e-9
        printed = capsys.readouterr().out
        assert repr(doc["position"]["r_squared"]) in printed

    def test_force_calibration_included_when_sweep_has_forces(
        self, band_config_path, tmp_path
    ):
        sim = tmp_path / "sim"
        forces = ",".join(
            repr(f) for f in [0.1, 0.3, 0.8, 1.5, 2.5, 4.0, 6.0, 8.0, 10.0]
        )
        assert main(["simulate", "--config", band_config_path, "--out", str(sim),
                     "--positions", "42.5", "--forces", forces]) == 0
        cal = tmp_path / "cal"
        code = main(["calibrate", "--config", band_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")])
        assert code == 3  # single position cannot fit the position model
        # mix in a position sweep and it works end to end
        sim2 = tmp_path / "sim2"
        assert main(["simulate", "--config", band_config_path, "--out", str(sim2),
                     "--positions", "0:85:18", "--forces", "2"]) == 0
        merged = tmp_path / "merged.csv"
        a = read(sim / "sweep.csv").strip().splitlines()
        b = read(sim2 / "sweep.csv").strip().splitlines()
        merged.write_text("\n".join(a + b[1:]) + "\n")
        code = main(["calibrate", "--config", band_config_path, "--out", str(cal),
                     "--samples", str(merged)])
        assert code == 0
        doc = json.loads(read(cal / "calibration.json"))
        assert "force" in doc and len(doc["force"]["forces_n"]) == 9

    def test_noisy_force_sweep_fits_the_readable_rows(self, band_config_path, tmp_path, capsys):
        # absolute noise lights channels of rows at the 0.1 N contact
        # threshold, and clamps ch_B to 0 at the far end of loaded rows
        code, cal, _ = self.run_pipeline(band_config_path, tmp_path, positions="0:85:40",
                                         forces="0.1,0.5,1,3,8",
                                         noise=("--noise-sigma", "0.5", "--seed", "9"))
        assert code == 0
        assert math.isfinite(json.loads(read(cal / "calibration.json"))["position"]["slope"])
        assert ("skipped 40 row(s) at or below the contact threshold, "
                "47 row(s) with a ratio channel at zero") in capsys.readouterr().out

    def test_two_rows_exit_3(self, line_config_path, tmp_path):
        code, _, _ = self.run_pipeline(line_config_path, tmp_path, positions="10,10")
        assert code == 3

    def test_position_only_calibration_has_no_force_key(self, line_config_path, tmp_path):
        code, cal, _ = self.run_pipeline(line_config_path, tmp_path, positions="0:85:12")
        assert code == 0
        assert sorted(json.loads(read(cal / "calibration.json"))) == ["position", "transmission"]

    def test_unloadable_transmission_is_not_written(self, tmp_path, capsys):
        # noise lights far rows whose noise-free transmission underflows to zero;
        # calibrate once wrote that zero factor, which decode then refused to load
        config = SensorConfig.default()
        path = tmp_path / "dense.json"
        dye = replace(config.dye, concentration_scale=5000.0)
        path.write_text(json.dumps(replace(config, dye=dye).to_dict()))
        code, cal, _ = self.run_pipeline(str(path), tmp_path, positions="0:85:20",
                                         noise=("--noise-sigma", "0.5", "--seed", "1"))
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: degenerate data: {tmp_path / 'sim' / 'sweep.csv'}: noise-free transmission "
            "underflows to 0 at 27.051809210526315 mm of the fitted span "
            "[0.0, 80.52631578947368] mm\n")
        assert not cal.exists()

    @pytest.mark.parametrize("text", ["", "force_n,ch_B,ch_R\n1,1,1\n2,2,1\n3,3,1\n"])
    def test_samples_without_positions_exit_2_naming_the_column(self, text, line_config_path,
                                                               tmp_path, capsys):
        # a missing column is an input error, as a header without ch_* columns is (it exited 3)
        samples, out = tmp_path / "samples.csv", tmp_path / "o"
        samples.write_text(text)
        assert main(["calibrate", "--config", line_config_path, "--out", str(out),
                     "--samples", str(samples)]) == 2
        header = text.split("\n")[0].split(",") if text else []
        assert capsys.readouterr().err == (f"error: {samples}: no position_mm column in header "
                                           f"{header}\n")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--numerator", "--denominator"])
    def test_missing_ratio_channel_exits_2(self, option, line_config_path, tmp_path, capsys):
        _, _, sim = self.run_pipeline(line_config_path, tmp_path, positions="0:85:12")
        out = tmp_path / "o"
        assert main(["calibrate", "--config", line_config_path, "--out", str(out),
                     "--samples", str(sim / "sweep.csv"), option, "Q"]) == 2
        assert capsys.readouterr().err == (f"error: {sim / 'sweep.csv'}: no ch_Q column for "
                                           "the calibration's ratio channel 'Q'\n")
        assert not out.exists()


class TestDecode:
    def test_round_trip_positions(self, line_config_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "0:85:86", "--forces", "2"]) == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        dec = tmp_path / "dec"
        assert main(["decode", "--calibration", str(cal / "calibration.json"),
                     "--readings", str(sim / "sweep.csv"), "--out", str(dec)]) == 0
        _, rows = csv_rows(dec / "decoded.csv")
        truth = np.linspace(0.0, 85.0, 86)
        for row, expected in zip(rows, truth):
            assert row[2] == "ok"
            assert abs(float(row[0]) - expected) < 1e-6

    def test_empty_input(self, line_config_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "0:85:5", "--forces", "2"]) == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        empty = tmp_path / "empty.csv"
        empty.write_text(read(sim / "sweep.csv").splitlines()[0] + "\n")
        dec = tmp_path / "dec"
        assert main(["decode", "--calibration", str(cal / "calibration.json"),
                     "--readings", str(empty), "--out", str(dec)]) == 0
        _, rows = csv_rows(dec / "decoded.csv")
        assert rows == []

    def test_corrupt_and_dead_rows_flagged(self, line_config_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "10,40,70", "--forces", "2"]) == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        lines = read(sim / "sweep.csv").strip().splitlines()
        lines.append("20.0,2.0,not_a_number,1.0,0")
        lines.append("30.0,2.0,0.0,0.0,1")
        mangled = tmp_path / "mangled.csv"
        mangled.write_text("\n".join(lines) + "\n")
        dec = tmp_path / "dec"
        assert main(["decode", "--calibration", str(cal / "calibration.json"),
                     "--readings", str(mangled), "--out", str(dec)]) == 0
        _, rows = csv_rows(dec / "decoded.csv")
        assert [r[2] for r in rows] == ["ok", "ok", "ok", "corrupt_row", "no_contact"]

    def test_non_finite_channels_are_corrupt(self, line_config_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "10,40,70", "--forces", "2"]) == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        lines = read(sim / "sweep.csv").strip().splitlines()
        lines += ["20.0,2.0,nan,1.0,0", "30.0,2.0,1.0,inf,0", "35.0,2.0,-inf,1.0,0"]
        mangled = tmp_path / "mangled.csv"
        mangled.write_text("\n".join(lines) + "\n")
        dec = tmp_path / "dec"
        assert main(["decode", "--calibration", str(cal / "calibration.json"),
                     "--readings", str(mangled), "--out", str(dec)]) == 0
        _, rows = csv_rows(dec / "decoded.csv")
        assert [r[2] for r in rows] == ["ok"] * 3 + ["corrupt_row"] * 3
        code = main(["calibrate", "--config", line_config_path, "--out", str(tmp_path / "c2"),
                     "--samples", str(mangled)])
        assert code == 3

    def test_zero_slope_calibration_exits_2(self, line_config_path, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "10,40,70", "--forces", "2"]) == 0
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        for slope in (0.0, math.nan, math.inf):
            doc = json.loads(read(cal / "calibration.json"))
            doc["position"]["slope"] = slope
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(doc))
            code = main(["decode", "--calibration", str(broken),
                         "--readings", str(sim / "sweep.csv"), "--out", str(tmp_path / "d")])
            assert code == 2
            assert "slope" in capsys.readouterr().err


    @pytest.fixture()
    def calibrated(self, band_config_path, tmp_path):
        sim, cal = tmp_path / "sim", tmp_path / "cal"
        assert main(["simulate", "--config", band_config_path, "--out", str(sim),
                     "--positions", "0:85:12", "--forces", "0.1:10:9",
                     "--snr-db", "40", "--seed", "5"]) == 0
        assert main(["calibrate", "--config", band_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        return sim / "sweep.csv", json.loads(read(cal / "calibration.json"))

    @pytest.mark.parametrize("section, key, value", [
        ("transmission", "factors", math.nan),
        ("transmission", "factors", 0.0),
        ("transmission", "factors", -1.0),
        ("transmission", "positions_mm", math.nan),
        ("position", "span_mm", math.nan),
    ])
    def test_bad_calibration_exits_2(self, calibrated, section, key, value, tmp_path,
                                     capsys):
        readings, doc = calibrated
        doc[section][key] = [value] * len(doc[section][key])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["decode", "--calibration", str(broken), "--readings", str(readings),
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert key.split("_")[0] in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


    @pytest.mark.parametrize("key", ["forces_n", "normalized"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_infinite_last_knot_exits_2(self, calibrated, key, value, tmp_path, capsys):
        # an infinite last knot keeps the knots strictly increasing, so only
        # a finiteness check stops it; a NaN one is named the same way
        readings, doc = calibrated
        doc["force"][key][-1] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["decode", "--calibration", str(broken), "--readings", str(readings),
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert "knots must be finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestTrack:
    def test_zero_noise_exact_and_reproducible(self, twin_config_path, tmp_path):
        args = ["track", "--config", twin_config_path,
                "--generate", "S:40:40:120:40", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        report = json.loads(read(tmp_path / "a" / "report.json"))
        assert report["max_error_mm"] < 1e-6
        assert report["max_error_mm"] >= report["rms_error_mm"]
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "reconstructed.csv") == \
            read(tmp_path / "b" / "reconstructed.csv")
        assert read(tmp_path / "a" / "report.json") == read(tmp_path / "b" / "report.json")

    def test_noisy_seeded_run_reproducible(self, twin_config_path, tmp_path):
        args = ["track", "--config", twin_config_path,
                "--generate", "circle:30:40:120:25", "--seed", "9",
                "--angle-sigma-deg", "0.04"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read(tmp_path / "a" / "report.json") == read(tmp_path / "b" / "report.json")

    def test_trajectory_csv_input(self, twin_config_path, tmp_path):
        traj = tmp_path / "traj.csv"
        rows = ["t_s,x_mm,y_mm"] + [
            f"{t},{40.0 + t},{120.0}" for t in range(5)
        ]
        traj.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["track", "--config", twin_config_path, "--trajectory", str(traj),
                     "--out", str(out)]) == 0
        _, rec = csv_rows(out / "reconstructed.csv")
        assert len(rec) == 5

    @pytest.mark.parametrize("row", ["1.0,nan,120.0", "1.0,41.0,nan"])
    def test_nan_coordinate_exits_2_naming_the_sample(self, row, twin_config_path, tmp_path,
                                                      capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text(f"t_s,x_mm,y_mm\n0.0,40.0,120.0\n{row}\n2.0,42.0,120.0\n")
        out = tmp_path / "out"
        code = main(["track", "--config", twin_config_path, "--trajectory", str(traj),
                     "--out", str(out)])
        assert code == 2
        assert "trajectory sample 1 " in capsys.readouterr().err
        assert not out.exists()

    def test_unreachable_trajectory_exits_4(self, twin_config_path, tmp_path):
        traj = tmp_path / "traj.csv"
        traj.write_text("t_s,x_mm,y_mm\n0.0,40.0,500.0\n1.0,41.0,500.0\n")
        code = main(["track", "--config", twin_config_path, "--trajectory", str(traj),
                     "--out", str(tmp_path / "out")])
        assert code == 4


class TestSweepDesign:
    def test_concentration_doubling_doubles_slope(self, line_config_path, tmp_path):
        out = tmp_path / "d"
        assert main(["sweep-design", "--config", line_config_path, "--out", str(out),
                     "--lengths", "85", "--concentrations", "1.0,2.0"]) == 0
        _, rows = csv_rows(out / "design.csv")
        assert len(rows) == 2
        slopes = {float(r[1]): float(r[2]) for r in rows}
        assert slopes[2.0] == pytest.approx(2.0 * slopes[1.0], rel=1e-9)

    def test_single_point(self, line_config_path, tmp_path):
        out = tmp_path / "d"
        assert main(["sweep-design", "--config", line_config_path, "--out", str(out),
                     "--lengths", "100", "--concentrations", "1.5"]) == 0
        _, rows = csv_rows(out / "design.csv")
        assert len(rows) == 1
        assert float(rows[0][0]) == 100.0

    def test_grid_reaching_the_dead_zone_exits_3(self, band_config_path, tmp_path, capsys):
        # at 200 mm the far end of the default sensor reads zero on its blue channel
        code = main(["sweep-design", "--config", band_config_path, "--out", str(tmp_path / "d"),
                     "--lengths", "30,40,50,200", "--concentrations", "0.25,0.5,1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "in the dead zone" in err
        assert "design point length=200.0 conc=1.0: " in err

    def test_length_outside_bounds_exits_2(self, line_config_path, tmp_path):
        code = main(["sweep-design", "--config", line_config_path,
                     "--out", str(tmp_path / "d"), "--lengths", "250",
                     "--concentrations", "1.0"])
        assert code == 2


class TestSlopeFloor:
    """A position fit whose slope is rounding noise does not load (exit 3, or 2 on decode)."""

    def test_zero_dye_design_point_exits_3(self, band_config_path, tmp_path, capsys):
        code = main(["sweep-design", "--config", band_config_path, "--out", str(tmp_path / "d"),
                     "--lengths", "85", "--concentrations", "0"])
        assert code == 3
        assert "slope" in capsys.readouterr().err

    def test_tiny_dye_still_fits(self, band_config_path, tmp_path):
        out = tmp_path / "d"
        assert main(["sweep-design", "--config", band_config_path, "--out", str(out),
                     "--lengths", "85", "--concentrations", "1e-12"]) == 0
        _, rows = csv_rows(out / "design.csv")
        assert float(rows[0][2]) == pytest.approx(-1.35e-13, rel=0.01)
        assert float(rows[0][4]) > 1.0 - 1e-8

    def test_zero_dye_calibrate_exits_3(self, tmp_path, capsys):
        config = SensorConfig.default()
        path = tmp_path / "clear.json"
        dye = replace(config.dye, concentration_scale=0.0)
        path.write_text(json.dumps(replace(config, dye=dye).to_dict()))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(sim),
                     "--positions", "0:85:18", "--forces", "2"]) == 0
        code = main(["calibrate", "--config", str(path), "--out", str(tmp_path / "cal"),
                     "--samples", str(sim / "sweep.csv")])
        assert code == 3
        assert "slope" in capsys.readouterr().err

    def test_decode_of_a_floor_slope_exits_2(self, line_config_path, tmp_path, capsys):
        sim, cal = tmp_path / "sim", tmp_path / "cal"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "10,40,70", "--forces", "2"]) == 0
        assert main(["calibrate", "--config", line_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        doc = json.loads(read(cal / "calibration.json"))
        doc["position"]["slope"] = -1.5627977236758838e-19  # sweep-design's zero-dye fit
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["decode", "--calibration", str(broken),
                     "--readings", str(sim / "sweep.csv"), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "slope" in capsys.readouterr().err


class TestReplay:
    """Every command's manifest records its parsed options and replays byte for byte."""

    CASES = {
        "simulate": (["--config", "{band}", "--positions", "0:85:7", "--forces", "1,4",
                      "--noise-sigma", "0.3", "--seed", "2"],
                     {"positions", "forces", "snr_db", "noise_sigma"}),
        "calibrate": (["--config", "{band}", "--samples", "{sim}"],
                      {"samples", "numerator", "denominator"}),
        "decode": (["--calibration", "{cal}", "--readings", "{sim}"],
                   {"calibration", "readings"}),
        "track": (["--config", "{twin}", "--generate", "circle:30:40:120:20",
                   "--snr-db", "40", "--seed", "5"],
                  {"trajectory", "generate", "snr_db", "noise_sigma", "angle_sigma_deg"}),
        "sweep-design": (["--config", "{band}", "--lengths", "60,85",
                          "--concentrations", "1,1.5", "--probe-force", "2.5"],
                         {"lengths", "concentrations", "probe_force"}),
    }

    @pytest.fixture()
    def inputs(self, band_config_path, twin_config_path, tmp_path):
        sim, cal = tmp_path / "sim", tmp_path / "cal"
        assert main(["simulate", "--config", band_config_path, "--out", str(sim),
                     "--positions", "0:85:12", "--forces", "0.1:10:11",
                     "--snr-db", "40", "--seed", "5"]) == 0
        assert main(["calibrate", "--config", band_config_path, "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        return {"band": band_config_path, "twin": twin_config_path,
                "sim": str(sim / "sweep.csv"), "cal": str(cal / "calibration.json")}

    def test_each_call_parses_its_own_options(self, band_config_path, tmp_path):
        # main reuses one parser; no option of one call may leak into the next
        base = ["simulate", "--config", band_config_path, "--positions", "0:85:7",
                "--forces", "2", "--seed", "3"]
        runs = {"snr": ["--snr-db", "30"], "sigma": ["--noise-sigma", "0.2"], "none": []}
        for name, noise in runs.items():
            assert main(base + noise + ["--out", str(tmp_path / name)]) == 0
        args = {name: json.loads(read(tmp_path / name / "manifest.json"))["args"]
                for name in runs}
        assert [(args[n]["snr_db"], args[n]["noise_sigma"]) for n in runs] == \
            [(30.0, None), (None, 0.2), (None, None)]
        sweeps = {name: read(tmp_path / name / "sweep.csv") for name in runs}
        assert len(set(sweeps.values())) == 3
        for name in ("none", "sigma", "snr"):  # replay re-enters main
            again = tmp_path / f"{name}_again"
            assert main(["replay", "--manifest", str(tmp_path / name / "manifest.json"),
                         "--out", str(again)]) == 0
            assert read(again / "sweep.csv") == sweeps[name]
            assert json.loads(read(again / "manifest.json"))["args"] == args[name]

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_replay_reproduces_every_file(self, command, inputs, tmp_path):
        argv, keys = self.CASES[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--out", str(first)]
                    + [arg.format(**inputs) for arg in argv]) == 0
        manifest = json.loads(read(first / "manifest.json"))
        assert manifest["command"] == command
        assert set(manifest["args"]) == keys
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(again))
        for name in names:
            assert read(first / name) == read(again / name), name


class TestBadInput:
    @pytest.mark.parametrize("command", ["simulate", "track", "replay"])
    def test_non_object_json_exits_2(self, command, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text("[1, 2]")
        argv = {
            "simulate": ["--config", str(doc), "--positions", "10", "--forces", "2"],
            "track": ["--config", str(doc), "--generate", "circle:30:40:120:5"],
            "replay": ["--manifest", str(doc)],
        }[command]
        assert main([command, "--out", str(tmp_path / "o")] + argv) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "track", "sweep-design"])
    def test_bend_beyond_half_turn_exits_2(self, command, line_config_path, tmp_path,
                                           capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", line_config_path, "--out", str(sim),
                     "--positions", "10,40,70", "--forces", "2"]) == 0
        sensor = json.loads(read(line_config_path))
        sensor["perturbation"] = {"bend_deg": 200.0}
        config = tmp_path / "bent.json"
        config.write_text(json.dumps({"sensor": sensor} if command == "track" else sensor))
        argv = {
            "simulate": ["--positions", "10", "--forces", "2"],
            "calibrate": ["--samples", str(sim / "sweep.csv")],
            "track": ["--generate", "circle:30:40:120:5"],
            "sweep-design": ["--lengths", "85", "--concentrations", "1"],
        }[command]
        code = main([command, "--config", str(config), "--out", str(tmp_path / "o")] + argv)
        assert code == 2
        at = "sensor.perturbation.bend_deg" if command == "track" else "perturbation.bend_deg"
        assert capsys.readouterr().err == \
            f"error: {config}: '{at}' must lie in [0, 180], got 200.0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    @pytest.mark.parametrize("flag", ["--noise-sigma", "--snr-db"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_exits_2(self, command, flag, value, line_config_path,
                                      twin_config_path, tmp_path, capsys):
        argv = {
            "simulate": ["--config", line_config_path, "--positions", "10", "--forces", "2"],
            "track": ["--config", twin_config_path, "--generate", "circle:30:40:120:5"],
        }[command]
        out = tmp_path / "o"
        assert main([command, "--out", str(out), flag, value] + argv) == 2
        assert f"noise value must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_overflowing_noise_sigma_exits_2(self, command, band_config_path, twin_config_path,
                                             tmp_path, capsys):
        # sigma * draw past the float range escaped main as a RuntimeWarning, and
        # without the warning a -inf was clamped to zero and written as a reading
        argv = {
            "simulate": ["--config", band_config_path, "--positions", "10:80:50",
                         "--forces", "1,2"],
            "track": ["--config", twin_config_path, "--generate", "circle:30:40:120:50"],
        }[command]
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--noise-sigma", "1e308"] + argv) == 2
        assert "channel intensities must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_overflowing_source_exits_2(self, command, tmp_path, capsys):
        # a finite source near the float maximum overflows the noise-free forward
        # model; its inf channels must not be written as readings or decode as poses,
        # and numpy's overflow warning from the bank integral must not escape main
        sensor = SensorConfig.default().to_dict()
        sensor["source"]["values"] = [1e308] * len(sensor["source"]["values"])
        if command == "simulate":
            doc, argv = sensor, ["--positions", "10,40", "--forces", "2"]
        else:
            doc = dict(TwinAssembly().to_dict(), sensors=[sensor, sensor])
            argv = ["--generate", "circle:30:40:120:5"]
        config, out = tmp_path / "config.json", tmp_path / "o"
        config.write_text(json.dumps(doc))
        assert main([command, "--config", str(config), "--out", str(out)] + argv) == 2
        assert (f"{config}: source values integrated over the channel bank must be finite"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("generate", ["line:10:nan:120:5", "line:inf:40:120:5"])
    def test_non_finite_generated_path_exits_2(self, generate, twin_config_path, tmp_path,
                                               capsys):
        code = main(["track", "--config", twin_config_path, "--out", str(tmp_path / "o"),
                     "--generate", generate])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("generate, detail", [
        ("circle:30", "not enough values to unpack (expected 5, got 2)"),
        ("circle:30:40:120:25:1", "too many values to unpack (expected 5)"),
        ("circle:40:40:125:1e3", "invalid literal for int()"),
        ("circle:forty:40:125:50", "could not convert string to float: 'forty'"),
    ])
    def test_malformed_generate_spec_exits_2(self, generate, detail, twin_config_path,
                                             tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["track", "--config", twin_config_path, "--out", str(out),
                     "--generate", generate])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--generate spec {generate!r} (shape:scale:cx:cy:n): {detail}" in err
        assert not out.exists()

    @pytest.mark.parametrize("generate, message", [
        ("circle:30:40:120:1", "need at least 2 samples"),
        ("square:30:40:120:5", "unknown path shape 'square'"),
    ])
    def test_generate_path_keeps_its_messages(self, generate, message, twin_config_path,
                                              tmp_path, capsys):
        code = main(["track", "--config", twin_config_path, "--out", str(tmp_path / "o"),
                     "--generate", generate])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "--generate spec" not in err

    @pytest.mark.parametrize("command, option, spec", [
        ("simulate", "--positions", "0:85:0"),
        ("simulate", "--forces", ""),
        ("sweep-design", "--lengths", ""),
        ("sweep-design", "--concentrations", ","),
    ])
    def test_empty_value_list_exits_2(self, command, option, spec, line_config_path,
                                      tmp_path, capsys):
        values = {"simulate": {"--positions": "10", "--forces": "2"},
                  "sweep-design": {"--lengths": "85", "--concentrations": "1"}}[command]
        values[option] = spec
        out = tmp_path / "o"
        argv = [arg for pair in values.items() for arg in pair]
        assert main([command, "--config", line_config_path, "--out", str(out)] + argv) == 2
        assert f"{option} spec {spec!r} gives no values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["generate", "trajectory"])
    def test_negative_seed_exits_2(self, source, twin_config_path, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        traj.write_text("t_s,x_mm,y_mm\n0.0,40.0,120.0\n")
        argv = {"generate": ["--generate", "circle:40:40:125:50"],  # 100 (sample, joint) rows
                "trajectory": ["--trajectory", str(traj)]}[source]  # 2 rows
        code = main(["track", "--config", twin_config_path, "--out", str(tmp_path / "o"),
                     "--angle-sigma-deg", "0.05", "--seed", "-1"] + argv)
        assert code == 2
        assert "expected non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [["--snr-db", "30"], []], ids=["noisy", "noise_free"])
    def test_negative_seed_simulate_exits_2_writing_nothing(self, noise, line_config_path,
                                                              tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--config", line_config_path, "--out", str(out),
                     "--positions", "10", "--forces", "2", "--seed", "-1"] + noise)
        assert code == 2
        err = capsys.readouterr().err
        assert "simulate --seed -1" in err and "expected non-negative integer" in err
        assert not out.exists()

    def test_replay_of_negative_seed_exits_2(self, line_config_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "simulate", "seed": -1, "config_path": line_config_path,
            "config_sha256": hashlib.sha256(Path(line_config_path).read_bytes()).hexdigest(),
            "args": {"positions": "10", "forces": "2"}}))
        out = tmp_path / "o"
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "--seed -1: expected non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_non_object_args_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "simulate", "args": [1]}))
        assert main(["replay", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        assert "'args' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"length_mm": 10**400}),
        ("decode", {"position": {"slope": 10**400}}),
    ])
    def test_number_past_float_range_exits_2(self, command, doc, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {
            "simulate": ["--config", str(path), "--positions", "10", "--forces", "2"],
            "decode": ["--calibration", str(path), "--readings", str(path)],
        }[command]
        assert main([command, "--out", str(tmp_path / "o")] + argv) == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("b, r", [("1e-300", "1e30"), ("1e30", "1e-300")],
                             ids=["underflow", "overflow"])
    def test_ratio_past_float_range_exits_3(self, b, r, band_config_path, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"position_mm,force_n,ch_B,ch_G,ch_R\n10,2,{b},1,{r}\n"
                           "20,2,0.5,1,1\n30,2,0.4,1,1\n40,2,0.3,1,1\n")
        code = main(["calibrate", "--config", band_config_path, "--out", str(tmp_path / "o"),
                     "--samples", str(samples)])
        assert code == 3
        assert "B/R ratio past the float range at rows [0]" in capsys.readouterr().err

    def test_unusable_row_named_as_a_csv_row(self, band_config_path, tmp_path, capsys):
        # the first row is below the contact threshold, so the fit skips it
        samples = tmp_path / "samples.csv"
        samples.write_text("position_mm,force_n,ch_B,ch_G,ch_R\n5,0,0,0,0\n"
                           "10,2,1e-300,1,1e30\n20,2,0.5,1,1\n30,2,0.4,1,1\n40,2,0.3,1,1\n")
        code = main(["calibrate", "--config", band_config_path, "--out", str(tmp_path / "o"),
                     "--samples", str(samples)])
        assert code == 3
        assert "1 sample(s) in the dead zone or with a B/R ratio past the float range " \
            "at rows [1]" in capsys.readouterr().err

    def test_twin_with_one_sensor_exits_2(self, tmp_path, capsys):
        config = tmp_path / "twin.json"
        config.write_text(json.dumps({"sensors": [encoder_sensor_config().to_dict()]}))
        code = main(["track", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--generate", "circle:30:40:120:5"])
        assert code == 2
        assert "per joint" in capsys.readouterr().err

    def test_angle_sigma_excludes_noise_flags(self, twin_config_path, tmp_path):
        for flag in (["--snr-db", "30"], ["--noise-sigma", "0.1"]):
            assert main(["track", "--config", twin_config_path, "--out", str(tmp_path / "o"),
                         "--generate", "circle:30:40:120:5", "--angle-sigma-deg", "0.05"]
                        + flag) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["offset_mm", "arc_gain_mm_per_deg"])
    def test_infinite_encoder_exits_2_naming_it(self, key, tmp_path, capsys):
        # JSON 1e999 reads as inf; an infinite encoder map once dropped every sample, exit 0
        doc = copy.deepcopy(TWIN_DOC)
        doc["encoders"][0][key] = math.inf
        config = tmp_path / "twin.json"
        config.write_text(json.dumps(doc).replace("Infinity", "1e999"))
        code = main(["track", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--generate", "circle:20:40:125:5"])
        assert code == 2
        assert f"'encoders[0].{key}' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_clear_loss_exits_2_naming_it(self, tmp_path, capsys):
        # it reached the forward model, where -inf * 0 made a NaN channel
        config = tmp_path / "sensor.json"
        config.write_text(json.dumps(dict(SENSOR_DOC, clear_loss_per_mm=math.inf))
                          .replace("Infinity", "1e999"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--positions", "0,10", "--forces", "2"])
        assert code == 2
        assert "'clear_loss_per_mm' must be finite and >= 0, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("line_nm", ["NaN", "1e6", "-5"])
    def test_line_channel_off_the_grid_exits_2_naming_it(self, line_nm, tmp_path, capsys):
        # 1e6 and -5 became 700 nm and 400 nm channels, and simulate exited 0
        bank = '{"channels": [{"name": "B", "line_nm": 450}, {"name": "R", "line_nm": %s}]}'
        config = tmp_path / "sensor.json"
        config.write_text('{"bank": %s}' % (bank % line_nm))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--positions", "10", "--forces", "2"])
        assert code == 2
        assert "'bank.channels[1].line_nm' must lie in [400, 700]" in capsys.readouterr().err
        assert not out.exists()

    def test_power_past_the_float_range_saturates(self, band_config_path, tmp_path):
        # gain * (f - f0) ** 2 raised OverflowError out of main at 1e200 N
        sensor = json.loads(read(band_config_path))
        sensor["coupling"]["exponent"] = 2.0
        config = tmp_path / "sensor.json"
        config.write_text(json.dumps(sensor))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--positions", "10", "--forces", "1e6,1e200"])
        assert code == 0
        _, rows = csv_rows(tmp_path / "o" / "sweep.csv")
        assert rows[0][2:] == rows[1][2:]  # both forces couple all the light

    def test_track_that_reconstructs_nothing_reports_no_error(self, twin_config_path,
                                                              tmp_path, capsys):
        # rms and max once read 0.0, as for a perfect run
        out = tmp_path / "o"
        code = main(["track", "--config", twin_config_path, "--out", str(out),
                     "--generate", "circle:30:40:125:2", "--noise-sigma", "1e300"])
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert (report["rms_error_mm"], report["max_error_mm"], report["dropped"]) == \
            (None, None, 2)
        assert "track: rms=n/a, max=n/a, dropped=2/2" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [("seed", 2.5), ("seed", True), ("seed", "x"),
                                              ("command", "replay"), ("command", None),
                                              ("command", "nope")])
    def test_replay_of_a_bad_manifest_field_exits_2_naming_it(self, field, value,
                                                              line_config_path, tmp_path,
                                                              capsys):
        # each raised SystemExit out of main with a usage text that named no field
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "simulate", "seed": 0, "config_path": line_config_path,
            "config_sha256": hashlib.sha256(Path(line_config_path).read_bytes()).hexdigest(),
            "args": {"positions": "10", "forces": "2"}, field: value}))
        out = tmp_path / "o"
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"'{field}' must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"out": "elsewhere"}, {"o": "elsewhere"},
                                       {"bogus": "1"}, {"forces": None}])
    def test_replay_runs_only_the_recorded_options(self, extra, line_config_path, tmp_path,
                                                   capsys, monkeypatch):
        # --out in args, or its abbreviation --o, once redirected the replay's output
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "simulate", "config_path": line_config_path,
            "config_sha256": hashlib.sha256(Path(line_config_path).read_bytes()).hexdigest(),
            "args": {"positions": "10", "forces": "2", **extra}}))
        assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert "'args'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "elsewhere").exists()


SAMPLES = "position_mm,force_n,ch_B,ch_G,ch_R\n"
CALIBRATE = ["calibrate", "--config", "{band}", "--samples", "{tmp}/input"]
DECODE = ["decode", "--calibration", "{tmp}/input", "--readings", "{tmp}/input"]
TRACK_CSV = ["track", "--config", "{twin}", "--trajectory", "{tmp}/input"]
TRACK_NOISY = ["track", "--config", "{twin}", "--generate", "circle:30:40:125:10",
               "--angle-sigma-deg"]


def calibration_text(**force) -> str:
    """A calibration.json that loads but for the force knots updated by ``force``."""
    return json.dumps({
        "position": {"slope": -0.14, "intercept": 0.1, "r_squared": 1.0, "residual_std": 0.0,
                     "numerator_ch": "B", "denominator_ch": "R", "span_mm": [0.0, 85.0]},
        "transmission": {"positions_mm": [0.0, 85.0], "factors": [100.0, 50.0]},
        "force": dict({"forces_n": [0.5, 1.0, 2.0], "normalized": [0.1, 0.2, 0.4]}, **force)})


# per exception class main maps, and per refusal no other test reaches: (the class a real
# input raises, the exit code, argv, the text of {tmp}/input, the message after "error: ")
EXIT_CASES = {
    "CliError-2": (CliError, 2, ["track", "--config", "{twin}", "--generate", "circle:30"],
                   None, "cannot parse --generate spec 'circle:30' (shape:scale:cx:cy:n): "
                   "not enough values to unpack (expected 5, got 2)"),
    "CliError-2-positions": (CliError, 2, [
        "simulate", "--config", "{band}", "--positions", "1:2", "--forces", "2"], None,
        "cannot parse --positions spec '1:2' (start:stop:count): "
        "not enough values to unpack (expected 3, got 2)"),
    "CliError-2-no-channels": (CliError, 2, CALIBRATE, "position_mm,force_n\n10,2\n",
                               "{tmp}/input: no ch_* columns in header "
                               "['position_mm', 'force_n']"),
    "CliError-2-missing-samples": (CliError, 2, [
        "calibrate", "--config", "{band}", "--samples", "{tmp}/missing.csv"], None,
        "file not found: {tmp}/missing.csv"),
    "CliError-3": (CliError, 3, CALIBRATE, SAMPLES + "10,2,x,1,1\n20,2,0.5,1,1\n",
                   "{tmp}/input: unparsable rows at [0]"),
    # NaN force was skipped as "at or below the contact threshold", exit 0; an infinite or
    # NaN position exited 3 for a NaN slope, inf after a RuntimeWarning.  calibrate_samples
    # refuses them, as the CLI alone once did
    "UnusableSampleError-nan-force": (UnusableSampleError, 3, CALIBRATE, SAMPLES + (
        "10,nan,0.5,1,1\n20,2,0.4,1,1\n30,2,0.3,1,1\n40,2,0.2,1,1\n"),
        "degenerate data: {tmp}/input: non-finite position_mm or force_n at rows [0]"),
    "UnusableSampleError-inf-position": (UnusableSampleError, 3, CALIBRATE, SAMPLES + (
        "10,2,0.5,1,1\n20,2,0.4,1,1\n-inf,2,0.3,1,1\n40,2,0.2,1,1\ninf,2,0.2,1,1\n"),
        "degenerate data: {tmp}/input: non-finite position_mm or force_n at rows [2, 4]"),
    "UnusableSampleError-nan-position": (UnusableSampleError, 3, CALIBRATE, SAMPLES + (
        "10,2,0.5,1,1\nnan,2,0.4,1,1\n30,2,0.3,1,1\n40,2,0.2,1,1\n"),
        "degenerate data: {tmp}/input: non-finite position_mm or force_n at rows [1]"),
    # a negative or non-finite channel read as "unparsable rows" from the CLI, while a
    # library call took a negative one into the fit and raised ValueError for NaN
    "UnusableSampleError-bad-channel": (UnusableSampleError, 3, CALIBRATE, SAMPLES + (
        "10,2,-0.5,1,1\n20,2,0.4,1,1\n30,2,0.3,nan,1\n40,2,0.2,1,inf\n"),
        "degenerate data: {tmp}/input: negative or non-finite channel at rows [0, 2, 3]"),
    # the calibrate_samples errors below named neither the file nor the force-fit position
    "DegenerateFitError": (DegenerateFitError, 3, CALIBRATE,
                           SAMPLES + "10,2,0.5,1,1\n20,2,0.4,1,1\n",
                           "degenerate data: {tmp}/input: need at least 3 samples, got 2"),
    "NonMonotoneDataError": (NonMonotoneDataError, 3, CALIBRATE, SAMPLES + (
        "10,2,0.5,1,1\n20,2,0.4,1,1\n30,1,0.3,1,1\n30,2,0.3,0.5,1\n30,3,0.3,0.2,1\n"),
        "degenerate data: {tmp}/input: force fit at 30.0 mm: normalized intensities must be "
        "strictly increasing with force"),
    "UnusableSampleError": (UnusableSampleError, 3, CALIBRATE, SAMPLES + (
        "10,2,1e-300,1,1e30\n20,2,0.5,1,1\n30,2,0.4,1,1\n40,2,0.3,1,1\n"),
        "degenerate data: {tmp}/input: 1 sample(s) in the dead zone or with a B/R ratio past "
        "the float range at rows [0]"),
    "KinematicError": (UnreachableError, 4, TRACK_CSV,
                       "t_s,x_mm,y_mm\n0.0,40.0,500.0\n1.0,41.0,500.0\n",
                       "kinematics: no trajectory sample is reachable on the working branch"),
    "OSError": (IsADirectoryError, 2,  # a directory as the config
                ["simulate", "--config", "{tmp}", "--positions", "10", "--forces", "2"], None,
                "Is a directory: '{tmp}'"),
    # exited 2 with a bare "trajectory is empty", naming no file
    "CliError-2-header-only-trajectory": (CliError, 2, TRACK_CSV, "t_s,x_mm,y_mm\n",
                                          "{tmp}/input: empty trajectory"),
    # exited 2 with "bad trajectory row ['1.0', 'x', '118.0']: could not convert ...", naming
    # neither file nor column
    "CliError-2-trajectory-field": (CliError, 2, TRACK_CSV,
                                    "t_s,x_mm,y_mm\n0.0,40.0,120.0\n1.0,x,118.0\n",
                                    "{tmp}/input: row 1: no number in column 'x_mm'"),
    "ValueError": (ValueError, 2, TRACK_CSV, "t_s,x_mm,y_mm\n0.0,nan,120.0\n",
                   "trajectory sample 0 has a NaN time or coordinate"),
    "ValueError-infinite-time": (ValueError, 2, TRACK_CSV,  # -inf and inf were written, exit 0
                                 "t_s,x_mm,y_mm\n-inf,40.0,120.0\n0,40.0,121.0\ninf,40.0,122.0\n",
                                 "trajectory sample 0 has the infinite time -inf"),
    "ValueError-infinite-force": (ValueError, 2, [  # inf was written to sweep.csv, exit 0
        "simulate", "--config", "{band}", "--positions", "10", "--forces", "2,1e400"], None,
        "force_n must be finite and >= 0, got inf"),
    "ValueError-same-ratio-channel": (ValueError, 2, CALIBRATE + [
        "--numerator", "B", "--denominator", "B"], SAMPLES + "10,2,0.5,1,1\n",
        "numerator and denominator channels must differ"),
    "ValueError-angle-sigma-zero": (ValueError, 2, TRACK_NOISY + ["0"], None,
                                    "sigma_deg must be > 0"),
    "ValueError-angle-sigma-huge": (ValueError, 2, TRACK_NOISY + ["1e6"], None,
                                    "target angle noise exceeds the sensor's dynamic range"),
    "ConfigError": (ConfigError, 2, DECODE, "[]",
                    "{tmp}/input: expected a JSON object, got an array"),
    # NonMonotoneDataError from the knots once left decode with exit 3, naming no file
    "CliError-2-reversed-forces": (CliError, 2, DECODE,
                                   calibration_text(forces_n=[2.0, 1.0, 0.5]),
                                   "invalid calibration {tmp}/input: "
                                   "knot forces must be strictly increasing"),
    "CliError-2-reversed-normalized": (CliError, 2, DECODE,
                                       calibration_text(normalized=[0.4, 0.2, 0.1]),
                                       "invalid calibration {tmp}/input: normalized "
                                       "intensities must be strictly increasing with force"),
    "ConfigError-bend": (ConfigError, 2, [
        "simulate", "--config", "{tmp}/input", "--positions", "10", "--forces", "2"],
        json.dumps({"perturbation": {"bend_deg": 200.0}}),
        "{tmp}/input: 'perturbation.bend_deg' must lie in [0, 180], got 200.0"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_code_contract(case, band_config_path, twin_config_path, tmp_path, capsys,
                            monkeypatch):
    """Each exception class main maps is reached by a real input and exits with its code
    and message.

    No CLI input is known to reach the KeyError that main also maps.
    """
    cls, code, argv, text, message = EXIT_CASES[case]
    if text is not None:
        (tmp_path / "input").write_text(text)
    raised, run = [], cli._run

    def spy(args):
        try:
            return run(args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(cli, "_run", spy)
    paths = {"tmp": tmp_path, "band": band_config_path, "twin": twin_config_path}
    out = tmp_path / "o"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == code
    assert raised == [cls]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(**paths) in err
    assert not out.exists()


@pytest.mark.parametrize("cls", [GridMismatchError, BelowFloorError, NoContactError,
                                 BelowThresholdError, SaturatedError])
def test_every_typed_error_is_mapped(cls, tmp_path, capsys, monkeypatch):
    # these typed errors have no exit code of their own, and once escaped main as tracebacks
    def run(args):
        raise cls("typed")

    monkeypatch.setattr(cli, "_run", run)
    assert main(["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"),
                 "--positions", "10", "--forces", "2"]) == 2
    assert capsys.readouterr().err == "error: typed\n"


TWIN_KEYS = ("fivebar", "sensors", "sensor", "encoders", "indenter_force_n")
TWIN_DOC = TwinAssembly().to_dict()
SENSOR_DOC = SensorConfig.default().to_dict()
DELETE = object()


def json_values(keys=()):
    """Any JSON value; object keys are short strings or drawn from ``keys``."""
    return stn.recursive(
        stn.none() | stn.booleans() | stn.integers() | stn.floats() | stn.text(max_size=4)
        | stn.sampled_from([10**400, -10**400]),  # past the float range
        lambda inner: stn.lists(inner, max_size=3)
        | stn.dictionaries(stn.sampled_from(keys) | stn.text(max_size=4) if keys
                           else stn.text(max_size=4), inner, max_size=3),
        max_leaves=6)


@stn.composite
def edited_docs(draw, base, values=json_values()):
    """``base`` with up to three values, at any depth, replaced or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(stn.integers(1, 3))):
        node = doc
        while True:
            key = draw(stn.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(stn.booleans()):
                node = node[key]
                continue
            value = draw(values | stn.just(DELETE))
            if value is DELETE:
                del node[key]
            else:
                node[key] = value
            break
        if not doc:
            break
    return doc


@functools.cache
def real_run() -> dict:
    """The files of a small CLI run: ``sensor.json`` and ``sweep.csv`` as text,
    ``calibration.json`` and the ``simulate`` manifest as documents.

    The manifest names its config ``sensor.json``, relative to the working directory.
    """
    files = {"sensor.json": json.dumps(SENSOR_DOC)}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        config, sim, cal = (os.path.join(tmp, name) for name in ("sensor.json", "sim", "cal"))
        Path(config).write_text(files["sensor.json"])
        assert main(["simulate", "--config", config, "--out", sim, "--positions", "0:85:6",
                     "--forces", "0.1,1,4,10", "--snr-db", "40", "--seed", "5"]) == 0
        assert main(["calibrate", "--config", config, "--out", cal,
                     "--samples", os.path.join(sim, "sweep.csv")]) == 0
        files["sweep.csv"] = read(os.path.join(sim, "sweep.csv"))
        files["calibration.json"] = json.loads(read(os.path.join(cal, "calibration.json")))
        files["manifest.json"] = dict(json.loads(read(os.path.join(sim, "manifest.json"))),
                                      config_path="sensor.json")
    return files


class TestTrackConfigProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=json_values(TWIN_KEYS)
           | stn.fixed_dictionaries({}, optional={k: json_values(TWIN_KEYS) for k in TWIN_KEYS})
           | edited_docs(TWIN_DOC, json_values(TWIN_KEYS)))
    # each of these escaped main as AttributeError or OverflowError
    @example(doc={"fivebar": None})
    @example(doc={"sensor": [1]})
    @example(doc={"sensor": {"coupling": 0.5}})
    @example(doc={"sensor": {"perturbation": []}})
    @example(doc={"encoders": ["x", "y"]})
    @example(doc={"indenter_force_n": 10**400})
    # the dye exponent overflowed: numpy RuntimeWarnings, NaN intensities
    @example(doc={"sensor": {**TWIN_DOC["sensors"][0],
                             "dye": {**TWIN_DOC["sensors"][0]["dye"],
                                     "concentration_scale": 1e308}}})
    # an infinite encoder map dropped every sample and exited 0
    @example(doc={"encoders": [{"offset_mm": math.inf}, {}]})
    @example(doc={"encoders": [{}, {"arc_gain_mm_per_deg": math.inf}]})
    def test_any_json_config_exits_cleanly(self, tmp_path, doc):
        config = tmp_path / "twin.json"
        config.write_text(json.dumps(doc))
        code = main(["track", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--generate", "circle:20:40:125:5"])
        assert code in (0, 2, 3, 4)


class TestDocumentProperties:
    """Every edit of a real input document exits 0, 2, 3 or 4 with nothing escaping main."""

    SETTINGS = settings(max_examples=40, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @SETTINGS
    @given(doc=edited_docs(SENSOR_DOC))
    # -inf * 0 made a NaN channel at position 0
    @example(doc=dict(SENSOR_DOC, clear_loss_per_mm=math.inf))
    # line channels off the grid became 400 and 700 nm channels
    @example(doc=dict(SENSOR_DOC, bank={"channels": [{"name": "B", "line_nm": 1e6},
                                                     {"name": "R", "line_nm": -5.0}]}))
    @example(doc=dict(SENSOR_DOC, bank={"channels": [{"name": "B", "line_nm": math.nan}]}))
    # float() read the string and the bool as numbers
    @example(doc=dict(SENSOR_DOC, length_mm="85"))
    @example(doc=dict(SENSOR_DOC, length_mm=True))
    def test_simulate_sensor_config(self, tmp_path, doc):
        config = tmp_path / "sensor.json"
        config.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--positions", "0,10,85", "--forces", "0,2"])
        assert code in (0, 2, 3, 4)

    @SETTINGS
    @given(doc=stn.deferred(lambda: edited_docs(real_run()["calibration.json"])))
    @example(doc={"position": {"slope": 10**400}})
    def test_decode_calibration(self, tmp_path, doc):
        calibration, readings = tmp_path / "calibration.json", tmp_path / "sweep.csv"
        calibration.write_text(json.dumps(doc))
        readings.write_text(real_run()["sweep.csv"])
        code = main(["decode", "--calibration", str(calibration), "--readings", str(readings),
                     "--out", str(tmp_path / "o")])
        assert code in (0, 2, 3, 4)

    @SETTINGS
    @given(doc=stn.deferred(lambda: edited_docs(real_run()["manifest.json"])))
    # each of these raised SystemExit out of main
    @example(doc={"command": "simulate", "seed": 2.5})
    @example(doc={"command": "simulate", "seed": True})
    @example(doc={"command": "simulate", "seed": "x"})
    @example(doc={"command": "replay"})
    @example(doc={"command": None})
    @example(doc={"command": "nope"})
    def test_replay_manifest(self, tmp_path, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)  # the manifest's relative paths resolve in tmp_path
        Path("sensor.json").write_text(real_run()["sensor.json"])
        Path("manifest.json").write_text(json.dumps(doc))
        code = main(["replay", "--manifest", "manifest.json", "--out", "o"])
        assert code in (0, 2, 3, 4)


def option_values():
    """A simulate value list: up to three numbers, some past the float range or not finite."""
    numbers = stn.floats() | stn.integers(-100, 100) | stn.sampled_from([1e200, -1e300])
    return stn.lists(numbers, min_size=1, max_size=3).map(lambda vs: ",".join(map(repr, vs)))


class TestOptionProperties:
    @TestDocumentProperties.SETTINGS
    @given(positions=option_values(), forces=option_values(),
           noise=stn.sampled_from(["--snr-db", "--noise-sigma"]),
           level=stn.floats().map(repr))
    # argparse read each value as an option and raised SystemExit out of main
    @example(positions="10", forces="-1e300,1", noise="--snr-db", level="30")
    @example(positions="10", forces="2", noise="--snr-db", level="-1e300")
    # an infinite force was written to sweep.csv, which calibrate then refused
    @example(positions="10", forces="inf", noise="--snr-db", level="30")
    def test_simulate_option_values(self, band_config_path, tmp_path, positions, forces,
                                    noise, level):
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"  # tmp_path is shared by the examples
        code = main(["simulate", "--config", band_config_path, "--out", str(out),
                     "--positions", positions, "--forces", forces, noise, level])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert not out.exists()
            return
        _, channels, position, force, parsed = cli._read_samples(str(out / "sweep.csv"))
        assert parsed.all() and ((channels >= 0) & (channels < np.inf)).all()
        assert np.isfinite(position).all() and np.isfinite(force).all()


def stimulus_values(lo, hi):
    """Up to three stimulus values in [lo, hi], as the comma list simulate takes."""
    return stn.lists(stn.floats(lo, hi), min_size=1, max_size=3)


TRAJECTORY_FIELDS = (stn.sampled_from(["nan", "inf", "-inf", "1e309", "", "abc", " 3 ", "-0.0",
                                       "40", "125", "1e300"])
                     | stn.floats().map(repr) | stn.floats(-20.0, 160.0).map(repr))


@stn.composite
def trajectory_texts(draw):
    """A trajectory CSV: shuffled, extra or missing columns with odd fields, or any text."""
    if draw(stn.booleans()):
        return draw(stn.text(max_size=80))
    columns = draw(stn.permutations(["t_s", "x_mm", "y_mm", "z"]))[:draw(stn.integers(3, 4))]
    rows = draw(stn.lists(stn.lists(TRAJECTORY_FIELDS, max_size=4), max_size=4))
    return "\n".join(",".join(row) for row in [columns] + rows)


class TestCsvProperties:
    @TestDocumentProperties.SETTINGS
    @given(positions=stimulus_values(0.0, 85.0), forces=stimulus_values(0.0, 20.0),
           noise=stn.none() | stn.tuples(stn.just("snr_db"), stn.floats(1.0, 80.0))
           | stn.tuples(stn.just("absolute_sigma"), stn.floats(0.0, 10.0)),
           seed=stn.integers(0, 2**64))
    # simulate writes each axis value's text once, so repeats on both axes, a signed zero,
    # the least subnormal and a repr with an exponent must still read back bit for bit
    @example(positions=[10.0, 10.0, 20.0], forces=[0.0, 2.0, 2.0], noise=None, seed=4)
    @example(positions=[10.0, 10.0, 20.0], forces=[0.0, 2.0, 2.0], noise=("snr_db", 30.0),
             seed=4)
    @example(positions=[-0.0, 0.0, -0.0], forces=[0.0, -0.0, 2.0], noise=None, seed=0)
    @example(positions=[5e-324, 5e-324, 85.0], forces=[1e16, 5e-324, 1e16],
             noise=("snr_db", 30.0), seed=1)
    def test_samples_csv_reads_back_as_the_sweep(self, band_config_path, tmp_path, positions,
                                                 forces, noise, seed):
        flags = [] if noise is None else \
            [{"snr_db": "--snr-db", "absolute_sigma": "--noise-sigma"}[noise[0]], repr(noise[1])]
        out = tmp_path / "o"
        assert main(["simulate", "--config", band_config_path, "--out", str(out),
                     "--positions", ",".join(map(repr, positions)),  # may start with "-0.0"
                     "--forces", ",".join(map(repr, forces)),
                     "--seed", str(seed)] + flags) == 0
        config = SensorConfig.default()
        model = None if noise is None else NoiseModel(*noise, seed)
        xs, fs, values = sweep(config, positions, forces, model, seed=seed)

        names, channels, position, force, parsed = cli._read_samples(str(out / "sweep.csv"))
        assert names == config.bank.names
        assert parsed.all()
        for got, want in ((position, xs), (force, fs), (channels, values)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # and its rows are the bytes csv.writer writes for the float columns
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [x, f, *vs, int(not any(vs))]
            for x, f, vs in zip(xs.tolist(), fs.tolist(), values.tolist()))
        assert read(out / "sweep.csv").split("\n", 1)[1] == buf.getvalue()

    @TestDocumentProperties.SETTINGS
    @given(text=trajectory_texts())
    @example(text="t_s,x_mm,y_mm\n")
    def test_any_trajectory_csv_exits_cleanly(self, twin_config_path, tmp_path, text):
        trajectory = tmp_path / "trajectory.csv"
        trajectory.write_text(text, encoding="utf-8")
        code = main(["track", "--config", twin_config_path, "--trajectory", str(trajectory),
                     "--out", str(tmp_path / "o")])
        assert code in (0, 2, 3, 4)


# float texts that csv.writer writes in odd forms: a signed zero, the least subnormal,
# exponents on both sides, and the non-finite values
ODD_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf]
BODY_VALUES = (stn.sampled_from(ODD_FLOATS) | stn.floats() | stn.sampled_from([0, 1])
               | stn.sampled_from([*cli.DECODE_FLAGS.tolist(), ""]))


@stn.composite
def typed_tables(draw):
    """A header of names with commas, quotes and spaces, and rows of body values."""
    header = draw(stn.lists(stn.text(stn.sampled_from('ch_ab ,"'), max_size=6),
                            min_size=2, max_size=5))
    rows = draw(stn.lists(stn.lists(BODY_VALUES, min_size=len(header), max_size=len(header)),
                          max_size=6))
    return header, rows


class TestCsvWriter:
    @TestDocumentProperties.SETTINGS
    @given(table=typed_tables())
    @example(table=(["position_mm", "force_n"], []))  # the zero-row table
    @example(table=(['ch_g,"x"', "flag"], [[-0.0, ""], [5e-324, "ok"], [math.inf, 1]]))
    def test_columns_write_the_bytes_of_csv_writer(self, tmp_path, table):
        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        texts = [[v if isinstance(v, str) else repr(v) if isinstance(v, float) else str(v)
                  for v in column] for column in zip(*rows)]
        path = tmp_path / "table.csv"
        cli._write_csv(str(path), header, texts)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_quoted_channel_name_round_trips_through_the_chain(self, tmp_path):
        from spectratact.spectral import line_bank
        config = tmp_path / "sensor.json"
        bank = line_bank([('g,"x"', 450.0), ("G", 550.0), ("R", 650.0)])
        config.write_text(json.dumps(SensorConfig(bank=bank).to_dict()))
        sim, cal, dec = (tmp_path / name for name in ("sim", "cal", "dec"))
        assert main(["simulate", "--config", str(config), "--out", str(sim),
                     "--positions", "0:85:18", "--forces", "2"]) == 0
        assert read(sim / "sweep.csv").split("\n", 1)[0] == \
            'position_mm,force_n,"ch_g,""x""",ch_G,ch_R,below_floor'
        assert main(["calibrate", "--config", str(config), "--out", str(cal),
                     "--samples", str(sim / "sweep.csv")]) == 0
        assert json.loads(read(cal / "calibration.json"))["position"]["numerator_ch"] == 'g,"x"'
        assert main(["decode", "--calibration", str(cal / "calibration.json"),
                     "--readings", str(sim / "sweep.csv"), "--out", str(dec)]) == 0
        with open(dec / "decoded.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["ok"] * 18
        assert np.allclose([float(row[0]) for row in rows], np.linspace(0.0, 85.0, 18),
                           rtol=0.0, atol=1e-6)


class TestArtifactModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_every_artifact_gets_the_mode_open_gives(self, line_config_path, twin_config_path,
                                                     tmp_path, umask):
        out = tmp_path / "out"
        runs = [
            ["simulate", "--config", line_config_path, "--out", str(out / "sim"),
             "--positions", "0:85:18", "--forces", "1,2,5"],
            ["calibrate", "--config", line_config_path, "--out", str(out / "cal"),
             "--samples", str(out / "sim" / "sweep.csv")],
            ["decode", "--calibration", str(out / "cal" / "calibration.json"),
             "--readings", str(out / "sim" / "sweep.csv"), "--out", str(out / "dec")],
            ["track", "--config", twin_config_path, "--out", str(out / "track"),
             "--generate", "circle:10:40:120:5"],
            ["sweep-design", "--config", line_config_path, "--out", str(out / "design"),
             "--lengths", "40,85", "--concentrations", "1"],
            ["replay", "--manifest", str(out / "sim" / "manifest.json"),
             "--out", str(out / "replay")],
        ]
        previous = os.umask(umask)
        try:
            assert [main(argv) for argv in runs] == [0] * len(runs)
        finally:
            os.umask(previous)
        modes = {str(p.relative_to(out)): p.stat().st_mode & 0o777
                 for p in out.rglob("*") if p.is_file()}
        assert len(modes) == 13
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)


class TestByteOrderMark:
    """A CSV saved with a UTF-8 byte-order mark, or ending in a blank line, reads as the same
    file without it."""

    @staticmethod
    def outputs(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "manifest.json"}

    def test_samples_readings_and_trajectory(self, band_config_path, twin_config_path,
                                             tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", band_config_path, "--out", str(sim),
                     "--positions", "0:85:18", "--forces", "0.5,2,5"]) == 0
        samples = read(sim / "sweep.csv")
        lines = samples.splitlines(keepends=True)
        lines[3] = "x" + lines[3][lines[3].index(","):]  # a position that is not a float
        inputs = {"samples.csv": samples, "readings.csv": "".join(lines),
                  "trajectory.csv": "t_s,x_mm,y_mm\n0.0,40.0,120.0\n1.0,45.0,118.0\n"}
        # a trailing blank line, as some editors save a file: track exited 2, calibrate exited 3
        # with "unparsable rows at [N]" and decode wrote an extra ",,corrupt_row" row
        for stem, bom, blank in (("plain", "", ""), ("bom", "\ufeff", ""), ("blank", "", "\n")):
            folder = tmp_path / stem
            folder.mkdir()
            for name, text in inputs.items():
                (folder / name).write_text(bom + text + blank, encoding="utf-8")
            assert main(["calibrate", "--config", band_config_path, "--out", str(folder / "cal"),
                         "--samples", str(folder / "samples.csv")]) == 0
            assert main(["decode", "--calibration", str(tmp_path / "plain" / "cal" /
                                                        "calibration.json"),
                         "--readings", str(folder / "readings.csv"),
                         "--out", str(folder / "dec")]) == 0
            assert main(["track", "--config", twin_config_path, "--out", str(folder / "track"),
                         "--trajectory", str(folder / "trajectory.csv")]) == 0
        assert (tmp_path / "bom" / "samples.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
        for run in ("cal", "dec", "track"):
            plain = self.outputs(tmp_path / "plain" / run)
            for edited in ("bom", "blank"):
                assert self.outputs(tmp_path / edited / run) == plain
        with open(tmp_path / "bom" / "dec" / "decoded.csv", newline="") as fh:
            assert list(csv.reader(fh))[3][2] == "corrupt_row"

    def test_json_inputs(self, band_config_path, twin_config_path, tmp_path):
        """A sensor config, a twin config, a calibration.json and a manifest with a BOM."""
        def bom_copy(path):
            copy = tmp_path / f"bom_{Path(path).parent.name}_{Path(path).name}"
            copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
            return str(copy)

        def run(name, argv):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            return self.outputs(tmp_path / name)

        simulate = ["simulate", "--positions", "0:85:18", "--forces", "0.5,2,5", "--config"]
        assert run("sim", simulate + [band_config_path]) \
            == run("sim_bom", simulate + [bom_copy(band_config_path)])
        assert main(["calibrate", "--config", band_config_path, "--out", str(tmp_path / "cal"),
                     "--samples", str(tmp_path / "sim" / "sweep.csv")]) == 0
        calibration = str(tmp_path / "cal" / "calibration.json")
        decode = ["decode", "--readings", str(tmp_path / "sim" / "sweep.csv"), "--calibration"]
        assert run("dec", decode + [calibration]) \
            == run("dec_bom", decode + [bom_copy(calibration)])
        track = ["track", "--generate", "circle:30:40:125:10", "--snr-db", "40", "--config"]
        plain = run("track", track + [twin_config_path])
        assert plain == run("track_bom", track + [bom_copy(twin_config_path)])
        manifest = str(tmp_path / "track" / "manifest.json")
        assert run("replay", ["replay", "--manifest", manifest]) == plain
        assert run("replay_bom", ["replay", "--manifest", bom_copy(manifest)]) == plain


def test_cli_track_builds_no_sample_objects(twin_config_path, tmp_path, monkeypatch):
    """CLI ``track`` replays plain rows: no TrajectorySample or TerminalPose per sample."""
    built = {"TrajectorySample": 0, "TerminalPose": 0}
    for name in built:
        class Counting(getattr(twin, name)):
            def __init__(self, *args, _name=name, **kwargs):
                built[_name] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(twin, name, Counting)
    twin.generate_path("circle", (40.0, 125.0), 30.0, 5)  # the counters see the public API
    assert built == {"TrajectorySample": 5, "TerminalPose": 5}
    built.update(TrajectorySample=0, TerminalPose=0)
    trajectory = tmp_path / "path.csv"
    trajectory.write_text("t_s,x_mm,y_mm\n0.0,40.0,120.0\n1.0,45.0,118.0\n")
    for source in (["--generate", "circle:30:40:125:20"], ["--trajectory", str(trajectory)]):
        assert main(["track", "--config", twin_config_path, "--out", str(tmp_path / source[0][2:]),
                     "--snr-db", "40"] + source) == 0
    assert (tmp_path / "trajectory" / "reconstructed.csv").read_text().count("\n") == 3
    assert built == {"TrajectorySample": 0, "TerminalPose": 0}
