import hashlib
import json
import math
import os

import numpy as np
import pytest

from spectratact import SensorConfig
from spectratact.cli import main
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


class TestCalibrate:
    def run_pipeline(self, config_path, tmp_path, positions="0:85:86", forces="2"):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", config_path, "--out", str(sim),
                     "--positions", positions, "--forces", forces]) == 0
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

    def test_two_rows_exit_3(self, line_config_path, tmp_path):
        code, _, _ = self.run_pipeline(line_config_path, tmp_path, positions="10,10")
        assert code == 3


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

    def test_length_outside_bounds_exits_2(self, line_config_path, tmp_path):
        code = main(["sweep-design", "--config", line_config_path,
                     "--out", str(tmp_path / "d"), "--lengths", "250",
                     "--concentrations", "1.0"])
        assert code == 2


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
        assert "bend" in capsys.readouterr().err

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

    def test_replay_non_object_args_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "simulate", "args": [1]}))
        assert main(["replay", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        assert "'args' must be a JSON object" in capsys.readouterr().err

    def test_twin_with_one_sensor_exits_2(self, tmp_path, capsys):
        config = tmp_path / "twin.json"
        config.write_text(json.dumps({"sensors": [encoder_sensor_config().to_dict()]}))
        code = main(["track", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--generate", "circle:30:40:120:5"])
        assert code == 2
        assert "per joint" in capsys.readouterr().err

    def test_angle_sigma_excludes_noise_flags(self, twin_config_path, tmp_path):
        for flag in (["--snr-db", "30"], ["--noise-sigma", "0.1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["track", "--config", twin_config_path, "--out", str(tmp_path / "o"),
                      "--generate", "circle:30:40:120:5", "--angle-sigma-deg", "0.05"]
                     + flag)
            assert excinfo.value.code == 2
        assert not (tmp_path / "o").exists()
