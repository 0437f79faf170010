"""``decode`` end to end: the columnar reader and position kernel against a per-row oracle.

The oracle decodes one row at a time: every field through ``float``,
:class:`ChannelReading`'s check, the closed-form position
``(math.log(num / den) - intercept) / slope`` clamped with Python's
``min``/``max``, the 3-sigma out-of-span test, and one
:meth:`ForceCalibration.invert` call per row.
"""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as stn

import spectratact
from spectratact import (ChannelReading, ForceCalibration, PositionCalibration, SensorConfig,
                         sweep)
from spectratact.cli import main
from spectratact.twin import encoder_sensor_config

EXIT_CODES = {0, 2, 3, 4}
FLAGS = {"ok", "out_of_span", "no_contact", "below_threshold", "saturated", "corrupt_row"}


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def calibrate(tmp_dir, config, positions, forces):
    """Config path and calibration.json path of a noise-free CLI calibration."""
    config_path = tmp_dir / "sensor.json"
    config_path.write_text(json.dumps(config.to_dict()))
    sim, cal = tmp_dir / "sim", tmp_dir / "cal"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim),
                 "--positions", positions, "--forces", forces]) == 0
    assert main(["calibrate", "--config", str(config_path), "--out", str(cal),
                 "--samples", str(sim / "sweep.csv")]) == 0
    return config_path, cal / "calibration.json"


@pytest.fixture(scope="module")
def band_calibration(tmp_path_factory):
    """Band sensor calibrated on 20..60 mm with a 12-knot force law."""
    return calibrate(tmp_path_factory.mktemp("band"), SensorConfig.default(),
                     "20:60:9", "0.5:8:12")


@pytest.fixture(scope="module")
def line_calibration(tmp_path_factory):
    """Line sensor, position only (one force, so no force law)."""
    return calibrate(tmp_path_factory.mktemp("line"), encoder_sensor_config(), "0:85:18", "2")


def decode(calibration, text, tmp_path):
    readings = tmp_path / "readings.csv"
    readings.write_text(text)
    out = tmp_path / "dec"
    code = main(["decode", "--calibration", str(calibration), "--readings", str(readings),
                 "--out", str(out)])
    return code, out / "decoded.csv"


def reference_decode(calibration, text):
    """decoded.csv text, one row at a time."""
    doc = json.loads(read(calibration))
    poscal = PositionCalibration.from_dict(doc["position"])
    forcecal = ForceCalibration.from_dict(doc["force"]) if "force" in doc else None
    grid, factors = doc["transmission"]["positions_mm"], doc["transmission"]["factors"]
    header, *raws = csv.reader(io.StringIO(text))
    channel_cols = [i for i, name in enumerate(header) if name.startswith("ch_")]
    names = tuple(header[i][3:] for i in channel_cols)
    col = {name: i for i, name in enumerate(header)}
    lo, hi = poscal.span_mm
    slack = 3.0 * poscal.residual_std / abs(poscal.slope)
    out = ["position_mm,force_n,flag"]
    for raw in raws:
        try:
            float(raw[col["position_mm"]]), float(raw[col["force_n"]])
            reading = ChannelReading([float(raw[i]) for i in channel_cols], names)
        except (IndexError, ValueError):
            out.append(",,corrupt_row")
            continue
        num, den = reading[poscal.numerator_ch], reading[poscal.denominator_ch]
        if not (num > 0 and den > 0):
            out.append(",,no_contact")
            continue
        x = (math.log(num / den) - poscal.intercept) / poscal.slope
        position = min(max(x, lo), hi)
        flag = "out_of_span" if x < lo - slack or x > hi + slack else "ok"
        force = ""
        if forcecal is not None:
            normalized = reading.total() / float(np.interp(position, grid, factors))
            if normalized < forcecal.normalized[0]:
                flag = "below_threshold"
            elif normalized > forcecal.normalized[-1]:
                flag = "saturated"
            else:
                force = repr(forcecal.invert(normalized))
        out.append(f"{position!r},{force},{flag}")
    return "\n".join(out) + "\n"


def every_flag_readings(tmp_path, config_path):
    """Noisy readings at 5/40/70 mm plus hand-made rows, so every flag occurs."""
    sim = tmp_path / "held"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim),
                 "--positions", "5,40,70", "--forces", "0,3,8", "--snr-db", "40",
                 "--seed", "3"]) == 0
    lines = read(sim / "sweep.csv").splitlines()
    position, force, *channels = [float(v) for v in lines[5].split(",")[:-1]]  # 40 mm, 3 N
    assert position == 40.0 and force == 3.0
    for scale in (1e-3, 1e3):  # below the first knot / above the last
        lines.append(",".join(map(repr, [position, force, *[scale * c for c in channels], 0])))
    lines += ["x,3.0,1.0,1.0,1.0,0",          # position field does not parse
              "40.0,3.0,1.0",                 # short row
              "40.0,3.0,-1.0,1.0,1.0,0",      # negative channel
              "40.0,3.0,1.0,nan,1.0,0"]       # non-finite channel
    return "\n".join(lines) + "\n"


class TestDecodeOracle:
    def test_every_flag_equals_per_row_reference(self, band_calibration, tmp_path):
        config_path, calibration = band_calibration
        text = every_flag_readings(tmp_path, config_path)
        code, decoded = decode(calibration, text, tmp_path)
        assert code == 0
        assert read(decoded) == reference_decode(calibration, text)
        flags = [line.rsplit(",", 1)[1] for line in read(decoded).splitlines()[1:]]
        assert set(flags) == FLAGS
        assert flags.count("corrupt_row") == 4

    def test_one_invert_call_and_no_per_row_decode(self, band_calibration, tmp_path,
                                                   monkeypatch):
        config_path, calibration = band_calibration
        text = every_flag_readings(tmp_path, config_path)
        calls = {"invert": 0, "kernel": 0}
        invert = ForceCalibration.invert
        kernel = PositionCalibration.decode

        def counted_invert(self, value):
            calls["invert"] += 1
            return invert(self, value)

        def counted_kernel(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def per_row(*args, **kwargs):
            raise AssertionError("decode made a per-row call")

        monkeypatch.setattr(ForceCalibration, "invert", counted_invert)
        monkeypatch.setattr(PositionCalibration, "decode", counted_kernel)
        # every module attribute bound to a per-row function, as a tracer would wrap it
        for name in ("decode_position", "decode_force", "log_ratio"):
            original = getattr(spectratact, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("spectratact")
                        and vars(module).get(name) is original):
                    monkeypatch.setattr(module, name, per_row)
        code, _ = decode(calibration, text, tmp_path)
        assert code == 0
        assert calls == {"invert": 1, "kernel": 1}


class TestDecodeExtremeRows:
    def test_zero_and_infinite_ratio_are_out_of_span(self, line_calibration, tmp_path):
        # B/R underflows to 0 on one row and overflows to inf on the other
        _, calibration = line_calibration
        text = ("position_mm,force_n,ch_B,ch_R,below_floor\n"
                "1.0,2.0,5e-324,1e300,0\n1.0,2.0,1e300,5e-324,0\n")
        code, decoded = decode(calibration, text, tmp_path)
        assert code == 0
        lo, hi = json.loads(read(calibration))["position"]["span_mm"]
        rows = [line.split(",") for line in read(decoded).splitlines()[1:]]
        assert sorted(float(r[0]) for r in rows) == [lo, hi]
        assert [r[1:] for r in rows] == [["", "out_of_span"]] * 2

    def test_overflowing_total_is_saturated_without_warning(self, band_calibration,
                                                             tmp_path):
        # pytest turns warnings into errors, so numpy's reduce overflow would escape main
        _, calibration = band_calibration
        text = "position_mm,force_n,ch_B,ch_G,ch_R,below_floor\n1.0,2.0,1.7e308,1.0,1.7e308,0\n"
        code, decoded = decode(calibration, text, tmp_path)
        assert code == 0
        assert read(decoded).splitlines()[1].endswith(",,saturated")

    def test_missing_ratio_channel_exits_2(self, band_calibration, tmp_path, capsys):
        _, calibration = band_calibration
        text = "position_mm,force_n,ch_X,ch_G,ch_R,below_floor\n40.0,3.0,1.0,1.0,1.0,0\n"
        code, decoded = decode(calibration, text, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'readings.csv'}: no ch_B column "
                                           "for the calibration's ratio channel 'B'\n")
        assert not decoded.exists()

    def test_empty_file_decodes_to_no_rows(self, band_calibration, tmp_path):
        code, decoded = decode(band_calibration[1], "", tmp_path)
        assert code == 0
        assert read(decoded) == "position_mm,force_n,flag\n"

    def test_field_past_csv_limit_exits_2(self, band_calibration, tmp_path, capsys):
        _, calibration = band_calibration
        text = "position_mm,force_n,ch_B,ch_G,ch_R\n1.0,2.0," + "1" * 200_000 + ",1.0,1.0\n"
        code, _ = decode(calibration, text, tmp_path)
        assert code == 2
        assert "field limit" in capsys.readouterr().err


SWEEP_HEADER = ["position_mm", "force_n", "ch_B", "ch_G", "ch_R", "below_floor"]
# noise-free band-sensor rows inside the band calibration's span and knots
_XS, _FS, _VALUES = sweep(SensorConfig.default(), [25.0, 40.0, 55.0], [1.0, 3.0, 6.0])
REAL_ROWS = [[repr(x), repr(f), *map(repr, vs), "0"]
             for x, f, vs in zip(_XS.tolist(), _FS.tolist(), _VALUES.tolist())]
FIELDS = stn.one_of(
    stn.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "0", "5e-324", "1e-300", "1e300",
                      "1.7e308", "1e309", "abc", "", " 3 ", "1_0"]),
    stn.floats(0.0, 40.0).map(repr),
    stn.floats().map(repr),
)


@stn.composite
def sweep_row(draw):
    """A real row, now and then with one field replaced, or random fields."""
    if draw(stn.booleans()):
        return draw(stn.lists(FIELDS, min_size=len(SWEEP_HEADER) - 2,
                              max_size=len(SWEEP_HEADER) + 1))
    row = list(draw(stn.sampled_from(REAL_ROWS)))
    if draw(stn.booleans()):
        row[draw(stn.integers(0, len(row) - 1))] = draw(FIELDS)
    return row


@stn.composite
def readings_text(draw):
    """Sweep-format CSV with shuffled, renamed or missing columns, odd fields and
    short or long rows; now and then arbitrary text."""
    if draw(stn.integers(0, 5)) == 0:
        return draw(stn.text(max_size=40))
    order = draw(stn.permutations(range(len(SWEEP_HEADER))))
    header = [SWEEP_HEADER[i] for i in order]
    for i in draw(stn.lists(stn.integers(0, len(header) - 1), max_size=2)):
        header[i] = draw(stn.text(max_size=6))
    rows = [[row[i] for i in order if i < len(row)] + row[len(order):]
            for row in draw(stn.lists(sweep_row(), max_size=8))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


class TestDecodeProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=readings_text())
    def test_exits_cleanly_and_ok_rows_are_finite_in_range(self, band_calibration,
                                                           tmp_path, text):
        _, calibration = band_calibration
        code, decoded = decode(calibration, text, tmp_path)
        assert code in EXIT_CODES
        if code != 0:
            return
        doc = json.loads(read(calibration))
        lo, hi = doc["position"]["span_mm"]
        forces = doc["force"]["forces_n"]
        header, *rows = csv.reader(io.StringIO(read(decoded)))
        assert header == ["position_mm", "force_n", "flag"]
        for position, force, flag in rows:
            assert flag in FLAGS
            if flag == "ok":
                assert lo <= float(position) <= hi
                assert forces[0] <= float(force) <= forces[-1]
