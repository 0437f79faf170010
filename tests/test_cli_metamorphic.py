"""Edits that keep a CSV input's meaning keep the bytes of every artifact.

Small real ``calibrate``, ``decode`` and ``track --trajectory`` runs read a
plain input and an edited copy of it: a trailing blank line, CRLF line
endings, a UTF-8 BOM, an extra unknown column and a permutation of the
columns, in any combination.  Every reader looks its columns up by name,
and ``calibrate`` is given its ratio channels, so each edited run writes
the plain run's artifacts byte for byte (the manifest, which records the
input's hash, aside).
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import SensorConfig
from spectratact.cli import main
from spectratact.twin import TwinAssembly

RATIO = ["--numerator", "B", "--denominator", "R"]


def run(argv) -> dict:
    """The artifacts of one CLI run into a fresh directory, as bytes, its manifest aside."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp, "out")
        assert main(argv + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory) -> dict:
    """Per command: its argv without the input file, the input's rows and the plain artifacts."""
    tmp = str(tmp_path_factory.mktemp("metamorphic"))
    sensor, twin = os.path.join(tmp, "sensor.json"), os.path.join(tmp, "twin.json")
    Path(sensor).write_text(json.dumps(SensorConfig.default().to_dict()))
    Path(twin).write_text(json.dumps(TwinAssembly().to_dict()))
    sweeps = {}
    for name, positions, forces, seed in (("samples", "0:85:12", "0.1,0.5,2,5,10", "3"),
                                          ("readings", "3:80:8", "0.3,4", "7")):
        sim = os.path.join(tmp, name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", sensor, "--out", sim, "--positions", positions,
                         "--forces", forces, "--snr-db", "40", "--seed", seed]) == 0
        sweeps[name] = Path(sim, "sweep.csv").read_text()
    calibrate = (["calibrate", "--config", sensor] + RATIO, "--samples", sweeps["samples"])
    calibration = os.path.join(tmp, "calibration.json")
    Path(calibration).write_bytes(run_with(*calibrate)["calibration.json"])
    trajectory = "t_s,x_mm,y_mm\n0.0,40.0,120.0\n0.5,42.0,119.0\n1.0,45.0,118.0\n"
    commands = {
        "calibrate": calibrate,
        "decode": (["decode", "--calibration", calibration], "--readings", sweeps["readings"]),
        "track": (["track", "--config", twin, "--snr-db", "40"], "--trajectory", trajectory),
    }
    return {command: (argv, option, list(csv.reader(io.StringIO(text))),
                      run_with(argv, option, text))
            for command, (argv, option, text) in commands.items()}


def run_with(argv, option, text: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        Path(path).write_bytes(text.encode("utf-8"))
        return run(argv + [option, path])


@stn.composite
def edited_texts(draw, rows):
    """``rows`` as CSV text, with meaning-keeping edits drawn at random."""
    rows = [list(row) for row in rows]
    if draw(stn.booleans()):  # an extra column that no reader knows
        at = draw(stn.integers(0, len(rows[0])))
        value = draw(stn.sampled_from(["", "abc", "1.5", "nan", "ch"]))
        for i, row in enumerate(rows):
            row.insert(at, "note" if i == 0 else value)
    order = draw(stn.permutations(range(len(rows[0]))))
    rows = [[row[i] for i in order] for row in rows]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=draw(stn.sampled_from(["\n", "\r\n"]))).writerows(rows)
    text = buffer.getvalue()
    if draw(stn.booleans()):  # a trailing blank line, as some editors save a file
        text += "\r\n" if text.endswith("\r\n") else "\n"
    return draw(stn.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=25, deadline=None)
@given(data=stn.data(), command=stn.sampled_from(["calibrate", "decode", "track"]))
def test_meaning_keeping_edits_keep_the_artifacts(plain_runs, data, command):
    argv, option, rows, plain = plain_runs[command]
    assert run_with(argv, option, data.draw(edited_texts(rows))) == plain
