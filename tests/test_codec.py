"""The JSON form of every config record: pinned bytes, round trips and bounds.

The sha256 pins cover ``json.dumps(x.to_dict())`` without ``sort_keys``,
so the key order of each record counts as well as its values.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
from dataclasses import MISSING, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (ChannelBank, CouplingLaw, DyeProfile, FiveBarConfig, JointEncoderModel,
                         PerturbationState, PositionCalibration, SensorConfig, Spectrum,
                         TrackingReport, default_red_dye, default_wavelength_grid, line_response)
from spectratact.calibration import CalibrationFile, ForceCalibration, Transmission
from spectratact.cli import Manifest, main
from spectratact.codec import (ARRAY, BOOL, FLOATS, INT, LIST, NUMBER, OBJECT, STR, Record,
                               _table, load, read)
from spectratact.errors import ConfigError
from spectratact.twin import TwinAssembly, encoder_sensor_config

BANK_DOC = {"channels": [{"name": "B", "band_nm": [400.0, 500.0]},
                         {"name": "G", "band_nm": [500.0, 600.0], "closed_hi": True},
                         {"name": "R", "line_nm": 650.0}]}

TO_DICT_GOLDEN = {
    "SensorConfig.default":
        "a4f5aa1e5a20f0ebb15c8637e21e3f9d4230875daa62cd42e5c5df1edd13bdc1",
    "encoder_sensor_config":
        "f95b5b189795e82c03bb63bfc3d7e8e612f593956c9df496b76ff52c3c7436bb",
    "TwinAssembly":
        "2d5b0d4fb1b932fe771c3bf3962ea4d6c372c718a6c1f80113d6dcd4759f9ca5",
    "default_poscal":
        "8b590642452ab3bec0255e8aabb567ae5a5160b58e34ccadde2c9912ee19ad9b",
    "default_forcecal":
        "f2f730ef2f3b09ed22a31b101cfcfc06644118846f0b690b80746f7f313ef6b7",
    "ChannelBank.band_and_line":
        "6e4e42b477d2189f163b17eb517b18702fb14768fe33503ee2c4b6fcb1499773",
}


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record.to_dict()).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned(default_poscal, default_forcecal):
    return {
        "SensorConfig.default": SensorConfig.default(),
        "encoder_sensor_config": encoder_sensor_config(),
        "TwinAssembly": TwinAssembly(),
        "default_poscal": default_poscal,
        "default_forcecal": default_forcecal,
        "ChannelBank.band_and_line": ChannelBank.from_dict(BANK_DOC),
    }


@pytest.mark.parametrize("name", sorted(TO_DICT_GOLDEN))
def test_to_dict_bytes(pinned, name):
    assert digest(pinned[name]) == TO_DICT_GOLDEN[name]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


# every class with a JSON form: the Record subclasses and ChannelBank's own hooks
SERVED = sorted({*subclasses(Record), ChannelBank}, key=lambda cls: cls.__name__)


@pytest.fixture(scope="module")
def examples(default_poscal, default_forcecal):
    """One instance of every class in SERVED, with values away from the defaults."""
    config = SensorConfig.default()
    transmission = Transmission(np.linspace(0.0, 85.0, 5), np.linspace(2.0, 1.0, 5))
    return {record.__class__: record for record in [
        config.source, replace(default_red_dye(), concentration_scale=1.7),
        ChannelBank.from_dict(BANK_DOC), CouplingLaw(0.2, 0.1, 0.5),
        PerturbationState(0.1, 45.0), replace(config, length_mm=60.0),
        JointEncoderModel(0.4, 40.0), FiveBarConfig(70.0, 110.0), default_poscal,
        default_forcecal, TwinAssembly(indenter_force_n=1.5),
        TrackingReport([0.25, 1.25], 1, 3, rms_error_mm=0.5, max_error_mm=1.25),
        Manifest("simulate", "0.1.0", 3, None, None, {"positions": "10", "snr_db": None}),
        transmission, CalibrationFile(default_poscal, transmission, default_forcecal)]}


def test_every_served_class_has_an_example(examples):
    assert sorted(examples, key=lambda cls: cls.__name__) == SERVED


@pytest.mark.parametrize("cls", SERVED, ids=lambda cls: cls.__name__)
def test_round_trip(examples, cls):
    doc = examples[cls].to_dict()
    again = cls.from_dict(json.loads(json.dumps(doc)))
    assert type(again) is cls
    assert again.to_dict() == doc


# one out-of-bounds value for each bounded field of every record
OUT_OF_BOUNDS = [
    (DyeProfile, "concentration_scale", -1.0),
    (CouplingLaw, "f_threshold_n", math.inf),
    (CouplingLaw, "gain", 0.0),
    (CouplingLaw, "exponent", 2.5),
    (PerturbationState, "strain", 0.6),
    (PerturbationState, "bend_deg", 181.0),
    (SensorConfig, "length_mm", 20.0),
    (SensorConfig, "clear_loss_per_mm", math.inf),
    (JointEncoderModel, "arc_gain_mm_per_deg", math.inf),
    (JointEncoderModel, "offset_mm", -1.0),
    (FiveBarConfig, "d_mm", 0.0),
    (FiveBarConfig, "l_mm", -math.inf),
    (TwinAssembly, "indenter_force_n", math.nan),
    (PositionCalibration, "span_mm", (0.0, 42.0, 85.0)),
    (Manifest, "command", "replay"),
]


def test_every_bound_is_exercised():
    bounded = {(cls, name) for cls in SERVED if issubclass(cls, Record)
               for name, _, _, bound, _ in _table(cls) if bound is not None}
    assert bounded == {(cls, name) for cls, name, _ in OUT_OF_BOUNDS}


@pytest.mark.parametrize("cls, name, value", OUT_OF_BOUNDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in OUT_OF_BOUNDS])
def test_out_of_bounds_value_names_its_path(examples, cls, name, value):
    with pytest.raises(ConfigError, match=f"^'{name}' must "):
        replace(examples[cls], **{name: value})
    key = next(key for attribute, key, *_ in _table(cls) if attribute == name)
    doc = {"outer": [examples[cls].to_dict()]}
    doc["outer"][0][key] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError, match=rf"^'outer\[0\]\.{key}' must "):
        read(doc, "outer", (cls,))


@pytest.mark.parametrize("value, shown", [("85", '"85"'), (True, "true"), (None, "null"),
                                          ([85.0], "an array"), ({}, "an object")])
def test_a_number_of_another_kind_is_refused(value, shown):
    # float() accepted "85" and true until the codec read every number
    with pytest.raises(ConfigError, match=f"^'length_mm' must be a number, got {shown}$"):
        SensorConfig.from_dict({"length_mm": value})


def test_an_integer_past_the_float_range_is_named():
    with pytest.raises(ConfigError, match=r"^'dye\.values\[3\]' .* too large"):
        SensorConfig.from_dict({"dye": {"wavelengths_nm": [400.0, 500.0, 600.0, 700.0],
                                        "values": [0.1, 0.1, 0.1, 10**400]}})


def test_a_missing_key_and_a_non_object_are_named():
    with pytest.raises(ConfigError, match="^'slope' is missing$"):
        PositionCalibration.from_dict({})
    with pytest.raises(ConfigError, match="^expected a JSON object, got an array$"):
        PositionCalibration.from_dict([])
    with pytest.raises(ConfigError, match="^'sensors\\[1\\]' must be a JSON object, got 3$"):
        TwinAssembly.from_dict({"sensors": [{}, 3]})


def test_null_reads_as_a_default_of_none():
    assembly = TwinAssembly.from_dict({"sensors": None, "sensor": {"length_mm": 60.0}})
    assert assembly.sensors[0] is assembly.sensors[1]
    assert assembly.sensors[0].length_mm == 60.0


@pytest.mark.parametrize("line_nm", [math.nan, 1e6, -5.0])
def test_line_channel_off_the_grid_is_refused(line_nm):
    with pytest.raises(ValueError, match="outside the wavelength grid"):
        line_response(default_wavelength_grid(), line_nm)
    with pytest.raises(ConfigError,
                       match=r"^'bank\.channels\[1\]\.line_nm' must lie in \[400, 700\]"):
        SensorConfig.from_dict({"bank": {"channels": [{"name": "B", "line_nm": 450.0},
                                                      {"name": "R", "line_nm": line_nm}]}})


@pytest.mark.parametrize("entry, message", [
    ({"name": "B"}, "needs values, band_nm or line_nm"),
    ({"name": "B", "values": [1.0]}, "has explicit values, which need wavelengths_nm"),
    ({"name": "B", "band_nm": [400.0]}, "must hold 2 numbers, got (400.0,)"),
    ({"name": "B", "band_nm": [400.0, 500.0], "closed_hi": 1}, "must be true or false, got 1"),
    ({"name": 7, "line_nm": 450.0}, "must be a string, got 7"),
])
def test_bank_entries_name_their_path(entry, message):
    with pytest.raises(ConfigError) as excinfo:
        ChannelBank.from_dict({"channels": [entry]}, "bank")
    assert str(excinfo.value).startswith("'bank.channels[0]")
    assert message in str(excinfo.value)


def test_read_uses_its_default_only_when_the_key_is_absent():
    assert read({}, "x", NUMBER, "doc", 1.5) == 1.5
    with pytest.raises(ConfigError, match=r"^'doc\.x' must be a number, got null$"):
        read({"x": None}, "x", NUMBER, "doc", 1.5)


def test_load_names_the_file(tmp_path):
    path = tmp_path / "twin.json"
    dye = dict(default_red_dye().to_dict(), concentration_scale=-1.0)
    path.write_text(json.dumps({"sensors": [{}, {"dye": dye}]}))
    with pytest.raises(ConfigError) as excinfo:
        load(TwinAssembly, str(path))
    assert str(excinfo.value) == (f"{path}: 'sensors[1].dye.concentration_scale' must be "
                                  "finite and >= 0, got -1.0")
    path.write_text(json.dumps({"sensors": [{}]}))
    with pytest.raises(ValueError) as excinfo:
        load(TwinAssembly, str(path))
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value).startswith(f"{path}: need one sensor and one encoder per joint")
    with pytest.raises(ConfigError, match="^file not found: "):
        load(TwinAssembly, str(tmp_path / "nope.json"))
    path.write_text("{")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: Expecting property name"):
        load(TwinAssembly, str(path))


# Documents generated from the field tables: each field of each record, at any
# depth, kept, dropped where it has a default, or broken.  Whether a value is
# of a field's kind is judged here without the codec.


def is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


IS_KIND = {
    NUMBER: is_number,
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    STR: lambda v: isinstance(v, str),
    BOOL: lambda v: isinstance(v, bool),
    ARRAY: lambda v: isinstance(v, list) and all(map(is_number, v)),
    FLOATS: lambda v: isinstance(v, list) and all(map(is_number, v)),
    LIST: lambda v: isinstance(v, list),
    OBJECT: lambda v: isinstance(v, dict),
}
# values of a plain kind, as a bound sees them
OF_KIND = {NUMBER: (stn.floats(), float), STR: (stn.text(max_size=8), str),
           FLOATS: (stn.lists(stn.floats(), max_size=4), tuple)}
JSON_VALUES = stn.recursive(
    stn.none() | stn.booleans() | stn.integers() | stn.floats() | stn.text(max_size=4)
    | stn.just(10**400),  # past the float range
    lambda inner: stn.lists(inner, max_size=3) | stn.dictionaries(stn.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=5)
RECORDS = [cls for cls in SERVED if issubclass(cls, Record)]
DELETE = object()


def of_kind(kind, default, value) -> bool:
    """Whether ``value`` reads as a field of ``kind`` with this read default."""
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return isinstance(value, list)
    if isinstance(kind, type):  # a nested record or ChannelBank
        return isinstance(value, dict)
    return IS_KIND[kind](value)


@stn.composite
def valid_documents(draw, cls, doc):
    """``doc`` with each field kept, or dropped or nulled where the table gives a default."""
    doc = dict(doc)
    for _, key, _, _, default in _table(cls):
        choices = ["keep"] + ["drop"] * (default is not MISSING) + ["null"] * (default is None)
        choice = draw(stn.sampled_from(choices))
        if choice == "drop":
            doc.pop(key, None)
        elif choice == "null":
            doc[key] = None
    return doc


@stn.composite
def broken_documents(draw, cls, doc, path=""):
    """``(doc with one field broken, the JSON path of that field)``, the field at any depth.

    A field breaks by a value of another kind, a value of its kind outside its
    bound, or, when it has no default, by being absent.
    """
    doc = copy.deepcopy(doc)
    _, key, kind, bound, default = draw(stn.sampled_from(_table(cls)))
    at = f"{path}.{key}" if path else key
    value = doc.get(key)
    if isinstance(kind, tuple) and value and draw(stn.booleans()):
        i = draw(stn.integers(0, len(value) - 1))
        value[i], at = draw(broken_documents(kind[0], value[i], f"{at}[{i}]"))
        return doc, at
    if isinstance(kind, type) and issubclass(kind, Record) and isinstance(value, dict) \
            and draw(stn.booleans()):
        doc[key], at = draw(broken_documents(kind, value, at))
        return doc, at
    breaks = [JSON_VALUES.filter(lambda v: not of_kind(kind, default, v))]
    if bound is not None:
        values, as_read = OF_KIND[kind]
        breaks.append(values.filter(lambda v: not bound.test(as_read(v))))
    if default is MISSING:
        breaks.append(stn.just(DELETE))
    broken = draw(stn.one_of(breaks))
    if broken is DELETE:
        del doc[key]
    else:
        doc[key] = broken
    return doc, at


def names_path(at: str) -> str:
    """How a ConfigError message starts for a field at ``at`` (or an item of it)."""
    return rf"'{re.escape(at)}(\[\d+\])?' (must|is missing)"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=5, deadline=None)
@given(data=stn.data())
def test_generated_valid_document_reads(examples, cls, data):
    doc = data.draw(valid_documents(cls, examples[cls].to_dict()))
    again = cls.from_dict(json.loads(json.dumps(doc))).to_dict()
    assert cls.from_dict(again).to_dict() == again


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=10, deadline=None)
@given(data=stn.data())
def test_generated_broken_field_names_its_path(examples, cls, data):
    doc, at = data.draw(broken_documents(cls, examples[cls].to_dict()))
    with pytest.raises(ConfigError, match="^" + names_path(at)):
        cls.from_dict(json.loads(json.dumps(doc)))


# the records a CLI command reads from a file, and how it is given
CLI_READS = {
    SensorConfig: ["simulate", "--config", "{doc}", "--positions", "10", "--forces", "2"],
    TwinAssembly: ["track", "--config", "{doc}", "--generate", "circle:30:40:120:5"],
    CalibrationFile: ["decode", "--calibration", "{doc}", "--readings", "{doc}"],
    Manifest: ["replay", "--manifest", "{doc}"],
}


@pytest.mark.parametrize("cls", CLI_READS, ids=lambda cls: cls.__name__)
@settings(max_examples=8, deadline=None)
@given(data=stn.data())
def test_cli_exits_2_on_a_generated_broken_field(examples, cls, data, tmp_path_factory):
    doc, at = data.draw(broken_documents(cls, examples[cls].to_dict()))
    path = tmp_path_factory.mktemp("doc") / "input.json"
    path.write_text(json.dumps(doc))
    out = path.parent / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([arg.format(doc=path) for arg in CLI_READS[cls]] + ["--out", str(out)])
    assert code == 2
    assert re.match(f"^error: {re.escape(str(path))}: {names_path(at)}", err.getvalue())
    assert not out.exists()


# every record that holds arrays, built afresh by each call, and the JSON path of one array
ARRAY_RECORDS = {
    "Spectrum": (lambda: Spectrum.flat(), ("values",)),
    "DyeProfile": (default_red_dye, ("values",)),
    "ChannelBank": (lambda: ChannelBank.from_dict(BANK_DOC), ("channels", 1, "values")),
    "ForceCalibration": (lambda: ForceCalibration(np.array([0.1, 1.0, 2.0, 4.0]),
                                                  np.array([0.2, 0.5, 0.7, 0.9])),
                         ("normalized",)),
    "Transmission": (lambda: Transmission(np.linspace(0.0, 85.0, 5), np.linspace(1.0, 0.5, 5)),
                     ("factors",)),
}


def nudged(record, at):
    """``record`` rebuilt with the largest element of the array at ``at`` one ulp higher."""
    doc = copy.deepcopy(record.to_dict())
    values = doc
    for key in at:
        values = values[key]
    i = values.index(max(values))
    values[i] = math.nextafter(values[i], math.inf)
    return type(record).from_dict(doc)


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_record_compares_by_value(name):
    build, at = ARRAY_RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    changed = nudged(b, at)
    assert a != changed and not a == changed
    assert a != a.to_dict()  # another type is unequal, not an error
    # unhashable: an array changed in place would change the value under a stored hash
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_records_holding_array_records_compare_by_value():
    assert SensorConfig() == SensorConfig()
    assert TwinAssembly() == TwinAssembly()
    sensor = encoder_sensor_config()
    changed = replace(sensor, source=nudged(sensor.source, ("values",)))
    assert sensor == encoder_sensor_config() and sensor != changed
    with pytest.raises(TypeError, match="unhashable"):
        hash(SensorConfig())
    # two equal sensors, distinct objects, are shared as one
    twin = TwinAssembly(sensors=(encoder_sensor_config(), encoder_sensor_config()))
    assert twin.sensors[0] is twin.sensors[1]
    distinct = TwinAssembly(sensors=(sensor, changed))
    assert distinct.sensors[0] is not distinct.sensors[1]
