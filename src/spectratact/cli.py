"""Command-line entry point for reproducible simulation and decoding runs.

Every command reads a JSON config, writes CSV/JSON artifacts atomically
into an output directory, and drops a ``manifest.json`` recording the
command, every parsed option, seed, tool version and config hash;
``replay`` re-executes a manifest if its config still has the recorded hash.
Outputs are byte-identical across reruns.  :data:`COMMANDS` is where a
recorded command and its options are declared; one runner writes every
command's outputs and its manifest.

Exit codes, which :func:`main` returns: 0 success (and ``--help``,
``--version``); 2 usage, config or input error, including every
:class:`~spectratact.errors.ConfigError` (a JSON value missing, of the
wrong kind or out of bounds, named by file and JSON path); 3 degenerate
data; 4 unreachable/kinematic error.  Every typed
:class:`~spectratact.errors.SpectraTactError` exits 2 unless it is a data
error (3) or a kinematic error (4).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from . import __version__
from .calibration import DECODE_FLAGS, CalibrationFile, calibrate_samples
from .codec import INT, OBJECT, STR, Bound, Record, load, spec
from .errors import (
    DegenerateFitError,
    KinematicError,
    NonMonotoneDataError,
    SpectraTactError,
    UnusableSampleError,
)
from .sensor import NoiseModel, SensorConfig, sweep
from .twin import (TwinAssembly, _path_rows, _track_rows, calibrate_encoder,
                   snr_db_for_angle_sigma)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_KINEMATIC = 4

_DEGENERATE_ERRORS = (DegenerateFitError, NonMonotoneDataError, UnusableSampleError)


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_CONFIG):
        super().__init__(message)
        self.exit_code = exit_code


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in its directory, then rename it.

    The temporary file is created as ``open()`` creates a file, with mode
    0o666 less the umask, so the artifact gets the mode a plain write gives.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], columns: list[list[str]]) -> None:
    """Write a table from its header and one list of field texts per column.

    The bytes are those ``csv.writer(lineterminator="\\n")`` writes for the
    header and the rows, as long as each column holds the texts it would
    write: ``repr`` of a Python float (never of a numpy scalar, which numpy 2
    prints as ``np.float64(...)``; convert an array with ``.tolist()``),
    ``str`` of an int, and plain strings.  Only the header goes through
    ``csv.writer``: channel names are free strings, and a name such as
    ``g,"x"`` must be quoted.  Body fields are float or int texts, flags or
    ``""`` in rows of three or more fields, none of which ``QUOTE_MINIMAL``
    quotes, so each row is its fields joined by commas.  A table with no
    rows is its header alone.
    """
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)
    lines = [head.getvalue()[:-1], *map(",".join, zip(*columns))]
    _atomic_write(path, "\n".join(lines) + "\n")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_csv(path: str) -> tuple[list[str] | None, list[list[str]]]:
    """Header (None for an empty file) and data rows of a CSV file, blank rows skipped."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")  # a BOM is not header text
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            return next(reader, None), list(filter(None, reader))
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise CliError(f"{path}: line {reader.line_num}: {exc}")


def _parse_value_list(spec: str, name: str) -> list[float]:
    """Either comma-separated values or a linspace 'start:stop:count'; never empty."""
    is_range = ":" in spec
    try:
        if is_range:
            start, stop, count = spec.split(":")
            values = [float(v) for v in np.linspace(float(start), float(stop), int(count))]
        else:
            values = [float(v) for v in spec.split(",") if v != ""]
    except ValueError as exc:
        form = " (start:stop:count)" if is_range else ""
        raise CliError(f"cannot parse {name} spec {spec!r}{form}: {exc}") from None
    if not values:
        raise CliError(f"{name} spec {spec!r} gives no values")
    return values


def _noise_from_args(args) -> NoiseModel | None:
    if args.snr_db is not None:
        return NoiseModel("snr_db", args.snr_db, args.seed)
    if args.noise_sigma is not None:
        return NoiseModel("absolute_sigma", args.noise_sigma, args.seed)
    return None


# ---------------------------------------------------------------------------
# commands: each body computes and returns ({file name: JSON document or
# (header, columns of field text)}, summary line); _run writes them

def cmd_simulate(args) -> tuple[dict, str]:
    config = load(SensorConfig, args.config)
    positions = _parse_value_list(args.positions, "--positions")
    forces = _parse_value_list(args.forces, "--forces")
    _, _, values = sweep(config, positions, forces, _noise_from_args(args), seed=args.seed)
    header = ["position_mm", "force_n"] + [f"ch_{n}" for n in config.bank.names] + ["below_floor"]
    # the stimulus text of sweep's position-major rows, made once per axis entry (not per
    # float value, as 0.0 == -0.0)
    columns = [[x for x in map(repr, positions) for _ in forces],
               list(map(repr, forces)) * len(positions),
               *(list(map(repr, column)) for column in values.T.tolist()),
               list(map(str, (~values.any(axis=1)).astype(int).tolist()))]
    return ({"sweep.csv": (header, columns)},
            f"simulate: wrote {len(values)} rows to {os.path.join(args.out, 'sweep.csv')}")


def _float_column(raws, col: int):
    """Field ``col`` of every row as a float, and the rows where it is missing or not a float.

    Those rows read NaN.  The conversion runs in C over the whole column;
    a failed row only appends a NaN and resumes after it.
    """
    fields = map(float, map(itemgetter(col), raws))
    values, bad = [], []
    while True:
        try:
            values.extend(fields)
            return values, bad
        except (IndexError, ValueError):
            bad.append(len(values))
            values.append(math.nan)


def _read_samples(path: str, required=(), ratio=()):
    """A sweep-format CSV as columns: ``(names, channels, position, force, parsed)``.

    ``names`` are the channel names (the ``ch_*`` columns), ``channels`` an
    (n, channels) float array, ``position`` and ``force`` float columns or
    None when the header lacks them.  A header without a ``ch_*`` column, a
    ``required`` column or the column of a ``ratio`` channel exits 2; an empty
    file has no rows of the ``ratio`` channels, unless a column is required.
    A row is unparsed when a field it needs is short or not a float;
    ``parsed`` is False there and every value of the row is NaN.
    """
    header, raws = _read_csv(path)
    ratio = tuple(name for name in ratio if name is not None)
    if header is None and not required:
        return ratio, np.empty((0, len(ratio))), None, None, np.zeros(0, dtype=bool)
    header = header or []
    for name in required:
        if name not in header:
            raise CliError(f"{path}: no {name} column in header {header}")
    channel_cols = [i for i, name in enumerate(header) if name.startswith("ch_")]
    if not channel_cols:
        raise CliError(f"{path}: no ch_* columns in header {header}")
    names = tuple(header[i][3:] for i in channel_cols)
    for name in ratio:
        if name not in names:
            raise CliError(f"{path}: no ch_{name} column for the calibration's ratio "
                           f"channel {name!r}")
    col = {name: i for i, name in enumerate(header)}
    stimulus = [name for name in ("position_mm", "force_n") if name in col]
    columns, unparsed = [], []
    for i in [col[name] for name in stimulus] + channel_cols:
        values, bad = _float_column(raws, i)
        columns.append(values)
        unparsed += bad
    table = np.array(columns, dtype=float).T
    channels = table[:, len(stimulus):]
    parsed = np.ones(len(table), dtype=bool)
    parsed[unparsed] = False
    table[~parsed] = np.nan
    stimulus_columns = dict(zip(stimulus, table.T))
    return (names, np.ascontiguousarray(channels), stimulus_columns.get("position_mm"),
            stimulus_columns.get("force_n"), parsed)


def cmd_calibrate(args) -> tuple[dict, str]:
    config = load(SensorConfig, args.config)
    ratio = (args.numerator, args.denominator)
    names, channels, position, force, parsed = _read_samples(args.samples, ("position_mm",),
                                                             ratio)
    if not parsed.all():
        raise CliError(f"{args.samples}: unparsable rows at {np.flatnonzero(~parsed).tolist()}",
                       EXIT_DEGENERATE)
    try:
        calibration, skipped = calibrate_samples(config, names, channels, position, force,
                                                 *ratio)
    except _DEGENERATE_ERRORS as exc:  # name the file the data came from, keeping the class
        exc.args = (f"{args.samples}: {exc}",)
        raise
    poscal, forcecal = calibration.position, calibration.force
    summary = f"calibrate: slope={poscal.slope!r} /mm, r_squared={poscal.r_squared!r}"
    if forcecal is not None:
        summary += f", force knots={len(forcecal.forces_n)}"
    if any(skipped.values()):
        summary += ", position fit skipped " + ", ".join(
            f"{n} row(s) {reason}" for reason, n in skipped.items() if n)
    return {"calibration.json": calibration.to_dict()}, summary


def cmd_decode(args) -> tuple[dict, str]:
    try:
        calibration = load(CalibrationFile, args.calibration)
    except (DegenerateFitError, NonMonotoneDataError) as exc:  # a bad file is an input error
        raise CliError(f"invalid calibration {args.calibration}: {exc}") from None
    ratio = (calibration.position.numerator_ch, calibration.position.denominator_ch)
    names, channels, _, _, _ = _read_samples(args.readings, ratio=ratio)
    position, force, code = calibration.decode(names, channels)
    # a value that was not decoded is NaN (not equal to itself), and its field is empty
    columns = [["" if v != v else repr(v) for v in values.tolist()] for values in (position, force)]
    columns.append(DECODE_FLAGS[code].tolist())
    return ({"decoded.csv": (["position_mm", "force_n", "flag"], columns)},
            f"decode: wrote {code.size} rows to {os.path.join(args.out, 'decoded.csv')}")


def _read_trajectory_csv(path: str) -> list[tuple[float, float, float]]:
    """The ``(t_s, x_mm, y_mm)`` rows of a trajectory CSV; no rows or a bad field exits 2."""
    header, raws = _read_csv(path)
    if header is None or not raws:
        raise CliError(f"{path}: empty trajectory")
    col = {name: i for i, name in enumerate(header)}
    columns = []
    for name in ("t_s", "x_mm", "y_mm"):
        if name not in col:
            raise CliError(f"{path}: missing column {name!r}")
        values, bad = _float_column(raws, col[name])
        if bad:
            raise CliError(f"{path}: row {bad[0]}: no number in column {name!r}")
        columns.append(values)
    return list(zip(*columns))


def cmd_track(args) -> tuple[dict, str]:
    assembly = load(TwinAssembly, args.config)
    if args.trajectory is not None:
        rows = _read_trajectory_csv(args.trajectory)
    else:
        try:
            shape, scale, cx, cy, n = args.generate.split(":")
            scale, center, n = float(scale), (float(cx), float(cy)), int(n)
        except ValueError as exc:
            raise CliError(f"cannot parse --generate spec {args.generate!r} "
                           f"(shape:scale:cx:cy:n): {exc}") from None
        rows = _path_rows(shape, center, scale, n, config=assembly.fivebar)
    noise = _noise_from_args(args)
    if args.angle_sigma_deg is not None:
        snr = snr_db_for_angle_sigma(assembly.calibrations[0], assembly.encoders[0],
                                     args.angle_sigma_deg)
        noise = NoiseModel("snr_db", snr, args.seed)
    reconstructed, report = _track_rows(assembly, rows, noise, args.seed)
    columns = [list(map(repr, column)) for column in zip(*reconstructed)]
    rms, worst = ("n/a" if v is None else f"{v!r} mm"  # None: no sample was reconstructed
                  for v in (report.rms_error_mm, report.max_error_mm))
    return ({"reconstructed.csv": (["t_s", "x_mm", "y_mm"], columns),
             "report.json": report.to_dict()},
            f"track: rms={rms}, max={worst}, dropped={report.dropped}/{report.n_samples}")


def cmd_sweep_design(args) -> tuple[dict, str]:
    config = load(SensorConfig, args.config)
    lengths = _parse_value_list(args.lengths, "--lengths")
    concentrations = _parse_value_list(args.concentrations, "--concentrations")
    out_rows = []
    for length in lengths:
        for conc in concentrations:
            point = f"design point length={length} conc={conc}"
            try:
                variant = replace(config, length_mm=length,
                                  dye=replace(config.dye, concentration_scale=conc))
                poscal = calibrate_encoder(variant, args.probe_force,
                                           max(int(round(length)) + 1, 3))
            except _DEGENERATE_ERRORS as exc:
                raise CliError(f"degenerate data: {point}: {exc}", EXIT_DEGENERATE) from None
            except ValueError as exc:
                raise CliError(f"{point}: {exc}")
            out_rows.append([length, conc, poscal.slope, poscal.intercept,
                             poscal.r_squared])
    header = ["length_mm", "concentration_scale", "slope_per_mm", "intercept", "r_squared"]
    columns = [list(map(repr, column)) for column in zip(*out_rows)]
    return {"design.csv": (header, columns)}, f"sweep-design: wrote {len(out_rows)} design points"


_NOISE = [{},
          ("--snr-db", dict(type=float, help="per-channel SNR noise, dB (omit for noise-free)")),
          ("--noise-sigma", dict(type=float,
                                 help="absolute per-channel noise sigma, intensity units"))]

# The recorded commands, by name: (help, body, options).  An option is (flag,
# add_argument keywords); a list is a mutually exclusive group, its
# add_mutually_exclusive_group keywords first.  Every command also takes
# --out and --seed, and all but decode take --config.
COMMANDS = {
    "simulate": ("run a stimulus sweep, write sweep.csv", cmd_simulate, [
        ("--positions", dict(required=True,
                             help="positions in mm: 'a,b,c' or 'start:stop:count'")),
        ("--forces", dict(required=True, help="forces in N: 'a,b,c' or 'start:stop:count'")),
        _NOISE]),
    "calibrate": ("fit position/force calibrations from a sweep CSV", cmd_calibrate, [
        ("--samples", dict(required=True, help="sweep-format CSV of samples")),
        ("--numerator", dict(help="ratio numerator channel")),
        ("--denominator", dict(help="ratio denominator channel"))]),
    "decode": ("decode a readings CSV through a calibration", cmd_decode, [
        ("--calibration", dict(required=True, help="calibration JSON")),
        ("--readings", dict(required=True, help="readings CSV (sweep format)"))]),
    "track": ("replay a terminal trajectory through the twin", cmd_track, [
        [dict(required=True), ("--trajectory", dict(help="CSV with t_s,x_mm,y_mm")),
         ("--generate", dict(help="synthetic path 'shape:scale:cx:cy:n', "
                                  "shape in {line,circle,S}"))],
        _NOISE + [("--angle-sigma-deg", dict(
            type=float, help="choose SNR so decoded angles carry this 1-sigma error"))]]),
    "sweep-design": ("slope sensitivity over length/concentration", cmd_sweep_design, [
        ("--lengths", dict(required=True, help="lengths in mm: list or linspace spec")),
        ("--concentrations", dict(required=True,
                                  help="concentration scales: list or linspace spec")),
        ("--probe-force", dict(type=float, default=2.0,
                               help="probe force for the design sweeps, N (default 2)"))]),
}

# Parsed options the manifest keeps out of ``args``: its own fields, and ``out``,
# which it does not record.
_MANIFEST_OWN = ("command", "out", "seed", "config")


@dataclass(frozen=True)
class Manifest(Record):
    """``manifest.json``: a run's command and every parsed option, for ``replay``."""

    command: str = spec(STR, bound=Bound(f"be one of {', '.join(COMMANDS)}",
                                         lambda v: v in COMMANDS))
    tool_version: str | None = spec(STR, None)
    seed: int = spec(INT, 0)
    config_path: str | None = spec(STR, None)
    config_sha256: str | None = spec(STR, None)
    args: dict = spec(OBJECT, factory=dict)


def _write_manifest(args) -> None:
    """Record the command with every parsed option, so ``replay`` can re-run it."""
    config_path = getattr(args, "config", None)
    manifest = Manifest(
        command=args.command,
        tool_version=__version__,
        seed=args.seed,
        config_path=config_path,
        config_sha256=_sha256_file(config_path) if config_path else None,
        args={k: v for k, v in vars(args).items() if k not in _MANIFEST_OWN},
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest.to_dict())


def _run(args) -> int:
    """Run a recorded command: write its outputs once its body has returned, then the manifest."""
    if args.seed < 0:  # numpy's own message names neither option nor command
        raise CliError(f"{args.command} --seed {args.seed}: expected non-negative integer")
    _, body, _ = COMMANDS[args.command]
    outputs, summary = body(args)
    for name, output in outputs.items():
        path = os.path.join(args.out, name)
        if isinstance(output, dict):
            _write_json(path, output)
        else:
            _write_csv(path, *output)
    _write_manifest(args)
    print(summary)
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = load(Manifest, args.manifest)
    argv = [manifest.command]
    if manifest.config_path:
        current = _sha256_file(manifest.config_path)
        if current != manifest.config_sha256:
            raise CliError(f"config {manifest.config_path} changed since the recorded run: "
                           f"sha256 {current}, recorded {manifest.config_sha256}")
        argv += ["--config", manifest.config_path]
    argv += ["--seed", str(manifest.seed), "--out", args.out]
    for key, value in sorted(manifest.args.items()):
        if value is None:
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    # parse here, not in main, so that a bad manifest exits 2 naming its args, and so that
    # every key is one of the command's own options (argparse accepts abbreviations)
    try:
        options = _parse_args(argv)
    except SystemExit:  # argparse has printed why
        raise CliError(f"{args.manifest}: 'args' do not parse as {manifest.command} "
                       f"options") from None
    foreign = sorted(set(manifest.args) - (set(vars(options)) - set(_MANIFEST_OWN)))
    if foreign:
        raise CliError(f"{args.manifest}: 'args' holds {foreign}, which are not recorded "
                       f"{manifest.command} options")
    return _run(options)


# ---------------------------------------------------------------------------
# parser wiring

@functools.cache  # one parser per process: building it took 0.9-1.7 ms per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectratact",
        description="Spectral-filtering tactile sensor simulator, calibrator and decoder",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if name != "decode":
            p.add_argument("--config", required=True, help="JSON config path")
        for option in options:
            if isinstance(option, list):
                group = p.add_mutually_exclusive_group(**option[0])
                for flag, keywords in option[1:]:
                    group.add_argument(flag, **keywords)
            else:
                p.add_argument(option[0], **option[1])

    p = sub.add_parser("replay", help="re-run a recorded manifest into a new directory")
    p.add_argument("--manifest", required=True, help="manifest.json from a previous run")
    p.add_argument("--out", required=True, help="output directory")
    return parser


# options whose value is a list, which may start with '-' (as '-0.0,10')
_VALUE_LISTS = frozenset({"--positions", "--forces", "--lengths", "--concentrations"})


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` (``sys.argv[1:]`` when None) as parsed, each value list joined to its option.

    argparse reads a token that starts with '-' as an option unless it
    looks like a plain negative number, so ``--positions -0.0,10`` would
    lack its value.  A value list never starts with '--', so the token
    after a value-list option, or after an abbreviation of one (``--pos``),
    is passed as ``--option=token`` unless it does; argparse then resolves
    the abbreviation as it does for the '=' form.
    """
    tokens = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(tokens) - 1)):
        option = tokens[i]  # a name or an abbreviation of one; no name holds '='
        if len(option) > 2 and any(name.startswith(option) for name in _VALUE_LISTS) \
                and not tokens[i + 1].startswith("--"):
            tokens[i:i + 2] = [f"{option}={tokens[i + 1]}"]
    return build_parser().parse_args(tokens)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse has printed why: 2 for a usage error, 0 for --help
        return exc.code
    try:
        return cmd_replay(args) if args.command == "replay" else _run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except _DEGENERATE_ERRORS as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except KinematicError as exc:
        print(f"error: kinematics: {exc}", file=sys.stderr)
        return EXIT_KINEMATIC
    except (OSError, ValueError, KeyError, SpectraTactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
