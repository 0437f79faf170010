"""Command-line entry point for reproducible simulation and decoding runs.

Every command reads a JSON config, writes CSV/JSON artifacts atomically
into an output directory, and drops a ``manifest.json`` recording the
command, every parsed option, seed, tool version and config hash;
``replay`` re-executes a manifest if its config still has the recorded hash.
Outputs are byte-identical across reruns.

Exit codes: 0 success, 2 config/input error, 3 degenerate data,
4 unreachable/kinematic error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import __version__
from .calibration import ForceCalibration, PositionCalibration, fit_force, fit_position
from .decoder import decode_position
from .errors import (
    DegenerateFitError,
    KinematicError,
    NoContactError,
    NonMonotoneDataError,
    UnsupportedRegimeError,
    UnusableSampleError,
)
from .sensor import (
    ChannelReading,
    NoiseModel,
    SensorConfig,
    make_transmission,
    sweep,
    transmission_factors,
)
from .twin import TrajectorySample, TwinAssembly, generate_path, snr_db_for_angle_sigma, track
from .fivebar import TerminalPose

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
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
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


def _write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Parsed options the manifest records outside ``args``, or (``out``, ``func``) not at all.
_MANIFEST_OWN = ("command", "func", "out", "seed", "config")


def _write_manifest(args) -> None:
    """Record the command with every parsed option, so ``replay`` can re-run it."""
    config_path = getattr(args, "config", None)
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        "config_path": config_path,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "args": {k: v for k, v in vars(args).items() if k not in _MANIFEST_OWN},
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _read_csv(path: str) -> tuple[list[str] | None, list[list[str]]]:
    """Header (None for an empty file) and data rows of a CSV file."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        return next(reader, None), list(reader)


def _load_config(path: str) -> SensorConfig:
    doc = _load_json(path)
    try:
        return SensorConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid sensor config {path}: {exc}")


def _parse_value_list(spec: str, name: str) -> list[float]:
    """Either comma-separated values or a linspace 'start:stop:count'."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
        return [float(v) for v in spec.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse {name} spec {spec!r}: {exc}")


def _noise_from_args(args) -> NoiseModel | None:
    if getattr(args, "snr_db", None) is not None:
        return NoiseModel("snr_db", args.snr_db, args.seed)
    if getattr(args, "noise_sigma", None) is not None:
        return NoiseModel("absolute_sigma", args.noise_sigma, args.seed)
    return None


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    positions = _parse_value_list(args.positions, "--positions")
    forces = _parse_value_list(args.forces, "--forces")
    rows = sweep(config, positions, forces, _noise_from_args(args), seed=args.seed)
    header = ["position_mm", "force_n"] + [f"ch_{n}" for n in config.bank.names] + ["below_floor"]
    csv_rows = [
        [r.position_mm, r.force_n, *[float(v) for v in r.reading.values],
         int(r.reading.below_floor)]
        for r in rows
    ]
    _write_csv(os.path.join(args.out, "sweep.csv"), header, csv_rows)
    _write_manifest(args)
    print(f"simulate: wrote {len(csv_rows)} rows to {os.path.join(args.out, 'sweep.csv')}")
    return EXIT_OK


def _read_samples_csv(path: str):
    """Per row of a sweep-format CSV, (position, force, reading) or None if unparsable."""
    header, raws = _read_csv(path)
    if header is None:
        return []
    channel_cols = [i for i, name in enumerate(header) if name.startswith("ch_")]
    if not channel_cols:
        raise CliError(f"{path}: no ch_* columns in header {header}")
    names = tuple(header[i][3:] for i in channel_cols)
    col = {name: i for i, name in enumerate(header)}
    return [_parse_sample_row(raw, col, channel_cols, names) for raw in raws]


def _parse_sample_row(raw, col, channel_cols, names):
    try:
        position = float(raw[col["position_mm"]]) if "position_mm" in col else None
        force = float(raw[col["force_n"]]) if "force_n" in col else None
        reading = ChannelReading([float(raw[i]) for i in channel_cols], names)
        return position, force, reading
    except (IndexError, ValueError):
        return None


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    rows = _read_samples_csv(args.samples)
    parsed = [p for p in rows if p is not None]
    if len(parsed) != len(rows):
        bad = [i for i, p in enumerate(rows) if p is None]
        raise CliError(f"{args.samples}: unparsable rows at {bad}", EXIT_DEGENERATE)
    # dead-zone rows are expected in force sweeps; they cannot feed the
    # position fit but stay available as the zero knot of the force fit
    dead = sum(1 for _, _, r in parsed if r.below_floor)
    position_samples = [(p, f, r) for p, f, r in parsed
                        if p is not None and not r.below_floor]
    poscal = fit_position([(p, r) for p, _, r in position_samples],
                          args.numerator, args.denominator)

    forcecal = None
    by_position: dict[float, list] = {}
    for p, f, r in parsed:
        if p is not None and f is not None:
            by_position.setdefault(p, []).append((f, r))
    candidates = [
        (p, group) for p, group in by_position.items()
        if len({f for f, _ in group}) >= 3
    ]
    if candidates:
        position, group = max(candidates, key=lambda item: len(item[1]))
        forcecal = fit_force(group, make_transmission(config), known_position_mm=position)

    doc = {"position": poscal.to_dict()}
    if forcecal is not None:
        doc["force"] = forcecal.to_dict()
    lo, hi = poscal.span_mm
    grid = [float(x) for x in np.linspace(lo, hi, 129)]
    doc["transmission"] = {
        "positions_mm": grid,
        "factors": transmission_factors(config, grid).tolist(),
    }
    _write_json(os.path.join(args.out, "calibration.json"), doc)
    _write_manifest(args)
    summary = f"calibrate: slope={poscal.slope!r} /mm, r_squared={poscal.r_squared!r}"
    if forcecal is not None:
        summary += f", force knots={len(forcecal.forces_n)}"
    if dead:
        summary += f", skipped {dead} dead-zone row(s) in the position fit"
    print(summary)
    return EXIT_OK


def cmd_decode(args) -> int:
    doc = _load_json(args.calibration)
    try:
        poscal = PositionCalibration.from_dict(doc["position"])
        forcecal = ForceCalibration.from_dict(doc["force"]) if "force" in doc else None
        trans_doc = doc["transmission"]
        grid = np.asarray(trans_doc["positions_mm"], dtype=float)
        factors = np.asarray(trans_doc["factors"], dtype=float)
    except (KeyError, TypeError, ValueError, DegenerateFitError) as exc:
        raise CliError(f"invalid calibration {args.calibration}: {exc}")
    # force decoding divides by the interpolated factor: NaN would flag
    # garbage "ok", zero would divide by zero
    if not (factors.ndim == 1 and factors.size and grid.shape == factors.shape
            and np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
        raise CliError(f"invalid calibration {args.calibration}: transmission needs "
                       f"strictly increasing finite positions_mm, one per factor")
    if not (np.isfinite(factors).all() and np.all(factors > 0)):
        raise CliError(f"invalid calibration {args.calibration}: "
                       f"transmission factors must be finite and positive")

    # position per row (math.log rounds unlike np.log); force for every
    # decoded row at once, in the file's row order
    out_rows, decoded_rows, positions, totals = [], [], [], []
    for parsed in _read_samples_csv(args.readings):
        if parsed is None:
            out_rows.append(["", "", "corrupt_row"])
            continue
        _, _, reading = parsed
        try:
            decoded = decode_position(reading, poscal)
        except NoContactError:
            out_rows.append(["", "", "no_contact"])
            continue
        decoded_rows.append(len(out_rows))
        positions.append(decoded.position_mm)
        totals.append(reading.total())
        out_rows.append([repr(decoded.position_mm), "",
                         "out_of_span" if decoded.out_of_span else "ok"])
    if forcecal is not None and decoded_rows:
        # a decoded position means two lit channels, so every total is positive
        normalized = np.asarray(totals) / np.interp(positions, grid, factors)
        below, above = forcecal.out_of_range(normalized)
        forces = iter(forcecal.invert(normalized[~(below | above)]).tolist())
        for i, is_below, is_above in zip(decoded_rows, below.tolist(), above.tolist()):
            if is_below:
                out_rows[i][2] = "below_threshold"
            elif is_above:
                out_rows[i][2] = "saturated"
            else:
                out_rows[i][1] = repr(next(forces))
    _write_csv(os.path.join(args.out, "decoded.csv"),
               ["position_mm", "force_n", "flag"], out_rows)
    _write_manifest(args)
    print(f"decode: wrote {len(out_rows)} rows to {os.path.join(args.out, 'decoded.csv')}")
    return EXIT_OK


def _read_trajectory_csv(path: str) -> list[TrajectorySample]:
    header, raws = _read_csv(path)
    if header is None:
        raise CliError(f"{path}: empty trajectory")
    col = {name: i for i, name in enumerate(header)}
    for required in ("t_s", "x_mm", "y_mm"):
        if required not in col:
            raise CliError(f"{path}: missing column {required!r}")
    samples = []
    for raw in raws:
        try:
            samples.append(TrajectorySample(
                float(raw[col["t_s"]]),
                TerminalPose(float(raw[col["x_mm"]]), float(raw[col["y_mm"]])),
            ))
        except (IndexError, ValueError) as exc:
            raise CliError(f"{path}: bad trajectory row {raw}: {exc}")
    return samples


def cmd_track(args) -> int:
    doc = _load_json(args.config)
    try:
        assembly = TwinAssembly.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid twin config {args.config}: {exc}")
    if args.trajectory is not None:
        trajectory = _read_trajectory_csv(args.trajectory)
    else:
        shape, scale, cx, cy, n = args.generate.split(":")
        trajectory = generate_path(shape, (float(cx), float(cy)), float(scale),
                                   int(n), config=assembly.fivebar)
    noise = _noise_from_args(args)
    if args.angle_sigma_deg is not None:
        snr = snr_db_for_angle_sigma(assembly.calibrations[0], assembly.encoders[0],
                                     args.angle_sigma_deg)
        noise = NoiseModel("snr_db", snr, args.seed)
    reconstructed, report = track(assembly, trajectory, noise, seed=args.seed)
    _write_csv(
        os.path.join(args.out, "reconstructed.csv"),
        ["t_s", "x_mm", "y_mm"],
        [[s.t_s, s.pose.x_mm, s.pose.y_mm] for s in reconstructed],
    )
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    _write_manifest(args)
    print(f"track: rms={report.rms_error_mm!r} mm, max={report.max_error_mm!r} mm, "
          f"dropped={report.dropped}/{report.n_samples}")
    return EXIT_OK


def cmd_sweep_design(args) -> int:
    config = _load_config(args.config)
    lengths = _parse_value_list(args.lengths, "--lengths")
    concentrations = _parse_value_list(args.concentrations, "--concentrations")
    out_rows = []
    for length in lengths:
        for conc in concentrations:
            try:
                variant = replace(config, length_mm=length,
                                  dye=config.dye.with_concentration(conc))
            except ValueError as exc:
                raise CliError(f"design point length={length} conc={conc}: {exc}")
            positions = np.linspace(0.0, length, max(int(round(length)) + 1, 3))
            rows = sweep(variant, positions, [args.probe_force])
            poscal = fit_position([(r.position_mm, r.reading) for r in rows])
            out_rows.append([length, conc, poscal.slope, poscal.intercept,
                             poscal.r_squared])
    _write_csv(
        os.path.join(args.out, "design.csv"),
        ["length_mm", "concentration_scale", "slope_per_mm", "intercept", "r_squared"],
        out_rows,
    )
    _write_manifest(args)
    print(f"sweep-design: wrote {len(out_rows)} design points")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = _load_json(args.manifest)
    command = manifest.get("command")
    stored = manifest.get("args", {})
    if not isinstance(stored, dict):
        raise CliError(f"{args.manifest}: 'args' must be a JSON object, "
                       f"got {type(stored).__name__}")
    argv = [command]
    config_path = manifest.get("config_path")
    if config_path:
        recorded = manifest.get("config_sha256")
        current = _sha256_file(config_path)
        if current != recorded:
            raise CliError(f"config {config_path} changed since the recorded run: "
                           f"sha256 {current}, recorded {recorded}")
        argv += ["--config", config_path]
    argv += ["--seed", str(manifest.get("seed", 0)), "--out", args.out]
    for key, value in sorted(stored.items()):
        if value is None:
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return main(argv)


# ---------------------------------------------------------------------------
# parser wiring

def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    if config_required:
        parser.add_argument("--config", required=True, help="JSON config path")


def _add_noise(parser: argparse.ArgumentParser):
    """The mutually exclusive group of noise options, for commands to extend."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--snr-db", type=float, default=None,
                       help="per-channel SNR noise, dB (omit for noise-free)")
    group.add_argument("--noise-sigma", type=float, default=None,
                       help="absolute per-channel noise sigma, intensity units")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectratact",
        description="Spectral-filtering tactile sensor simulator, calibrator and decoder",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a stimulus sweep, write sweep.csv")
    _add_common(p)
    p.add_argument("--positions", required=True,
                   help="positions in mm: 'a,b,c' or 'start:stop:count'")
    p.add_argument("--forces", required=True,
                   help="forces in N: 'a,b,c' or 'start:stop:count'")
    _add_noise(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit position/force calibrations from a sweep CSV")
    _add_common(p)
    p.add_argument("--samples", required=True, help="sweep-format CSV of samples")
    p.add_argument("--numerator", default=None, help="ratio numerator channel")
    p.add_argument("--denominator", default=None, help="ratio denominator channel")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("decode", help="decode a readings CSV through a calibration")
    _add_common(p, config_required=False)
    p.add_argument("--calibration", required=True, help="calibration JSON")
    p.add_argument("--readings", required=True, help="readings CSV (sweep format)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("track", help="replay a terminal trajectory through the twin")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trajectory", default=None, help="CSV with t_s,x_mm,y_mm")
    group.add_argument("--generate", default=None,
                       help="synthetic path 'shape:scale:cx:cy:n', shape in {line,circle,S}")
    _add_noise(p).add_argument("--angle-sigma-deg", type=float, default=None,
                               help="choose SNR so decoded angles carry this 1-sigma error")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("sweep-design", help="slope sensitivity over length/concentration")
    _add_common(p)
    p.add_argument("--lengths", required=True, help="lengths in mm: list or linspace spec")
    p.add_argument("--concentrations", required=True,
                   help="concentration scales: list or linspace spec")
    p.add_argument("--probe-force", type=float, default=2.0,
                   help="probe force for the design sweeps, N (default 2)")
    p.set_defaults(func=cmd_sweep_design)

    p = sub.add_parser("replay", help="re-run a recorded manifest into a new directory")
    p.add_argument("--manifest", required=True, help="manifest.json from a previous run")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except _DEGENERATE_ERRORS as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except KinematicError as exc:
        print(f"error: kinematics: {exc}", file=sys.stderr)
        return EXIT_KINEMATIC
    except (OSError, ValueError, KeyError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
