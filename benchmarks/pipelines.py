"""The three pipelines the benchmark drives, their inputs and their checks.

Each pipeline builds its inputs from the workload seed in ``__init__``
(outside any timed region), runs one timed pass with ``run``, and judges
a pass's outputs with ``check``.  Library functions are always reached
through their module attribute (``twin.track``, not a bound local name),
so the tracer's wrappers see every call the harness makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from spectratact import calibration, cli, fivebar, sensor, twin
from spectratact.errors import SpectraTactError

from hostspeed import HostClock, Step

# Sizes per pipeline.  A workload runs its own pipeline at "full" size and
# the other two at "probe" size, so that every run reports every metric;
# "tiny" is for the smoke test only.
SIZES = {
    "full": {
        "sensor_chain": {"cal_positions": 86, "held_positions": 60, "held_forces": 50},
        "twin_track": {"samples": 1000},
        "workspace_map": {"cells_per_axis": 80},
    },
    "probe": {
        "sensor_chain": {"cal_positions": 22, "held_positions": 25, "held_forces": 40},
        "twin_track": {"samples": 400},
        "workspace_map": {"cells_per_axis": 40},
    },
    "tiny": {
        "sensor_chain": {"cal_positions": 12, "held_positions": 6, "held_forces": 10},
        "twin_track": {"samples": 20},
        "workspace_map": {"cells_per_axis": 12},
    },
}

# Decoded outputs must sit within this many first-order noise sigmas of
# the true stimulus.
TOLERANCE_SIGMAS = 6.0


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class PassResult:
    """What one timed pass produced."""

    steps: list[Step] = field(default_factory=list)
    artifacts: dict[str, bytes] = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def wall_s(self) -> float:
        """Time spent in the timed steps (reference samples excluded)."""
        return sum(s.raw_s for s in self.steps)

    @property
    def nominal_s(self) -> float:
        return sum(s.nominal_s for s in self.steps)


class CliFailure(Exception):
    pass


def run_cli(tracer, command: str, argv: list[str], out_dir: str) -> None:
    """Run one CLI command as a user would; non-zero exit raises.

    Traced runs open a ``cli.<command>`` span around it and record the
    bytes the command wrote.
    """
    sink = io.StringIO()
    span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([command, *argv, "--out", out_dir])
    if tracer is not None:
        written = sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))
        tracer.counters[f"cli.{command}.bytes_out"] = (
            tracer.counters.get(f"cli.{command}.bytes_out", 0) + written)
    if code != 0:
        raise CliFailure(f"{command} exited {code}: {sink.getvalue().strip()}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Pipeline:
    name = ""

    def run(self, out_dir: str, tracer=None) -> PassResult:
        """One timed pass; failures are recorded, never raised."""
        result = PassResult()
        os.makedirs(out_dir, exist_ok=True)
        clock = HostClock()
        try:
            self._run(out_dir, tracer, clock, result)
        except Exception:  # the benchmark must keep running and count it
            result.error = traceback.format_exc()
        result.steps = clock.steps
        return result

    def items(self) -> int:
        """Items one pass attempts."""
        raise NotImplementedError

    def check(self, result: PassResult) -> int:
        """Number of failed items in a pass (all of them if the pass raised)."""
        if result.error is not None:
            return self.items()
        return self._check(result)


# ---------------------------------------------------------------------------
# sensor_chain

HELD_OUT_MAX_FORCE_N = 12.0   # above the last knot, so some rows saturate
KNOT_MAX_FORCE_N = 10.0
CAL_SNR_DB = 40.0
HELD_OUT_SNR_DB = 30.0
DECODE_FLAGS = ("ok", "out_of_span", "no_contact", "below_threshold", "saturated",
                "corrupt_row")


class SensorChain(Pipeline):
    """simulate (calibration grid) -> calibrate -> simulate (held out) -> decode."""

    name = "sensor_chain"

    def __init__(self, work_dir: str, seed: int, cal_positions: int,
                 held_positions: int, held_forces: int):
        self.config = sensor.SensorConfig.default()
        self.config_path = os.path.join(work_dir, "sensor.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config.to_dict(), fh, sort_keys=True)
        length = self.config.length_mm
        law = self.config.coupling
        knots = calibration.force_knot_schedule(law.f_threshold_n, KNOT_MAX_FORCE_N, 21)
        self.cal_rows = cal_positions * len(knots)
        self.cal_args = ["--positions", f"0:{length!r}:{cal_positions}",
                         "--forces", ",".join(repr(float(f)) for f in knots),
                         "--snr-db", repr(CAL_SNR_DB), "--seed", str(derive_seed(seed, 1))]
        # stratified draws keep the share of each decode outcome steady
        # across seeds; the first force is exactly 0 N (no contact)
        rng = np.random.default_rng(derive_seed(seed, 2))
        positions = (np.arange(held_positions) + rng.random(held_positions)) \
            * length / held_positions
        forces = (np.arange(held_forces) + rng.random(held_forces)) \
            * HELD_OUT_MAX_FORCE_N / held_forces
        forces[0] = 0.0
        self.truth = np.array([(p, f) for p in positions for f in forces])
        self.held_args = ["--positions", ",".join(repr(float(p)) for p in positions),
                          "--forces", ",".join(repr(float(f)) for f in forces),
                          "--snr-db", repr(HELD_OUT_SNR_DB),
                          "--seed", str(derive_seed(seed, 3))]
        self.sizes = {"cal_rows": self.cal_rows, "held_out_rows": len(self.truth)}

    def items(self) -> int:
        return 4 + len(self.truth)

    def _run(self, out: str, tracer, clock: HostClock, result: PassResult) -> None:
        d = {k: os.path.join(out, k) for k in ("cal", "calib", "held", "dec")}
        cfg = ["--config", self.config_path]
        with clock.step("simulate_cal"):
            run_cli(tracer, "simulate", cfg + self.cal_args, d["cal"])
        with clock.step("calibrate"):
            run_cli(tracer, "calibrate",
                    cfg + ["--samples", os.path.join(d["cal"], "sweep.csv")], d["calib"])
        with clock.step("simulate_held"):
            run_cli(tracer, "simulate", cfg + self.held_args, d["held"])
        with clock.step("decode"):
            run_cli(tracer, "decode", [
                "--calibration", os.path.join(d["calib"], "calibration.json"),
                "--readings", os.path.join(d["held"], "sweep.csv")], d["dec"])
        for key, rel in (("cal_sweep.csv", "cal/sweep.csv"),
                         ("calibration.json", "calib/calibration.json"),
                         ("held_sweep.csv", "held/sweep.csv"),
                         ("decoded.csv", "dec/decoded.csv")):
            result.artifacts[key] = _read(os.path.join(out, rel))

    def decoded(self, result: PassResult):
        rows = list(csv.reader(io.StringIO(result.artifacts["decoded.csv"].decode())))[1:]
        pos = np.array([float(r[0]) if r[0] else np.nan for r in rows])
        force = np.array([float(r[1]) if r[1] else np.nan for r in rows])
        flags = np.array([r[2] for r in rows])
        return pos, force, flags

    def tolerances(self, result: PassResult):
        """First-order decode sigmas at the held-out noise level.

        Position: channel noise on the log-ratio plus the fit's residual
        scatter, over the slope.  Force: relative noise of the total,
        of the calibration knots and of the transmission at the decoded
        position, scaled by d(force)/d(fraction) of the coupling law.
        """
        doc = json.loads(result.artifacts["calibration.json"])
        pos = doc["position"]
        z_held = 10.0 ** (-HELD_OUT_SNR_DB / 20.0)
        z_cal = 10.0 ** (-CAL_SNR_DB / 20.0)
        sigma_x = math.hypot(math.sqrt(2.0) * z_held, pos["residual_std"]) / abs(pos["slope"])
        grid = np.asarray(doc["transmission"]["positions_mm"])
        log_t = np.log(np.asarray(doc["transmission"]["factors"]))
        kappa = float(np.max(np.abs(np.diff(log_t) / np.diff(grid))))
        eps = math.sqrt(z_held ** 2 + z_cal ** 2 + (kappa * sigma_x) ** 2)
        last_knot = float(doc["force"]["normalized"][-1])
        return sigma_x, eps, last_knot, pos["span_mm"]

    def _check(self, result: PassResult) -> int:
        pos, force, flags = self.decoded(result)
        if len(flags) != len(self.truth):
            return self.items()
        sigma_x, eps, last_knot, (lo, hi) = self.tolerances(result)
        law = self.config.coupling
        true_x, true_f = self.truth[:, 0], self.truth[:, 1]
        lifted = np.clip(true_f - law.f_threshold_n, 0.0, None)
        fraction = np.minimum(1.0, law.gain * lifted ** law.exponent)
        k = TOLERANCE_SIGMAS
        tol_x = k * sigma_x
        # 1% of force covers the PCHIP interpolation error between knots
        tol_f = k * eps * lifted / law.exponent + 0.01 * true_f
        ok = flags == "ok"
        bad = ~np.isin(flags, DECODE_FLAGS)
        bad |= ok & ~(np.isfinite(pos) & np.isfinite(force))
        with np.errstate(invalid="ignore"):
            bad |= ok & ~(np.abs(pos - true_x) <= tol_x)
            bad |= ok & ~(np.abs(force - true_f) <= tol_f)
        contact = true_f > law.f_threshold_n
        bad |= contact == (flags == "no_contact")
        interior = (contact & (true_x >= lo + tol_x) & (true_x <= hi - tol_x)
                    & (fraction * (1.0 + k * eps) < last_knot))
        bad |= interior & ~ok
        return int(bad.sum())

    def accuracy(self, result: PassResult) -> dict:
        pos, force, flags = self.decoded(result)
        ok = flags == "ok"
        return {
            "position_mae_mm": float(np.mean(np.abs(pos[ok] - self.truth[ok, 0]))),
            "force_mae_n": float(np.mean(np.abs(force[ok] - self.truth[ok, 1]))),
            "flags": {f: int(np.sum(flags == f)) for f in DECODE_FLAGS},
        }


# ---------------------------------------------------------------------------
# twin_track

ANGLE_SIGMA_DEG = 0.05
# One-sample calls are timed in chunks, each with its own host-speed bracket.
STREAM_CHUNK = 100


class TwinTrack(Pipeline):
    """CLI batch ``track`` of a circle, then one-sample ``track`` calls along it."""

    name = "twin_track"

    def __init__(self, work_dir: str, seed: int, samples: int):
        self.assembly = twin.TwinAssembly()
        self.config_path = os.path.join(work_dir, "twin.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.assembly.to_dict(), fh, sort_keys=True)
        rng = np.random.default_rng(derive_seed(seed, 4))
        # a circle well inside the working branch: no sample is dropped
        cx, cy, scale = 40.0 + rng.uniform(-0.5, 0.5), 125.0 + rng.uniform(-0.5, 0.5), \
            40.0 + rng.uniform(-0.5, 0.5)
        self.n = samples
        self.batch_args = ["--config", self.config_path,
                           "--generate", f"circle:{scale!r}:{cx!r}:{cy!r}:{samples}",
                           "--angle-sigma-deg", repr(ANGLE_SIGMA_DEG),
                           "--seed", str(derive_seed(seed, 5))]
        self.path = twin.generate_path("circle", (cx, cy), scale, samples,
                                       config=self.assembly.fivebar)
        snr = twin.snr_db_for_angle_sigma(self.assembly.calibrations[0],
                                          self.assembly.encoders[0], ANGLE_SIGMA_DEG)
        self.stream_seed = derive_seed(seed, 6)
        self.noise = sensor.NoiseModel("snr_db", snr, self.stream_seed)
        self.sizes = {"path_samples": samples}

    def items(self) -> int:
        return 1 + 2 * self.n

    def _run(self, out: str, tracer, clock: HostClock, result: PassResult) -> None:
        with clock.step("batch"):
            run_cli(tracer, "track", self.batch_args, os.path.join(out, "track"))
        clock_ns = time.perf_counter_ns
        chunks, poses, failures = [], [], 0
        for first in range(0, self.n, STREAM_CHUNK):
            latencies = []
            with clock.step("stream"):
                for i in range(first, min(first + STREAM_CHUNK, self.n)):
                    start = clock_ns()
                    try:
                        reconstructed, report = twin.track(
                            self.assembly, [self.path[i]], self.noise, seed=self.stream_seed + i)
                    except (SpectraTactError, ValueError):
                        failures += 1
                        continue
                    finally:
                        latencies.append(clock_ns() - start)
                    failures += report.dropped
                    poses.extend((s.pose.x_mm, s.pose.y_mm) for s in reconstructed)
            chunks.append(latencies)
        # one list of call latencies per "stream" step, in step order
        result.outcome = {"chunk_latencies_ns": chunks, "stream_failures": failures}
        for name in ("reconstructed.csv", "report.json"):
            result.artifacts[name] = _read(os.path.join(out, "track", name))
        result.artifacts["stream_poses"] = np.asarray(poses, dtype=float).tobytes()

    def report(self, result: PassResult) -> dict:
        return json.loads(result.artifacts["report.json"])

    def _check(self, result: PassResult) -> int:
        rows = list(csv.reader(io.StringIO(result.artifacts["reconstructed.csv"].decode())))[1:]
        batch = np.array([[float(v) for v in r] for r in rows]).reshape(-1, 3)
        stream = np.frombuffer(result.artifacts["stream_poses"]).reshape(-1, 2)
        failed = (self.n - len(batch)) + int(np.sum(~np.isfinite(batch).all(axis=1)))
        failed += result.outcome["stream_failures"]
        failed += int(np.sum(~np.isfinite(stream).all(axis=1)))
        return failed


# ---------------------------------------------------------------------------
# workspace_map

MAP_SIGMA_DEG = 0.1
# Cells this close to the fold (elbow separation over 2l) are singular:
# a finite-difference Jacobian steps across the fold and yields NaN, an
# exact one is finite but huge.  Either is accepted there.
FOLD_BAND = 1e-5
# Monte Carlo with 300 trials estimates an RMS to ~4% per cell; near the
# fold the linearisation itself breaks down, so only the bulk is compared.
MC_MEDIAN_REL_TOL = 0.05
MC_P90_REL_TOL = 0.15


class WorkspaceMap(Pipeline):
    """``deviation_map`` by Jacobian, then by Monte Carlo, on one grid."""

    name = "workspace_map"

    def __init__(self, work_dir: str, seed: int, cells_per_axis: int):
        self.config = fivebar.FiveBarConfig()
        rng = np.random.default_rng(derive_seed(seed, 7))
        # about a third of the cells are unreachable or on the other branch
        self.grid = fivebar.GridSpec(-60.0 + rng.uniform(-2, 2), 140.0 + rng.uniform(-2, 2),
                                     1.0 + rng.uniform(0, 2), 200.0 + rng.uniform(-2, 2),
                                     cells_per_axis, cells_per_axis)
        self.map_seed = derive_seed(seed, 8)
        poses = [[fivebar.TerminalPose(x, y) for x in self.grid.x_axis()]
                 for y in self.grid.y_axis()]
        branch = np.array([[fivebar.working_branch(self.config, p) for p in row]
                           for row in poses])
        self.expected = fivebar.workspace_mask(self.config, self.grid) & branch
        self.fold = np.zeros_like(self.expected)
        for iy, ix in zip(*np.nonzero(self.expected)):
            ratio = fivebar.elbow_separation_ratio(self.config, poses[iy][ix])
            self.fold[iy, ix] = ratio >= 1.0 - FOLD_BAND
        self.cells = cells_per_axis * cells_per_axis
        self.sizes = {"grid_cells": self.cells, "fold_cells": int(self.fold.sum())}

    def items(self) -> int:
        return 2 * self.cells + 2

    def _run(self, out: str, tracer, clock: HostClock, result: PassResult) -> None:
        with clock.step("jacobian"):
            jac = fivebar.deviation_map(self.config, MAP_SIGMA_DEG, self.grid,
                                        seed=self.map_seed, method="jacobian")
        with clock.step("monte_carlo"):
            mc = fivebar.deviation_map(self.config, MAP_SIGMA_DEG, self.grid,
                                       seed=self.map_seed, method="monte_carlo")
        result.artifacts = {"map_jacobian": jac.tobytes(), "map_monte_carlo": mc.tobytes()}

    def maps(self, result: PassResult):
        shape = (self.grid.ny, self.grid.nx)
        return (np.frombuffer(result.artifacts["map_jacobian"]).reshape(shape),
                np.frombuffer(result.artifacts["map_monte_carlo"]).reshape(shape))

    def _check(self, result: PassResult) -> int:
        jac, mc = self.maps(result)
        jac_ok, mc_ok = np.isfinite(jac), np.isfinite(mc)
        failed = int(np.sum((jac_ok != self.expected) & ~self.fold))
        failed += int(np.sum(jac[jac_ok] <= 0)) + int(np.sum(mc_ok & ~self.expected))
        both = mc_ok & jac_ok
        rel = np.abs(mc[both] / jac[both] - 1.0)
        failed += int(not (rel.size and np.median(rel) <= MC_MEDIAN_REL_TOL))
        failed += int(not (rel.size and np.percentile(rel, 90) <= MC_P90_REL_TOL))
        return failed


PIPELINES = {p.name: p for p in (SensorChain, TwinTrack, WorkspaceMap)}
