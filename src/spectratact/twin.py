"""Digital-twin trajectory replay through two soft joint encoders.

A terminal path is driven through inverse kinematics, each joint angle is
turned into a press position on its wrapped sensor, the optical forward
model produces (optionally noisy) readings, and the decode/FK chain
reconstructs the terminal path.  Noise-free, the whole chain is exact on
the workspace interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import PositionCalibration, fit_position
from .decoder import JointEncoderModel, decode_joint_angle
from .errors import KinematicError, NoContactError, OutOfSpanError, UnreachableError
from .fivebar import (
    FiveBarConfig,
    JointAngles,
    TerminalPose,
    forward_kinematics,
    inverse_kinematics,
    working_branch,
)
from .sensor import NoiseModel, SensorConfig, Stimulus, simulate_reading, substream, sweep
from .spectral import line_bank

DEFAULT_INDENTER_FORCE_N = 2.0


@dataclass(frozen=True)
class TrajectorySample:
    t_s: float
    pose: TerminalPose


@dataclass
class TrackingReport:
    """Reconstruction quality of one tracking run."""

    rms_error_mm: float
    max_error_mm: float
    errors_mm: list[float]
    dropped: int
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "rms_error_mm": self.rms_error_mm,
            "max_error_mm": self.max_error_mm,
            "errors_mm": list(self.errors_mm),
            "dropped": self.dropped,
            "n_samples": self.n_samples,
        }


def encoder_sensor_config(length_mm: float = 85.0, **overrides) -> SensorConfig:
    """Sensor variant used as a joint encoder: narrowband blue/red readout.

    Single-sample channels keep the log-ratio exactly affine in position,
    which makes the noise-free twin chain invertible to round-off.
    """
    overrides.setdefault("bank", line_bank([("B", 450.0), ("R", 650.0)]))
    return SensorConfig.default(length_mm=length_mm, **overrides)


def calibrate_encoder(
    sensor: SensorConfig,
    force_n: float = DEFAULT_INDENTER_FORCE_N,
    n_points: int = 86,
) -> PositionCalibration:
    """Noise-free position calibration over the sensor's full span."""
    rows = sweep(sensor, np.linspace(0.0, sensor.length_mm, n_points), [force_n])
    return fit_position([(r.position_mm, r.reading) for r in rows])


@dataclass(frozen=True)
class TwinAssembly:
    """Five-bar linkage with one soft encoder per driven joint."""

    fivebar: FiveBarConfig = field(default_factory=FiveBarConfig)
    sensors: tuple[SensorConfig, SensorConfig] = None
    encoders: tuple[JointEncoderModel, JointEncoderModel] = None
    calibrations: tuple[PositionCalibration, PositionCalibration] = None
    indenter_force_n: float = DEFAULT_INDENTER_FORCE_N

    def __post_init__(self):
        if not self.indenter_force_n > 0:
            raise ValueError("indenter_force_n must be > 0")
        sensors = self.sensors or (encoder_sensor_config(), encoder_sensor_config())
        encoders = self.encoders or (JointEncoderModel(), JointEncoderModel())
        calibrations = self.calibrations or tuple(
            calibrate_encoder(s, self.indenter_force_n) for s in sensors
        )
        object.__setattr__(self, "sensors", tuple(sensors))
        object.__setattr__(self, "encoders", tuple(encoders))
        object.__setattr__(self, "calibrations", tuple(calibrations))

    def to_dict(self) -> dict:
        return {
            "fivebar": self.fivebar.to_dict(),
            "sensors": [s.to_dict() for s in self.sensors],
            "encoders": [e.to_dict() for e in self.encoders],
            "indenter_force_n": self.indenter_force_n,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TwinAssembly":
        fivebar = FiveBarConfig.from_dict(doc.get("fivebar", {}))
        if "sensors" in doc:
            sensors = tuple(SensorConfig.from_dict(d) for d in doc["sensors"])
        elif "sensor" in doc:
            shared = SensorConfig.from_dict(doc["sensor"])
            sensors = (shared, shared)
        else:
            sensors = None
        encoders = (
            tuple(JointEncoderModel.from_dict(d) for d in doc["encoders"])
            if "encoders" in doc else None
        )
        return cls(
            fivebar=fivebar,
            sensors=sensors,
            encoders=encoders,
            indenter_force_n=float(doc.get("indenter_force_n", DEFAULT_INDENTER_FORCE_N)),
        )


def snr_db_for_angle_sigma(
    poscal: PositionCalibration, encoder: JointEncoderModel, sigma_deg: float
) -> float:
    """Channel SNR giving a target 1-sigma decoded-angle error.

    Inverts the first-order chain: angle noise -> position noise via the
    encoder gain -> log-ratio noise via the calibration slope -> equal
    relative noise on the two ratio channels.
    """
    if not sigma_deg > 0:
        raise ValueError("sigma_deg must be > 0")
    sigma_lr = sigma_deg * encoder.arc_gain_mm_per_deg * abs(poscal.slope)
    per_channel = sigma_lr / math.sqrt(2.0)
    if per_channel >= 1:
        raise ValueError("target angle noise exceeds the sensor's dynamic range")
    return -20.0 * math.log10(per_channel)


def track(
    assembly: TwinAssembly,
    trajectory,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> tuple[list[TrajectorySample], TrackingReport]:
    """Replay a terminal trajectory through the optical twin.

    Per sample: IK to joint angles, encoder map to press positions,
    optical simulation (per-sample RNG substreams derived from the seed
    and the sample index), angle decoding, FK back to a pose.  Samples
    that fail to decode are dropped and counted; they never abort the
    run.  A trajectory with no reachable pose at all is rejected.
    """
    samples = list(trajectory)
    if not samples:
        raise ValueError("trajectory is empty")
    times = [s.t_s for s in samples]
    if any(not b > a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be strictly increasing")
    if not any(working_branch(assembly.fivebar, s.pose) for s in samples):
        raise UnreachableError("no trajectory sample is reachable on the working branch")

    reconstructed: list[TrajectorySample] = []
    errors: list[float] = []
    dropped = 0
    for i, sample in enumerate(samples):
        try:
            pose_hat = _track_one(assembly, sample.pose, noise, seed, i)
        except (KinematicError, NoContactError, OutOfSpanError):
            dropped += 1
            continue
        reconstructed.append(TrajectorySample(sample.t_s, pose_hat))
        errors.append(math.hypot(pose_hat.x_mm - sample.pose.x_mm,
                                 pose_hat.y_mm - sample.pose.y_mm))
    if errors:
        rms = float(np.sqrt(np.mean(np.square(errors))))
        max_err = float(np.max(errors))
    else:
        rms = max_err = 0.0
    report = TrackingReport(
        rms_error_mm=rms,
        max_error_mm=max_err,
        errors_mm=errors,
        dropped=dropped,
        n_samples=len(samples),
    )
    return reconstructed, report


def _track_one(assembly, pose, noise, seed, index) -> TerminalPose:
    angles = inverse_kinematics(assembly.fivebar, pose)
    decoded_deg = []
    for joint, (theta_rad, sensor, encoder, poscal) in enumerate(zip(
        (angles.theta1_rad, angles.theta2_rad),
        assembly.sensors,
        assembly.encoders,
        assembly.calibrations,
    )):
        position = encoder.position_for_angle(math.degrees(theta_rad))
        stim = Stimulus(position, assembly.indenter_force_n)
        rng = substream(seed, index, joint) if noise is not None else None
        reading = simulate_reading(sensor, stim, noise, rng)
        decoded_deg.append(decode_joint_angle(reading, encoder, poscal))
    return forward_kinematics(
        assembly.fivebar,
        JointAngles(math.radians(decoded_deg[0]), math.radians(decoded_deg[1])),
    )


def generate_path(
    shape: str,
    center: tuple[float, float],
    scale_mm: float,
    n_samples: int,
    config: FiveBarConfig | None = None,
    duration_s: float = 1.0,
) -> list[TrajectorySample]:
    """Synthetic terminal path: "line", "circle" or "S".

    ``scale_mm`` is the full extent (line length, circle diameter, S
    height).  When a linkage config is given, every generated pose is
    checked for reachability and the first offending sample is named.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if not scale_mm > 0:
        raise ValueError("scale_mm must be > 0")
    cx, cy = float(center[0]), float(center[1])
    u = np.linspace(0.0, 1.0, int(n_samples))
    if shape == "line":
        xs = cx + (u - 0.5) * scale_mm
        ys = np.full_like(u, cy)
    elif shape == "circle":
        radius = 0.5 * scale_mm
        phi = 2.0 * math.pi * u
        xs = cx + radius * np.cos(phi)
        ys = cy + radius * np.sin(phi)
    elif shape == "S":
        radius = 0.25 * scale_mm
        xs = np.empty_like(u)
        ys = np.empty_like(u)
        top = u <= 0.5
        # upper arc sweeps the left side, lower arc the right side,
        # meeting at the center with a continuous tangent
        a_top = math.pi / 2 + 2.0 * math.pi * u[top]
        xs[top] = cx + radius * np.cos(a_top)
        ys[top] = cy + radius + radius * np.sin(a_top)
        a_bot = math.pi / 2 - 2.0 * math.pi * (u[~top] - 0.5)
        xs[~top] = cx + radius * np.cos(a_bot)
        ys[~top] = cy - radius + radius * np.sin(a_bot)
    else:
        raise ValueError(f"unknown path shape {shape!r}")
    times = u * float(duration_s)
    path = [
        TrajectorySample(float(t), TerminalPose(float(x), float(y)))
        for t, x, y in zip(times, xs, ys)
    ]
    if config is not None:
        for i, sample in enumerate(path):
            if not working_branch(config, sample.pose):
                raise UnreachableError(
                    f"generated sample {i} at ({sample.pose.x_mm:g}, "
                    f"{sample.pose.y_mm:g}) mm is not reachable on the working branch"
                )
    return path
