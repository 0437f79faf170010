"""Digital-twin trajectory replay through two soft joint encoders.

A terminal path is driven through inverse kinematics, each joint angle is
turned into a press position on its wrapped sensor, the optical forward
model produces (optionally noisy) readings, and the decode/FK chain
reconstructs the terminal path.  Noise-free, the whole chain is exact on
the workspace interior.

``track`` batches the optics: kinematics and decoding stay scalar
``math`` code per sample, while the forward model runs once per distinct
sensor over every kept (sample, joint) row.  Each row draws its noise
from its own substream ``(seed, sample, joint)``, so a row's reading
does not depend on which other rows share the call or on their order,
and the batched run gives the per-sample chain's result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import PositionCalibration, fit_position
from .decoder import JointEncoderModel
from .errors import KinematicError, UnreachableError
from .fivebar import (
    FiveBarConfig,
    JointAngles,
    TerminalPose,
    forward_kinematics,
    inverse_kinematics,
    working_branch,
)
from .sensor import NoiseModel, SensorConfig, _readings, substream, sweep
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
        sensors = tuple(self.sensors or (encoder_sensor_config(), encoder_sensor_config()))
        encoders = tuple(self.encoders or (JointEncoderModel(), JointEncoderModel()))
        if len(sensors) != 2 or len(encoders) != 2:
            raise ValueError(f"need one sensor and one encoder per joint, got "
                             f"{len(sensors)} sensor(s) and {len(encoders)} encoder(s)")
        if sensors[0] is not sensors[1] and sensors[0].to_dict() == sensors[1].to_dict():
            # one shared object: calibrated once, one kernel call per track
            sensors = (sensors[0], sensors[0])
        calibrations = tuple(self.calibrations or ())
        if not calibrations:
            first = calibrate_encoder(sensors[0], self.indenter_force_n)
            calibrations = (first, first if sensors[1] is sensors[0]
                            else calibrate_encoder(sensors[1], self.indenter_force_n))
        if len(calibrations) != 2:
            raise ValueError(f"need one calibration per joint, got {len(calibrations)}")
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "encoders", encoders)
        object.__setattr__(self, "calibrations", calibrations)

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

    Kinematics, per sample: IK to joint angles, the encoder map to press
    positions and the span test of each sensor.  Optics, batched: every
    kept (sample, joint) row goes through one forward-model call per
    distinct sensor.  Row (i, joint) draws its noise from its own
    substream ``(seed, i, joint)``, so neither the batching nor the row
    order changes a reading.  Decode, per sample: the position log-ratio
    and the encoder map back to angles, then FK to a pose.  Samples that
    are unreachable, off a sensor's span, without contact or past the FK
    limits are dropped and counted; they never abort the run.  A
    trajectory with no pose on the working branch is rejected.
    """
    samples = list(trajectory)
    if not samples:
        raise ValueError("trajectory is empty")
    times = [s.t_s for s in samples]
    if any(not b > a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be strictly increasing")

    fivebar, l = assembly.fivebar, assembly.fivebar.l_mm
    (enc1, enc2), (s1, s2) = assembly.encoders, assembly.sensors
    kept: list[int] = []
    positions: list[tuple[float, float]] = []
    on_branch = False
    for i, sample in enumerate(samples):
        try:
            angles = inverse_kinematics(fivebar, sample.pose)
        except KinematicError:
            continue
        t1, t2 = angles.theta1_rad, angles.theta2_rad
        # working_branch's test: the pose lies above the elbow midpoint
        on_branch = on_branch or sample.pose.y_mm > 0.5 * (l * math.cos(t1) + l * math.cos(t2))
        p1 = enc1.position_for_angle(math.degrees(t1))
        p2 = enc2.position_for_angle(math.degrees(t2))
        if 0 <= p1 <= s1.length_mm and 0 <= p2 <= s2.length_mm:
            kept.append(i)
            positions.append((p1, p2))
    if not on_branch:
        raise UnreachableError("no trajectory sample is reachable on the working branch")

    reconstructed: list[TrajectorySample] = []
    errors: list[float] = []
    for i, deg1, deg2 in zip(kept, *_joint_angles(assembly, kept, positions, noise, seed)):
        if deg1 is None or deg2 is None:
            continue
        try:
            pose_hat = forward_kinematics(
                fivebar, JointAngles(math.radians(deg1), math.radians(deg2)))
        except KinematicError:
            continue
        sample = samples[i]
        reconstructed.append(TrajectorySample(sample.t_s, pose_hat))
        errors.append(math.hypot(pose_hat.x_mm - sample.pose.x_mm,
                                 pose_hat.y_mm - sample.pose.y_mm))
    if errors:
        rms = float(np.sqrt(np.mean(np.square(errors))))
        max_err = max(errors)
    else:
        rms = max_err = 0.0
    report = TrackingReport(
        rms_error_mm=rms,
        max_error_mm=max_err,
        errors_mm=errors,
        dropped=len(samples) - len(errors),
        n_samples=len(samples),
    )
    return reconstructed, report


def _joint_angles(assembly, kept, positions, noise, seed) -> list[list[float | None]]:
    """Decoded angle in degrees per joint and kept sample, None without contact.

    One forward-model call per distinct sensor: joints that share one
    sensor object go through a single call on interleaved (sample, joint)
    rows.  Decoding is :func:`decode_joint_angle`'s arithmetic on the
    ratio's two channel columns, with ``math.log``, whose rounding
    ``np.log`` does not share.
    """
    s1, s2 = assembly.sensors
    groups = [(s1, (0, 1))] if s1 is s2 else [(s1, (0,)), (s2, (1,))]
    decoded = [[], []]
    for sensor, joints in groups:
        # built as the kernel draws: a list would hold every generator at once
        rngs = None if noise is None else (substream(seed, i, j) for i in kept for j in joints)
        xs = [pair[j] for pair in positions for j in joints]
        values = _readings(sensor, xs, [assembly.indenter_force_n] * len(xs), noise, rngs)
        # ChannelReading's check: an overflowing noise sigma must not decode as a pose
        if not np.isfinite(values).all():
            raise ValueError("channel intensities must be finite and nonnegative")
        names = sensor.bank.names
        for k, j in enumerate(joints):
            rows = values[k::len(joints)]
            encoder, poscal = assembly.encoders[j], assembly.calibrations[j]
            lo, hi = poscal.span_mm
            for num, den in zip(rows[:, names.index(poscal.numerator_ch)].tolist(),
                                rows[:, names.index(poscal.denominator_ch)].tolist()):
                if num <= 0 or den <= 0:
                    decoded[j].append(None)
                    continue
                raw = poscal.position_for_log_ratio(math.log(num / den))
                decoded[j].append(encoder.angle_for_position(min(max(raw, lo), hi)))
    return decoded


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
