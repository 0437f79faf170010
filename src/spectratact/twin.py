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

The work runs on plain ``(t_s, x_mm, y_mm)`` float tuples:
``_track_rows`` replays them and ``_path_rows`` generates them.  The
public ``track`` and ``generate_path`` wrap those rows in
:class:`TrajectorySample` objects, and CLI ``track`` calls the row cores
directly, so a 1000-sample replay builds no per-sample object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import PositionCalibration, fit_position
from .codec import FLOATS, INT, NUMBER, POSITIVE, Record, decode_fields, join, spec
from .decoder import JointEncoderModel
from .errors import KinematicError, UnreachableError
from .fivebar import FiveBarConfig, TerminalPose, _fk, _ik, _ik_batch
from .sensor import NoiseModel, SensorConfig, _readings, substreams
from .spectral import line_bank

DEFAULT_INDENTER_FORCE_N = 2.0


@dataclass(frozen=True)
class TrajectorySample:
    t_s: float
    pose: TerminalPose


@dataclass
class TrackingReport(Record):
    """Reconstruction quality of one tracking run."""

    errors_mm: list[float] = spec(FLOATS)
    dropped: int = spec(INT)
    n_samples: int = spec(INT)
    # None (JSON null) when no sample was reconstructed, so no error was measured
    rms_error_mm: float | None = spec(NUMBER, None)
    max_error_mm: float | None = spec(NUMBER, None)


def encoder_sensor_config() -> SensorConfig:
    """Sensor variant used as a joint encoder: narrowband blue/red readout.

    Single-sample channels keep the log-ratio exactly affine in position,
    which makes the noise-free twin chain invertible to round-off.
    """
    return SensorConfig(bank=line_bank([("B", 450.0), ("R", 650.0)]))


def calibrate_encoder(
    sensor: SensorConfig,
    force_n: float = DEFAULT_INDENTER_FORCE_N,
    n_points: int = 86,
) -> PositionCalibration:
    """Noise-free position calibration over the sensor's full span."""
    positions = np.linspace(0.0, sensor.length_mm, n_points)
    values = _readings(sensor, positions, [force_n], None, None)
    return fit_position(sensor.bank.names, values, positions)


@dataclass(frozen=True)
class TwinAssembly(Record):
    """Five-bar linkage with one soft encoder per driven joint, as its JSON says.

    The calibrations are fitted, never set: :func:`calibrate_encoder` of each
    distinct sensor at ``indenter_force_n``, once, when the assembly is built.
    """

    fivebar: FiveBarConfig = spec(FiveBarConfig, factory=FiveBarConfig)
    sensors: tuple[SensorConfig, SensorConfig] = spec((SensorConfig,), None)
    encoders: tuple[JointEncoderModel, JointEncoderModel] = spec((JointEncoderModel,), None)
    calibrations: tuple[PositionCalibration, PositionCalibration] = field(init=False)
    indenter_force_n: float = spec(NUMBER, DEFAULT_INDENTER_FORCE_N, bound=POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        # by default both joints share one sensor object
        sensors = tuple(self.sensors or (encoder_sensor_config(),) * 2)
        encoders = tuple(self.encoders or (JointEncoderModel(), JointEncoderModel()))
        if len(sensors) != 2 or len(encoders) != 2:
            raise ValueError(f"need one sensor and one encoder per joint, got "
                             f"{len(sensors)} sensor(s) and {len(encoders)} encoder(s)")
        if sensors[0] is not sensors[1] and sensors[0] == sensors[1]:
            # one shared object: calibrated once, one kernel call per track
            sensors = (sensors[0], sensors[0])
        first = calibrate_encoder(sensors[0], self.indenter_force_n)
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "encoders", encoders)
        object.__setattr__(self, "calibrations", (
            first, first if sensors[1] is sensors[0]
            else calibrate_encoder(sensors[1], self.indenter_force_n)))

    @classmethod
    def from_dict(cls, doc, path: str = "") -> "TwinAssembly":
        """As the codec reads it, where ``sensor`` without ``sensors`` serves both joints."""
        kwargs = decode_fields(cls, doc, path)
        if kwargs.get("sensors") is None and "sensor" in doc:
            shared = SensorConfig.from_dict(doc["sensor"], join(path, "sensor"))
            kwargs["sensors"] = (shared, shared)
        return cls(**kwargs)


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
    order changes a reading.  The draws come from ``sensor.substreams``
    over the kept rows, which computes every row's seed words at once when
    there are enough rows; each row's own Generator draws exactly what
    ``substream(seed, i, joint)`` gives.  Decode, per sample: the position
    log-ratio and the encoder map back to angles, then FK to a pose.  Samples that
    are unreachable, off a sensor's span, without contact or past the FK
    limits are dropped and counted; they never abort the run.  A
    trajectory with no pose on the working branch is rejected, and so is a
    sample with a NaN coordinate or a time that is not finite.  IK and FK
    run as ``fivebar._ik`` and ``_fk``, scalar ``math`` on plain floats (the
    ``fivebar`` docstring says why).  The work is :func:`_track_rows` on
    ``(t_s, x_mm, y_mm)`` rows; this wraps its rows in and out.
    """
    rows, report = _track_rows(
        assembly, [(s.t_s, s.pose.x_mm, s.pose.y_mm) for s in trajectory], noise, seed)
    return [TrajectorySample(t, TerminalPose(x, y)) for t, x, y in rows], report


def _track_rows(assembly: TwinAssembly, rows, noise: NoiseModel | None, seed: int):
    """:func:`track` on ``(t_s, x_mm, y_mm)`` tuples: the reconstructed rows and the report."""
    if not rows:
        raise ValueError("trajectory is empty")
    fivebar, l = assembly.fivebar, assembly.fivebar.l_mm
    (enc1, enc2), (s1, s2) = assembly.encoders, assembly.sensors
    kept: list[int] = []
    positions: list[tuple[float, float]] = []
    on_branch = False
    for i, (t, x, y) in enumerate(rows):
        if not math.isfinite(t) or x != x or y != y:
            # a NaN pose is neither reachable nor unreachable; an infinite one is unreachable
            what = "a NaN time or coordinate" if t != t or x != x or y != y \
                else f"the infinite time {t}"
            raise ValueError(f"trajectory sample {i} has {what}")
        if i and not t > rows[i - 1][0]:
            raise ValueError(f"trajectory times must be strictly increasing at sample {i}")
        try:
            t1, t2 = _ik(fivebar, x, y)
        except KinematicError:
            continue
        # working_branch's test, scalar like the IK: the pose is above the elbow midpoint
        on_branch = on_branch or y > 0.5 * (l * math.cos(t1) + l * math.cos(t2))
        p1 = enc1.position_for_angle(math.degrees(t1))
        p2 = enc2.position_for_angle(math.degrees(t2))
        if 0 <= p1 <= s1.length_mm and 0 <= p2 <= s2.length_mm:
            kept.append(i)
            positions.append((p1, p2))
    if not on_branch:
        raise UnreachableError("no trajectory sample is reachable on the working branch")

    reconstructed: list[tuple[float, float, float]] = []
    errors: list[float] = []
    for i, deg1, deg2 in zip(kept, *_joint_angles(assembly, kept, positions, noise, seed)):
        if deg1 is None or deg2 is None:
            continue
        try:
            x, y = _fk(fivebar, math.radians(deg1), math.radians(deg2))
        except KinematicError:
            continue
        t, x0, y0 = rows[i]
        reconstructed.append((t, x, y))
        errors.append(math.hypot(x - x0, y - y0))
    if errors:
        # np.mean's pairwise sum and correctly rounded divide, and a correctly rounded
        # sqrt: np.sqrt(np.mean(...)) bit for bit, without about 5 us of dispatch
        rms = math.sqrt(np.square(errors).sum() / len(errors))
        max_err = max(errors)
    else:
        rms = max_err = None
    report = TrackingReport(
        rms_error_mm=rms,
        max_error_mm=max_err,
        errors_mm=errors,
        dropped=len(rows) - len(errors),
        n_samples=len(rows),
    )
    return reconstructed, report


def _joint_angles(assembly, kept, positions, noise, seed) -> list[list[float | None]]:
    """Decoded angle in degrees per joint and kept sample, None without contact.

    One forward-model call per distinct sensor: joints that share one
    sensor object go through a single call on interleaved (sample, joint)
    rows.  Each row decodes inline as :meth:`PositionCalibration.decode`'s
    inverse and span clamp and ``angle_for_position`` do, operation for
    operation, with ``math.log``, whose rounding ``np.log`` does not share.
    It stays scalar: on a one-sample ``track`` the fixed numpy cost of that
    array decode raised the median step time by 40-80 us.
    For the same reason the readings reach Python in one
    ``values.T.tolist()``, one list per channel, and each joint takes every
    ``len(joints)``-th entry of its two ratio channels by list slicing: the
    same floats that per-joint row slices and four column ``tolist`` calls
    gave, which with the rest of this bookkeeping took about 12 us of a
    100 us one-sample step.
    """
    s1, s2 = assembly.sensors
    groups = [(s1, (0, 1))] if s1 is s2 else [(s1, (0,)), (s2, (1,))]
    decoded = [None, None]  # each joint's list, set by its sensor group
    for sensor, joints in groups:
        rngs = None if noise is None else substreams(seed, [(i, j) for i in kept for j in joints])
        xs = [pair[j] for pair in positions for j in joints]
        values = _readings(sensor, xs, [assembly.indenter_force_n], noise, rngs)
        names, columns = sensor.bank.names, values.T.tolist()  # one list per channel
        for k, j in enumerate(joints):
            encoder, poscal = assembly.encoders[j], assembly.calibrations[j]
            b, m, (lo, hi) = poscal.intercept, poscal.slope, poscal.span_mm
            offset, gain = encoder.offset_mm, encoder.arc_gain_mm_per_deg
            decoded[j] = [
                None if num <= 0 or den <= 0
                else (min(max((math.log(num / den) - b) / m, lo), hi) - offset) / gain
                for num, den in zip(columns[names.index(poscal.numerator_ch)][k::len(joints)],
                                    columns[names.index(poscal.denominator_ch)][k::len(joints)])
            ]
    return decoded


def generate_path(
    shape: str,
    center: tuple[float, float],
    scale_mm: float,
    n_samples: int,
    config: FiveBarConfig | None = None,
) -> list[TrajectorySample]:
    """Synthetic terminal path: "line", "circle" or "S", timed evenly from 0 to 1 s.

    ``scale_mm`` is the full extent (line length, circle diameter, S
    height).  When a linkage config is given, every generated pose is
    checked by :func:`working_branch`'s test and the first offender named.
    The path is :func:`_path_rows`'s ``(t_s, x_mm, y_mm)`` rows, wrapped.
    """
    return [TrajectorySample(t, TerminalPose(x, y))
            for t, x, y in _path_rows(shape, center, scale_mm, n_samples, config)]


def _path_rows(shape, center, scale_mm, n_samples, config=None) -> list[tuple]:
    """:func:`generate_path` as ``(t_s, x_mm, y_mm)`` tuples of Python floats."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if not (scale_mm > 0 and math.isfinite(scale_mm)):
        raise ValueError(f"scale_mm must be finite and > 0, got {scale_mm}")
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"center must be finite, got {center}")
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
    rows = list(zip(u.tolist(), xs.tolist(), ys.tolist()))
    if config is not None and not (keep := _ik_batch(config, xs, ys)[2]).all():
        i = int(np.argmin(keep))  # the first False
        raise UnreachableError(f"generated sample {i} at ({rows[i][1]:g}, "
                               f"{rows[i][2]:g}) mm is not reachable on the working branch")
    return rows
