"""Fitting the position and force models from stimulus/reading samples.

Position: ordinary least squares of the channel log-ratio against press
position (the ratio is affine in position for narrow channels).  Force:
a monotone piecewise-cubic interpolant of normalized total intensity
against force, built on knots clustered toward the contact threshold
where the response has unbounded slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    BelowFloorError,
    BelowThresholdError,
    DegenerateFitError,
    NonMonotoneDataError,
    SaturatedError,
    UnusableSampleError,
)
from .sensor import NoiseModel, SensorConfig, channel_intensities, position_transmission
from .spectral import log_ratio

INVERT_REL_TOL = 1e-10  # invert's bisection stop: bracket width over max(1, |force|)


@dataclass(frozen=True)
class PositionCalibration:
    """Affine log-ratio model: log_ratio = slope * position + intercept."""

    slope: float
    intercept: float
    r_squared: float
    residual_std: float
    numerator_ch: str
    denominator_ch: str
    span_mm: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.slope) and self.slope != 0):
            raise DegenerateFitError(f"slope must be finite and nonzero, got {self.slope}")
        lo, hi = self.span_mm
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DegenerateFitError(f"span_mm must be finite with lo < hi, got {self.span_mm}")

    def predict_log_ratio(self, position_mm: float) -> float:
        return self.slope * position_mm + self.intercept

    def position_for_log_ratio(self, value: float) -> float:
        return (value - self.intercept) / self.slope

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "residual_std": self.residual_std,
            "numerator_ch": self.numerator_ch,
            "denominator_ch": self.denominator_ch,
            "span_mm": list(self.span_mm),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PositionCalibration":
        return cls(
            slope=float(doc["slope"]),
            intercept=float(doc["intercept"]),
            r_squared=float(doc["r_squared"]),
            residual_std=float(doc["residual_std"]),
            numerator_ch=doc["numerator_ch"],
            denominator_ch=doc["denominator_ch"],
            span_mm=(float(doc["span_mm"][0]), float(doc["span_mm"][1])),
        )


def _ratio_channels(reading, numerator_ch, denominator_ch):
    names = reading.channel_names
    num = numerator_ch if numerator_ch is not None else names[0]
    den = denominator_ch if denominator_ch is not None else names[-1]
    if num == den:
        raise ValueError("numerator and denominator channels must differ")
    return num, den


def fit_position(
    samples,
    numerator_ch: str | None = None,
    denominator_ch: str | None = None,
) -> PositionCalibration:
    """Least-squares affine fit of log-ratio against position.

    ``samples`` is an iterable of (position_mm, ChannelReading).  By
    default the ratio is first channel over last channel (B over R for
    the stock bank, the pair with the largest decay contrast).
    """
    samples = list(samples)
    if len(samples) < 3:
        raise DegenerateFitError(f"need at least 3 samples, got {len(samples)}")
    num = den = None
    positions, ratios, dead_rows = [], [], []
    for i, (position, reading) in enumerate(samples):
        if num is None:
            num, den = _ratio_channels(reading, numerator_ch, denominator_ch)
        try:
            ratios.append(log_ratio(reading, num, den))
        except BelowFloorError:
            dead_rows.append(i)
            continue
        positions.append(float(position))
    if dead_rows:
        raise UnusableSampleError(
            f"{len(dead_rows)} dead-zone sample(s) at rows {dead_rows}", rows=dead_rows
        )
    x = np.asarray(positions)
    y = np.asarray(ratios)
    if np.unique(x).size < 2:
        raise DegenerateFitError("all samples share one position; fit is rank-deficient")
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    r_squared = min(max(r_squared, 0.0), 1.0)
    dof = len(x) - 2
    residual_std = math.sqrt(ss_res / dof) if dof > 0 else 0.0
    return PositionCalibration(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        residual_std=residual_std,
        numerator_ch=num,
        denominator_ch=den,
        span_mm=(float(x.min()), float(x.max())),
    )


@dataclass(frozen=True)
class ForceCalibration:
    """Monotone cubic interpolant of normalized intensity vs force.

    Knots are strictly increasing on both axes; the interpolant passes
    through every knot and preserves monotonicity (PCHIP slopes), so the
    inverse exists everywhere between the first and last knot.
    """

    forces_n: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        forces = np.asarray(self.forces_n, dtype=float)
        values = np.asarray(self.normalized, dtype=float)
        if forces.ndim != 1 or forces.size < 3:
            raise DegenerateFitError("force calibration needs at least 3 knots")
        if values.shape != forces.shape:
            raise ValueError("forces and normalized intensities lengths differ")
        if not np.all(np.diff(forces) > 0):
            raise NonMonotoneDataError("knot forces must be strictly increasing")
        if not np.all(np.diff(values) > 0):
            raise NonMonotoneDataError(
                "normalized intensities must be strictly increasing with force"
            )
        object.__setattr__(self, "forces_n", forces)
        object.__setattr__(self, "normalized", values)

    @cached_property
    def _interpolant(self) -> PchipInterpolator:
        return PchipInterpolator(self.forces_n, self.normalized)

    @cached_property
    def _derivative(self):
        return self._interpolant.derivative()

    def evaluate(self, force_n: float) -> float:
        return float(self._interpolant(force_n))

    def derivative(self, force_n: float) -> float:
        return float(self._derivative(force_n))

    def invert(self, normalized_value: float) -> float:
        """Force whose interpolated response equals the given value.

        Bisection, guaranteed to converge by monotonicity.  Values below
        the first knot raise :class:`BelowThresholdError` (dead zone),
        above the last knot :class:`SaturatedError`.
        """
        lo_v, hi_v = float(self.normalized[0]), float(self.normalized[-1])
        if normalized_value < lo_v:
            raise BelowThresholdError(
                f"normalized intensity {normalized_value:g} below first knot {lo_v:g}"
            )
        if normalized_value > hi_v:
            raise SaturatedError(
                f"normalized intensity {normalized_value:g} above last knot {hi_v:g}"
            )
        lo, hi = float(self.forces_n[0]), float(self.forces_n[-1])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.evaluate(mid) < normalized_value:
                lo = mid
            else:
                hi = mid
            if hi - lo <= INVERT_REL_TOL * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    def to_dict(self) -> dict:
        return {"forces_n": self.forces_n.tolist(), "normalized": self.normalized.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "ForceCalibration":
        return cls(np.asarray(doc["forces_n"]), np.asarray(doc["normalized"]))


def force_knot_schedule(
    f_threshold_n: float, f_max_n: float, n_knots: int = 21, clustering: float = 3.0
) -> np.ndarray:
    """Knot forces clustered toward the threshold.

    The response grows like a sub-unity power just past the threshold,
    with unbounded slope there; cubic clustering keeps the interpolant's
    relative inverse error well under 1% where uniform knots fail badly.
    """
    if not f_max_n > f_threshold_n:
        raise ValueError("f_max_n must exceed f_threshold_n")
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    u = np.linspace(0.0, 1.0, int(n_knots)) ** clustering
    return f_threshold_n + u * (f_max_n - f_threshold_n)


def fit_force(
    samples,
    transmission,
    known_position_mm: float | None = None,
    poscal: PositionCalibration | None = None,
) -> ForceCalibration:
    """Build the monotone force interpolant from (force, reading) samples.

    Total intensities are divided by the position transmission factor
    before knot construction, so the interpolant lives in coupled-fraction
    units and transfers across press positions.  Positions come from
    ``known_position_mm`` when the rig fixed them, otherwise each sample's
    position is decoded through ``poscal``.  Replicated forces are
    averaged into a single knot.
    """
    if known_position_mm is None and poscal is None:
        raise ValueError("need known_position_mm or a position calibration")
    grouped: dict[float, list[float]] = {}
    for force, reading in samples:
        if known_position_mm is not None:
            position = float(known_position_mm)
        else:
            value = log_ratio(reading, poscal.numerator_ch, poscal.denominator_ch)
            position = poscal.position_for_log_ratio(value)
        grouped.setdefault(float(force), []).append(
            reading.total() / float(transmission(position))
        )
    if len(grouped) < 3:
        raise DegenerateFitError(
            f"need at least 3 distinct forces, got {len(grouped)}"
        )
    forces = np.array(sorted(grouped))
    normalized = np.array([np.mean(grouped[f]) for f in forces])
    return ForceCalibration(forces, normalized)


@dataclass(frozen=True)
class ResolutionReport:
    """First-order resolution and held-out accuracy at an operating point."""

    spatial_resolution_mm: float
    spatial_accuracy_mm: float
    force_resolution_n: float
    force_accuracy_n: float

    def __post_init__(self):
        for name in ("spatial_resolution_mm", "spatial_accuracy_mm",
                     "force_resolution_n", "force_accuracy_n"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        return {
            "spatial_resolution_mm": self.spatial_resolution_mm,
            "spatial_accuracy_mm": self.spatial_accuracy_mm,
            "force_resolution_n": self.force_resolution_n,
            "force_accuracy_n": self.force_accuracy_n,
        }


def _ratio_pair(config: SensorConfig, poscal: PositionCalibration, values: np.ndarray):
    """Numerator and denominator channels of ``values`` (last axis: channels)."""
    names = config.bank.names
    return (values[..., names.index(poscal.numerator_ch)],
            values[..., names.index(poscal.denominator_ch)])


def estimate_resolution(
    config: SensorConfig,
    poscal: PositionCalibration,
    forcecal: ForceCalibration,
    noise: NoiseModel,
    position_mm: float,
    force_n: float,
    held_out_positions=None,
    held_out_forces=None,
) -> ResolutionReport:
    """Propagate channel noise into position/force resolution.

    Resolution: 1-sigma noise on the decoded quantity via the affine
    (position) and local-derivative (force) maps.  Accuracy: mean
    absolute decode residual on noise-free held-out grids, i.e. pure
    model bias, independent of the noise level.
    """
    values = channel_intensities(config, [position_mm], [force_n])[0]
    sigma = noise.sigma_vector(values)
    num, den = _ratio_pair(config, poscal, values)
    if num <= 0 or den <= 0:
        raise DegenerateFitError("operating point lies in the dead zone")
    s_num, s_den = _ratio_pair(config, poscal, sigma)
    spatial_resolution = math.hypot(s_num / num, s_den / den) / abs(poscal.slope)

    sigma_total = float(np.sqrt(np.sum(sigma ** 2)))
    transmission = position_transmission(config, position_mm)
    slope_force = forcecal.derivative(force_n)
    if slope_force <= 0:
        raise DegenerateFitError("force law has nonpositive slope at operating point")
    force_resolution = (sigma_total / transmission) / slope_force

    if held_out_positions is None:
        lo, hi = poscal.span_mm
        held_out_positions = np.linspace(lo, hi, 33)[1:-1]
    xs = np.asarray(held_out_positions, dtype=float)
    num, den = _ratio_pair(config, poscal,
                           channel_intensities(config, xs, np.full(xs.shape, force_n)))
    decoded = poscal.position_for_log_ratio(np.log(num / den))
    spatial_accuracy = float(np.mean(np.abs(decoded - xs)))

    if held_out_forces is None:
        held_out_forces = 0.5 * (forcecal.forces_n[1:] + forcecal.forces_n[:-1])
    fs = np.asarray(held_out_forces, dtype=float)
    totals = channel_intensities(config, np.full(fs.shape, position_mm), fs).sum(axis=1)
    force_errors = []
    for f, total in zip(fs.tolist(), totals.tolist()):
        try:
            decoded_force = forcecal.invert(total / transmission)
        except (BelowThresholdError, SaturatedError):
            continue
        force_errors.append(abs(decoded_force - f))
    force_accuracy = float(np.mean(force_errors)) if force_errors else 0.0

    return ResolutionReport(
        spatial_resolution_mm=spatial_resolution,
        spatial_accuracy_mm=spatial_accuracy,
        force_resolution_n=force_resolution,
        force_accuracy_n=force_accuracy,
    )
