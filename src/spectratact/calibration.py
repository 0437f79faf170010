"""Fitting the position and force models from stimulus/reading samples.

Position: ordinary least squares of the channel log-ratio against press
position (the ratio is affine in position for narrow channels).  Force:
a monotone piecewise-cubic (PCHIP) interpolant of normalized total
intensity against force, built on knots clustered toward the contact
threshold where the response has unbounded slope.  The interpolant is
implemented here in numpy and matches scipy's ``PchipInterpolator`` bit
for bit (the tests use scipy as the oracle), so importing the package
does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def _like(query, result: np.ndarray):
    """``result`` as a float when ``query`` was a scalar."""
    return float(result) if np.ndim(query) == 0 else result


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
    through every knot and preserves monotonicity, so the inverse exists
    everywhere between the first and last knot.  It is an in-house PCHIP
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17(2), 1980) whose slopes,
    coefficients and evaluation repeat scipy's ``PchipInterpolator``
    operation for operation, so every value equals scipy's bit for bit.
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
        if not (np.isfinite(forces).all() and np.isfinite(values).all()):
            raise ValueError("forces_n and normalized knots must be finite")
        if not np.all(np.diff(forces) > 0):
            raise NonMonotoneDataError("knot forces must be strictly increasing")
        if not np.all(np.diff(values) > 0):
            raise NonMonotoneDataError(
                "normalized intensities must be strictly increasing with force"
            )
        object.__setattr__(self, "forces_n", forces)
        object.__setattr__(self, "normalized", values)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """(4, knots - 1) cubic coefficients per interval, highest power first.

        Interior slopes are the weighted harmonic mean of the neighbouring
        secants, end slopes the one-sided three-point estimate.  Every
        secant is positive, so PCHIP's sign and zero cases reduce to
        clamping a nonpositive end slope to +0.0.
        """
        x, y = self.forces_n, self.normalized
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.empty_like(y)
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        ends = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[[0, -1]] = np.where(ends > 0, ends, 0.0)
        t = (d[:-1] + d[1:] - 2 * m) / h
        return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def _interval(self, force_n: np.ndarray):
        """Coefficient columns of the interval holding each force, and the offset into it.

        Counting the interior knots at or below a force finds its interval,
        with the end intervals extended outwards (extrapolation).
        """
        i = np.searchsorted(self.forces_n[1:-1], force_n, side="right")
        return self._coefficients[:, i], force_n - self.forces_n[i]

    def _evaluate(self, force_n: np.ndarray) -> np.ndarray:
        (c0, c1, c2, c3), s = self._interval(force_n)
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * (s * s * s)

    def evaluate(self, force_n):
        """Normalized intensity at each force; a scalar gives a float."""
        return _like(force_n, self._evaluate(np.asarray(force_n, dtype=float)))

    def derivative(self, force_n):
        """Slope of the interpolant at each force; a scalar gives a float."""
        (c0, c1, c2, _), s = self._interval(np.asarray(force_n, dtype=float))
        return _like(force_n, (c2 + (2 * c1) * s) + (3 * c0) * (s * s))

    def out_of_range(self, normalized_value):
        """Masks of values below the first knot (dead zone) and above the last (saturated)."""
        values = np.asarray(normalized_value, dtype=float)
        return values < self.normalized[0], values > self.normalized[-1]

    def invert(self, normalized_value):
        """Force whose interpolated response equals each given value.

        Bisection on the knot force range, guaranteed to converge by
        monotonicity.  Each value halves its own bracket until the width
        is within ``INVERT_REL_TOL`` of max(1, |midpoint|), or 200 times;
        only values still bracketing are evaluated, so an array gives the
        same bits as inverting its values one by one.  A scalar gives a
        float, an array an array of its shape.  A value below the first
        knot raises :class:`BelowThresholdError` (dead zone), above the
        last knot :class:`SaturatedError`.

        Each step costs a few dozen numpy calls whatever the array size,
        so one call per value (≈1 ms each) is far slower than one call
        over all of them.
        """
        values = np.asarray(normalized_value, dtype=float)
        below, above = self.out_of_range(values)
        if below.any():
            raise BelowThresholdError(f"normalized intensity {values[below][0]:g} "
                                      f"below first knot {self.normalized[0]:g}")
        if above.any():
            raise SaturatedError(f"normalized intensity {values[above][0]:g} "
                                 f"above last knot {self.normalized[-1]:g}")
        target = values.ravel()
        forces = np.empty_like(target)
        active = np.arange(target.size)
        lo = np.full(target.size, self.forces_n[0])
        hi = np.full(target.size, self.forces_n[-1])
        for _ in range(200):
            if not active.size:
                break
            mid = 0.5 * (lo + hi)
            rising = self._evaluate(mid) < target
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
            done = hi - lo <= INVERT_REL_TOL * np.maximum(1.0, np.abs(mid))
            if np.count_nonzero(done):
                forces[active[done]] = 0.5 * (lo[done] + hi[done])
                left = ~done
                active, lo, hi, target = active[left], lo[left], hi[left], target[left]
        forces[active] = 0.5 * (lo + hi)
        return _like(normalized_value, forces.reshape(values.shape))

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
    normalized = (channel_intensities(config, np.full(fs.shape, position_mm), fs)
                  .sum(axis=1) / transmission)
    # values outside the knots are dead zone or saturation, not model bias
    below, above = forcecal.out_of_range(normalized)
    inside = ~(below | above)
    force_errors = np.abs(forcecal.invert(normalized[inside]) - fs[inside])
    force_accuracy = float(np.mean(force_errors)) if force_errors.size else 0.0

    return ResolutionReport(
        spatial_resolution_mm=spatial_resolution,
        spatial_accuracy_mm=spatial_accuracy,
        force_resolution_n=force_resolution,
        force_accuracy_n=force_accuracy,
    )
