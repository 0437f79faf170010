"""Fitting the position and force models from stimulus/reading samples.

Position: ordinary least squares of the channel log-ratio against press
position (the ratio is affine in position for narrow channels).  Force:
a monotone piecewise-cubic (PCHIP) interpolant of normalized total
intensity against force, built on knots clustered toward the contact
threshold where the response has unbounded slope.  The interpolant is
implemented here in numpy and matches scipy's ``PchipInterpolator`` bit
for bit (the tests use scipy as the oracle), so importing the package
does not import scipy.  Each calibration owns its inverse.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codec import ARRAY, FLOATS, NUMBER, PAIR, STR, ByValue, Record, spec
from .errors import (
    BelowThresholdError,
    DegenerateFitError,
    NonMonotoneDataError,
    SaturatedError,
    UnusableSampleError,
)
from .sensor import (NoiseModel, SensorConfig, grid_intensities, position_transmission,
                     transmission_factors)
from .spectral import log_ratios

INVERT_REL_TOL = 1e-10  # invert's bisection stop: bracket width over max(1, |force|)
# Bisection levels the values of one invert call share at most (ForceCalibration._shared_levels).
# One call on a fresh 21-knot calibration, as CLI decode makes it, took (ms, min of 3x7x15
# calls, 2-vCPU AVX-512 host) at 0/8/10/11/12/14 levels: 0.51/0.48/0.49/0.50/0.53/0.95 for
# 1 value, 1.68/1.40/1.39/1.40/1.42/1.84 for 1000 and 4.11/3.46/3.39/3.24/3.26/3.68 for 2500.
INVERT_SHARED_LEVELS = 11
SLOPE_FLOOR_ULPS = 16  # PositionCalibration's floor on the log-ratio change across the span
KNOT_CLUSTERING = 3.0  # force_knot_schedule's exponent: cubic clustering toward the threshold


def _like(query, result: np.ndarray):
    """``result`` as a float when ``query`` was a scalar."""
    return float(result) if np.ndim(query) == 0 else result


@dataclass(frozen=True)
class PositionCalibration(Record):
    """Affine log-ratio model: log_ratio = slope * position + intercept.

    The model must carry a position signal above rounding: the log-ratio
    change across the span, |slope| * (hi - lo), has to exceed
    ``SLOPE_FLOOR_ULPS`` rounding units of a log ratio near the
    intercept, eps * max(1, |intercept|) (a log of a ratio rounded to
    relative eps is off by about eps, and the log itself by eps * |log|).
    Below that floor every decoded position would be rounding noise.
    """

    slope: float = spec(NUMBER)
    intercept: float = spec(NUMBER)
    r_squared: float = spec(NUMBER)
    residual_std: float = spec(NUMBER)
    numerator_ch: str = spec(STR)
    denominator_ch: str = spec(STR)
    span_mm: tuple[float, float] = spec(FLOATS, bound=PAIR)

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.slope) and self.slope != 0):
            raise DegenerateFitError(f"slope must be finite and nonzero, got {self.slope}")
        if not math.isfinite(self.intercept):
            raise DegenerateFitError(f"intercept must be finite, got {self.intercept}")
        lo, hi = self.span_mm
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DegenerateFitError(f"span_mm must be finite with lo < hi, got {self.span_mm}")
        floor = SLOPE_FLOOR_ULPS * sys.float_info.epsilon * max(1.0, abs(self.intercept))
        if not abs(self.slope) * (hi - lo) > floor:
            raise DegenerateFitError(
                f"slope {self.slope} /mm changes the log ratio by "
                f"{abs(self.slope) * (hi - lo):g} across the span, not above the rounding "
                f"floor {floor:g}: no position signal")

    def decode(self, num, den):
        """``(lit, position_mm, raw_mm, out_of_span)`` of numerator/denominator channel columns.

        ``lit`` is as :func:`log_ratios` gives it; the rest hold one value per
        lit row: raw x = (log_ratio - intercept) / slope, x clamped into the
        span, and x beyond the span by more than 3 * residual_std / |slope|.
        A ratio past the float range gives an infinite x, clamped and flagged.
        """
        lit, log = log_ratios(num, den)
        with np.errstate(over="ignore"):
            raw = (log - self.intercept) / self.slope
        lo, hi = self.span_mm
        # min(max(raw, lo), hi) as Python computes it, so a -0.0 estimate stays -0.0
        above_lo = np.where(lo > raw, lo, raw)
        position = np.where(hi < above_lo, hi, above_lo)
        slack = 3.0 * self.residual_std / abs(self.slope)
        return lit, position, raw, (raw < lo - slack) | (raw > hi + slack)


def _ratio_channels(names, numerator_ch, denominator_ch):
    num = numerator_ch if numerator_ch is not None else names[0]
    den = denominator_ch if denominator_ch is not None else names[-1]
    if num == den:
        raise ValueError("numerator and denominator channels must differ")
    return num, den


def _sound(channels: np.ndarray) -> np.ndarray:
    """Rows whose every channel is finite and nonnegative (the rest decode as code 0)."""
    return ((channels >= 0) & (channels < np.inf)).all(axis=1)


def _ratio_pair(values: np.ndarray, names, num: str, den: str):
    """Columns of channels ``num`` and ``den`` of ``values`` (last axis: channels), or KeyError."""
    for name in (num, den):
        if name not in names:
            raise KeyError(f"no channel named {name!r}")
    return values[..., names.index(num)], values[..., names.index(den)]


def fit_position(
    names,
    channels,
    positions_mm,
    numerator_ch: str | None = None,
    denominator_ch: str | None = None,
) -> PositionCalibration:
    """Least-squares affine fit of log-ratio against position.

    ``channels`` holds one reading per row of ``positions_mm``, its
    columns in the order of ``names``.  By default the ratio is first
    channel over last channel (B over R for the stock bank, the pair with
    the largest decay contrast).  Dead-zone rows, rows whose ratio leaves
    the float range and rows with a non-finite position raise
    :class:`UnusableSampleError` naming them.
    """
    x = np.asarray(positions_mm, dtype=float)
    if x.size < 3:
        raise DegenerateFitError(f"need at least 3 samples, got {x.size}")
    num, den = _ratio_channels(names, numerator_ch, denominator_ch)
    lit, y = log_ratios(*_ratio_pair(np.asarray(channels, dtype=float), names, num, den))
    usable = lit.copy()
    usable[lit] = np.isfinite(y)
    if not usable.all():
        rows = np.flatnonzero(~usable).tolist()
        raise UnusableSampleError(f"{len(rows)} sample(s) in the dead zone or with a {num}/{den} "
                                  f"ratio past the float range", rows)
    finite = np.isfinite(x)
    if not finite.all():
        rows = np.flatnonzero(~finite).tolist()
        raise UnusableSampleError(f"{len(rows)} sample(s) with a non-finite position", rows)
    # not np.unique, which imports all of numpy.ma (about 25 ms per process)
    if x.min() == x.max():
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


@dataclass(frozen=True, eq=False)
class ForceCalibration(Record, ByValue):
    """Monotone cubic interpolant of normalized intensity vs force.

    Knots are strictly increasing on both axes; the interpolant passes
    through every knot and preserves monotonicity, so the inverse exists
    everywhere between the first and last knot.  It is an in-house PCHIP
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17(2), 1980) whose slopes,
    coefficients and evaluation repeat scipy's ``PchipInterpolator``
    operation for operation, so every value equals scipy's bit for bit.
    """

    forces_n: np.ndarray = spec(ARRAY)
    normalized: np.ndarray = spec(ARRAY)

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
        # np.take gathers the columns about 3x faster than [:, i] (9 against 27 us
        # at 2500 forces), the same values
        return np.take(self._coefficients, i, axis=1), force_n - self.forces_n[i]

    @cached_property
    def _shared_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bounds, evaluations)`` of the bisection levels all values of :meth:`invert` share.

        ``bounds`` holds the knot range's ends with the 2**depth - 1 midpoints
        of the first ``depth`` levels between them, in force order, each formed
        as the loop forms it; ``evaluations`` holds the interpolant at the
        midpoints.  There are at most ``INVERT_SHARED_LEVELS`` levels, and they
        stop before the first one where some child bracket would pass the
        loop's own stop test, so no value finishes inside them.  Midpoint
        evaluations that are not non-decreasing share no level.
        """
        bounds = self.forces_n[[0, -1]]
        for _ in range(INVERT_SHARED_LEVELS):
            lo, hi = bounds[:-1], bounds[1:]
            mid = 0.5 * (lo + hi)
            if np.any(np.minimum(mid - lo, hi - mid)
                      <= INVERT_REL_TOL * np.maximum(1.0, np.abs(mid))):
                break
            grown = np.empty(2 * bounds.size - 1)
            grown[::2], grown[1::2] = bounds, mid
            bounds = grown
        evaluations = self._evaluate(bounds[1:-1])
        if not np.all(evaluations[1:] >= evaluations[:-1]):
            return self.forces_n[[0, -1]], evaluations[:0]
        return bounds, evaluations

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
        last knot :class:`SaturatedError`, and NaN ``ValueError``.

        Every value starts from the same bracket, so its first levels come
        from one tree of midpoints, :attr:`_shared_levels`, built once per
        calibration.  In force order the midpoints increase and their
        evaluations do not decrease, so the step test ``evaluate(mid) < value`` holds on a
        prefix of them: ``searchsorted(evaluations, value, side="left")``
        counts that prefix, which is the leaf the value's own comparisons
        reach.  The loop goes on from that leaf's bracket for the remaining
        200 - depth steps.  The tree's guards (no bracket stops inside it,
        non-decreasing evaluations) keep every bit of the level-by-level loop.

        Each step costs a few dozen numpy calls whatever the array size, so
        one call per value is far slower than one call over all of them: on
        the default 21-knot calibration with its levels built, one value
        takes ≈0.36 ms and 2500 values ≈3.4 ms in one call (min of 300
        calls, 2-vCPU AVX-512 host).
        """
        values = np.asarray(normalized_value, dtype=float)
        if np.isnan(values).any():
            raise ValueError("normalized intensity must not be NaN")
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
        bounds, evaluations = self._shared_levels
        leaf = np.searchsorted(evaluations, target, side="left")
        lo, hi = bounds[leaf], bounds[leaf + 1]
        for _ in range(200 - evaluations.size.bit_length()):  # 2**depth - 1 midpoints
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


def force_knot_schedule(f_threshold_n: float, f_max_n: float, n_knots: int = 21) -> np.ndarray:
    """Knot forces clustered toward the threshold, as ``u ** KNOT_CLUSTERING`` on [0, 1].

    The response grows like a sub-unity power just past the threshold,
    with unbounded slope there; cubic clustering keeps the interpolant's
    relative inverse error well under 1% where uniform knots fail badly.
    """
    if not f_max_n > f_threshold_n:
        raise ValueError("f_max_n must exceed f_threshold_n")
    if n_knots < 3:
        raise ValueError("need at least 3 knots")
    u = np.linspace(0.0, 1.0, int(n_knots)) ** KNOT_CLUSTERING
    return f_threshold_n + u * (f_max_n - f_threshold_n)


def fit_force(
    channels,
    forces_n,
    config: SensorConfig,
    position_mm: float,
) -> ForceCalibration:
    """Build the monotone force interpolant from readings pressed at ``position_mm``.

    ``channels`` holds one row of channel intensities per force.  Each total
    intensity is divided by ``config``'s transmission factor at the press
    position (one :func:`transmission_factors` call) before knot
    construction, so the interpolant lives in coupled-fraction units and
    transfers across press positions.  Replicated forces are averaged
    into a single knot.  A noise-free transmission of 0 at the press
    position raises :class:`DegenerateFitError`.
    """
    totals = np.asarray(channels, dtype=float).sum(axis=1)
    factor = transmission_factors(config, [position_mm])
    if not factor.all():
        raise DegenerateFitError(f"noise-free transmission underflows to 0 at the force fit's "
                                 f"position {position_mm} mm")
    normalized = totals / factor
    grouped: dict[float, list[float]] = {}
    for force, value in zip(np.asarray(forces_n, dtype=float).tolist(), normalized.tolist()):
        grouped.setdefault(force, []).append(value)
    if len(grouped) < 3:
        raise DegenerateFitError(f"need at least 3 distinct forces, got {len(grouped)}")
    forces = np.array(sorted(grouped))
    normalized = np.array([np.mean(grouped[f]) for f in forces])
    return ForceCalibration(forces, normalized)


@dataclass(frozen=True, eq=False)
class Transmission(Record, ByValue):
    """The transmission factor at each press position of the span, for the force decode."""

    positions_mm: np.ndarray = spec(ARRAY)
    factors: np.ndarray = spec(ARRAY)

    def __post_init__(self):
        # force decoding divides by the interpolated factor: NaN would flag
        # garbage "ok", zero would divide by zero
        grid, factors = (np.asarray(v, dtype=float) for v in (self.positions_mm, self.factors))
        if not (factors.size and grid.ndim == 1 and grid.shape == factors.shape
                and np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
            raise ValueError("transmission needs strictly increasing finite positions_mm, "
                             "one per factor")
        if not (np.isfinite(factors).all() and np.all(factors > 0)):
            raise ValueError("transmission factors must be finite and positive")
        object.__setattr__(self, "positions_mm", grid)
        object.__setattr__(self, "factors", factors)


# decoded.csv's flag by the code of CalibrationFile.decode
DECODE_FLAGS = np.array(["corrupt_row", "no_contact", "ok", "out_of_span",
                         "below_threshold", "saturated"], dtype=object)


@dataclass(frozen=True)
class CalibrationFile(Record):
    """``calibration.json``, as ``calibrate`` writes it and ``decode`` reads it."""

    position: PositionCalibration = spec(PositionCalibration)
    transmission: Transmission = spec(Transmission)
    force: ForceCalibration | None = spec(ForceCalibration, None)

    def to_dict(self) -> dict:
        doc = super().to_dict()
        if self.force is None:  # a position-only calibration has no force key, not null
            del doc["force"]
        return doc

    def decode(self, names, channels):
        """``(position_mm, force_n, code)`` of each row of ``channels``, its columns as ``names``.

        The force inverts the row's total over the transmission interpolated
        at the decoded position, one :meth:`ForceCalibration.invert` call for
        all rows.  ``code`` indexes :data:`DECODE_FLAGS`: 0 a negative or
        non-finite channel, 1 a ratio channel at zero, 2 ok, 3 out of span, 4
        or 5 below the first knot or above the last.  A value not decoded is
        NaN.  A missing ratio channel raises KeyError.
        """
        poscal, forcecal, table = self.position, self.force, self.transmission
        channels = np.asarray(channels, dtype=float)
        num, den = _ratio_pair(channels, names, poscal.numerator_ch, poscal.denominator_ch)
        code = _sound(channels).astype(int)
        rows = np.flatnonzero(code)
        lit, position, _, out_of_span = poscal.decode(num[rows], den[rows])
        rows = rows[lit]
        code[rows] = 2 + out_of_span
        decoded = np.full((2, code.size), np.nan)
        decoded[0, rows] = position
        if forcecal is not None:
            # a total past the float range reads inf, so its row is saturated
            with np.errstate(over="ignore"):
                totals = channels[rows].sum(axis=1)
            normalized = totals / np.interp(position, table.positions_mm, table.factors)
            below, above = forcecal.out_of_range(normalized)
            code[rows[below]] = 4
            code[rows[above]] = 5
            inside = ~(below | above)
            decoded[1, rows[inside]] = forcecal.invert(normalized[inside])
        return decoded[0], decoded[1], code


def calibrate_samples(config: SensorConfig, names, channels, position_mm, force_n,
                      numerator_ch: str | None, denominator_ch: str | None):
    """``(CalibrationFile, skipped)`` of a sweep's samples, one per row of ``channels``.

    ``force_n`` None has no force fit; a ratio channel None is
    :func:`fit_position`'s default.  Rows with a negative or non-finite
    channel, then rows with a non-finite stimulus, raise
    :class:`UnusableSampleError` naming them.  The position fit reads the
    rows both ratio channels light that were pressed past the contact
    threshold; ``skipped`` counts the rest by reason.  The force fit reads
    the position with the most rows among those with 3 or more distinct
    forces; its knots' errors name that position.  A noise-free
    transmission of 0 at that position or on the table's 129 points
    across the fitted span raises :class:`DegenerateFitError`.
    """
    channels, position = np.asarray(channels, dtype=float), np.asarray(position_mm, dtype=float)
    force = None if force_n is None else np.asarray(force_n, dtype=float)
    finite = np.isfinite(position) if force is None else np.isfinite(position) & np.isfinite(force)
    for reason, bad in (("negative or non-finite channel", ~_sound(channels)),
                        ("non-finite position_mm or force_n", ~finite)):
        if bad.any():
            raise UnusableSampleError(reason, np.flatnonzero(bad).tolist())
    ratio = _ratio_channels(names, numerator_ch, denominator_ch)
    num, den = _ratio_pair(channels, names, *ratio)
    lit = (num > 0) & (den > 0)
    pressed = np.ones(lit.size, dtype=bool) if force is None \
        else force > config.coupling.f_threshold_n
    skipped = {"at or below the contact threshold": ~pressed,
               "with a ratio channel at zero": pressed & ~lit}
    fit_rows = np.flatnonzero(pressed & lit)
    try:
        poscal = fit_position(names, channels[fit_rows], position[fit_rows], *ratio)
    except UnusableSampleError as exc:  # name rows of the samples, not of the fitted subset
        raise UnusableSampleError(exc.reason, fit_rows[list(exc.rows)].tolist()) from None

    forcecal = None
    if force is not None:
        by_position: dict[float, list[int]] = {}
        for i, p in enumerate(position.tolist()):
            by_position.setdefault(p, []).append(i)
        candidates = [(p, rows) for p, rows in by_position.items()
                      if len(set(force[rows].tolist())) >= 3]
        if candidates:
            p, rows = max(candidates, key=lambda item: len(item[1]))
            try:
                forcecal = fit_force(channels[rows], force[rows], config, p)
            except NonMonotoneDataError as exc:
                raise NonMonotoneDataError(f"force fit at {p} mm: {exc}") from None

    grid = np.linspace(*poscal.span_mm, 129)
    factors = transmission_factors(config, grid)
    if not factors.all():
        raise DegenerateFitError(
            f"noise-free transmission underflows to 0 at {grid[factors == 0][0]} mm of the "
            f"fitted span {list(poscal.span_mm)} mm")
    return (CalibrationFile(poscal, Transmission(grid, factors), forcecal),
            {reason: np.count_nonzero(rows) for reason, rows in skipped.items()})


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

    The force figures hold at the known press position ``position_mm``.
    :meth:`CalibrationFile.decode` decodes the position from the same noisy
    reading first, which widens the force spread: at 40 dB, 0.5 N and
    42.5 mm, from 5.42 to 6.13 mN (a ledger row of ``test_paper_claims``).
    """
    ratio = (config.bank.names, poscal.numerator_ch, poscal.denominator_ch)
    values = grid_intensities(config, [position_mm], [force_n])[0]
    sigma = noise.sigma_vector(values)
    num, den = _ratio_pair(values, *ratio)
    if num <= 0 or den <= 0:
        raise DegenerateFitError("operating point lies in the dead zone")
    s_num, s_den = _ratio_pair(sigma, *ratio)
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
    lit, _, raw, _ = poscal.decode(*_ratio_pair(
        grid_intensities(config, xs, [force_n]), *ratio))
    spatial_accuracy = float(np.mean(np.abs(raw - xs[lit])))

    if held_out_forces is None:
        held_out_forces = 0.5 * (forcecal.forces_n[1:] + forcecal.forces_n[:-1])
    fs = np.asarray(held_out_forces, dtype=float)
    normalized = grid_intensities(config, [position_mm], fs).sum(axis=1) / transmission
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
