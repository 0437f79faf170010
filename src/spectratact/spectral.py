"""Wavelength-resolved light transport through dyed media.

A pressed waveguide sensor reads out color: light crossing a lightly dyed
medium loses short wavelengths faster than long ones, so the spectrum at
the detector encodes the path length.  This module provides the sampled
spectral types (source spectra, dye decay profiles, detector channel
banks), exponential attenuation, channel integration and the log-ratio
that is affine in path length for narrow channels.

All spectral objects live on a shared, strictly increasing wavelength
grid; operations that combine two objects require the grids to be
identical and raise :class:`GridMismatchError` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (ARRAY, BOOL, FLOATS, LIST, NONNEGATIVE, NUMBER, PAIR, STR, ByValue, Record,
                    join, read, spec, within)
from .errors import BelowFloorError, ConfigError, GridMismatchError

# Default sampling grid: 400-700 nm at 1 nm, covering the blue and red
# bands used by the default channel bank.
GRID_MIN_NM = 400.0
GRID_MAX_NM = 700.0
GRID_STEP_NM = 1.0


def default_wavelength_grid() -> np.ndarray:
    return np.arange(GRID_MIN_NM, GRID_MAX_NM + 0.5 * GRID_STEP_NM, GRID_STEP_NM)


def _as_grid(wavelengths) -> np.ndarray:
    grid = np.asarray(wavelengths, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("wavelength grid needs at least 2 samples")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("wavelength grid must be strictly increasing")
    return grid


def _samples(values, grid: np.ndarray, field: str) -> np.ndarray:
    """``values`` as floats, one per sample of ``grid``, finite and >= 0, or ValueError."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"{field} must match the wavelength grid shape")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError(f"{field} must be finite and nonnegative")
    return values


def _require_same_grid(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise GridMismatchError(
            f"wavelength grids differ ({a.size} vs {b.size} samples)"
        )


@dataclass(frozen=True, eq=False)
class Spectrum(Record, ByValue):
    """Sampled radiant intensity per wavelength, arbitrary linear units."""

    wavelengths_nm: np.ndarray = spec(ARRAY)
    intensities: np.ndarray = spec(ARRAY, key="values")

    def __post_init__(self):
        grid = _as_grid(self.wavelengths_nm)
        object.__setattr__(self, "intensities", _samples(self.intensities, grid, "intensities"))
        object.__setattr__(self, "wavelengths_nm", grid)

    @classmethod
    def flat(cls) -> "Spectrum":
        """Uniform unit spectrum on the default grid, the model of a white LED source."""
        grid = default_wavelength_grid()
        return cls(grid, np.ones_like(grid))


@dataclass(frozen=True, eq=False)
class DyeProfile(Record, ByValue):
    """Per-wavelength exponential decay coefficients of a dyed medium.

    ``decay_per_mm`` is the base profile; ``concentration_scale`` is a
    dimensionless multiplier standing in for the dye concentration, so the
    effective exponent is ``concentration_scale * decay_per_mm * path``.
    """

    wavelengths_nm: np.ndarray = spec(ARRAY)
    decay_per_mm: np.ndarray = spec(ARRAY, key="values")
    concentration_scale: float = spec(NUMBER, 1.0, bound=NONNEGATIVE)

    def __post_init__(self):
        super().__post_init__()
        grid = _as_grid(self.wavelengths_nm)
        object.__setattr__(self, "decay_per_mm", _samples(self.decay_per_mm, grid, "decay_per_mm"))
        object.__setattr__(self, "wavelengths_nm", grid)


def default_red_dye() -> DyeProfile:
    """Smooth logistic-shaped red-dye profile on the default grid.

    Decay falls monotonically from 0.15 /mm at the short end to 0.005 /mm
    at the long end, crossing over at 560 nm with a 25 nm width: blue is
    absorbed sharply, red passes.  This gives the stock sensor a log-ratio
    slope around -0.136 /mm over the blue/red band pair.
    """
    grid = default_wavelength_grid()
    sigmoid = 1.0 / (1.0 + np.exp(-(grid - 560.0) / 25.0))
    return DyeProfile(grid, 0.15 - (0.15 - 0.005) * sigmoid)


def boxcar_response(grid: np.ndarray, lo_nm: float, hi_nm: float,
                    closed_hi: bool = False) -> np.ndarray:
    """Unit response on [lo, hi) of ``grid`` ([lo, hi] when ``closed_hi``), zero elsewhere."""
    upper = grid <= hi_nm if closed_hi else grid < hi_nm
    return ((grid >= lo_nm) & upper).astype(float)


def line_response(grid: np.ndarray, wavelength_nm: float) -> np.ndarray:
    """Unit response at the sample of ``grid`` nearest ``wavelength_nm``, within the grid."""
    if not grid[0] <= wavelength_nm <= grid[-1]:
        raise ValueError(f"line at {wavelength_nm} nm lies outside the "
                         f"wavelength grid [{grid[0]:g}, {grid[-1]:g}] nm")
    resp = np.zeros_like(grid)
    resp[np.argmin(np.abs(grid - wavelength_nm))] = 1.0
    return resp


@dataclass(frozen=True, eq=False)
class ChannelBank(ByValue):
    """Named detector channels on one wavelength grid: one response row per name.

    ``responses`` is a (channels, samples) matrix of nonnegative curves,
    each with some response; it may be given as any sequence of rows.
    """

    wavelengths_nm: np.ndarray
    names: tuple[str, ...]
    responses: np.ndarray

    def __post_init__(self):
        grid = _as_grid(self.wavelengths_nm)
        names = tuple(self.names)
        if not names:
            raise ValueError("channel bank must not be empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate channel names: {list(names)}")
        rows = [_samples(row, grid, "response") for row in self.responses]
        if len(rows) != len(names):
            raise ValueError(f"{len(rows)} response rows for {len(names)} channel names")
        for name, row in zip(names, rows):
            if not np.any(row > 0):
                raise ValueError(f"channel {name!r} has zero integral")
        object.__setattr__(self, "wavelengths_nm", grid)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "responses", np.stack(rows))

    def to_dict(self) -> dict:
        return {
            "wavelengths_nm": self.wavelengths_nm.tolist(),
            "channels": [{"name": name, "values": row}
                         for name, row in zip(self.names, self.responses.tolist())],
        }

    @classmethod
    def from_dict(cls, doc, path: str = "") -> "ChannelBank":
        """Each channel of the JSON form is ``values`` on the bank's ``wavelengths_nm``, a
        ``band_nm`` boxcar [lo, hi) (``closed_hi``: [lo, hi]) or a ``line_nm`` line channel."""
        given = read(doc, "wavelengths_nm", ARRAY, path, None)
        grid = default_wavelength_grid() if given is None else _as_grid(given)
        names, rows = [], []
        for i, entry in enumerate(read(doc, "channels", LIST, path)):
            at = f"{join(path, 'channels')}[{i}]"
            names.append(read(entry, "name", STR, at))
            if "values" in entry:
                if given is None:
                    raise ConfigError(f"'{at}' has explicit values, which need wavelengths_nm")
                rows.append(read(entry, "values", ARRAY, at))
            elif "band_nm" in entry:
                lo, hi = read(entry, "band_nm", FLOATS, at, bound=PAIR)
                closed = read(entry, "closed_hi", BOOL, at, False)
                rows.append(boxcar_response(grid, lo, hi, closed))
            elif "line_nm" in entry:
                line = read(entry, "line_nm", NUMBER, at, bound=within(grid[0], grid[-1]))
                rows.append(line_response(grid, line))
            else:
                raise ConfigError(f"'{at}' needs values, band_nm or line_nm")
        return cls(grid, names, rows)


def default_bank() -> ChannelBank:
    """Three boxcar channels: B [400,500), G [500,600), R [600,700]."""
    grid = default_wavelength_grid()
    return ChannelBank(grid, ("B", "G", "R"), [
        boxcar_response(grid, 400.0, 500.0),
        boxcar_response(grid, 500.0, 600.0),
        boxcar_response(grid, 600.0, 700.0, closed_hi=True),
    ])


def line_bank(pairs) -> ChannelBank:
    """Bank of single-sample channels on the default grid from (name, wavelength_nm) pairs."""
    grid = default_wavelength_grid()
    pairs = list(pairs)
    return ChannelBank(grid, [name for name, _ in pairs],
                       [line_response(grid, line) for _, line in pairs])


# ---------------------------------------------------------------------------
# operations

def attenuate(spectrum: Spectrum, dye: DyeProfile, path_mm: float) -> Spectrum:
    """Exponential attenuation of a spectrum over a dyed path.

    Every sample decays as ``exp(-c * k(lambda) * path)`` where ``c`` is
    the dye concentration scale and ``k`` its base decay profile.
    """
    _require_same_grid(spectrum.wavelengths_nm, dye.wavelengths_nm)
    if not path_mm >= 0:
        raise ValueError(f"path_mm must be >= 0, got {path_mm}")
    factor = np.exp(-dye.concentration_scale * dye.decay_per_mm * float(path_mm))
    return Spectrum(spectrum.wavelengths_nm, spectrum.intensities * factor)


def _sample_widths(grid: np.ndarray) -> np.ndarray:
    # Rectangle rule on the (uniform) grid; np.gradient degrades gracefully
    # to local spacing on non-uniform grids.
    return np.gradient(grid)


def integrate_channels(spectrum: Spectrum, bank: ChannelBank) -> np.ndarray:
    """Integrate a spectrum into per-channel intensities (rectangle rule)."""
    _require_same_grid(spectrum.wavelengths_nm, bank.wavelengths_nm)
    widths = _sample_widths(spectrum.wavelengths_nm)
    return bank.responses @ (spectrum.intensities * widths)


def log_ratio(reading, numerator_ch: str, denominator_ch: str) -> float:
    """Natural log of two channel intensities of one reading: :func:`log_ratios` on one row.

    Raises :class:`BelowFloorError` when either channel is not positive,
    which signals a dead-zone reading rather than a numeric accident.
    """
    num, den = float(reading[numerator_ch]), float(reading[denominator_ch])
    lit, log = log_ratios([num], [den])
    if not lit[0]:
        raise BelowFloorError(f"channel intensity at or below floor: "
                              f"{numerator_ch}={num:g}, {denominator_ch}={den:g}")
    return float(log[0])


def log_ratios(num, den) -> tuple[np.ndarray, np.ndarray]:
    """The log-ratio law, affine in filtering length, on two channel columns.

    Returns ``(lit, log)``: ``lit`` marks the rows whose two channels are
    both positive (the rest, NaN included, carry no ratio), ``log`` holds
    ``log(num / den)`` per lit row (-inf where the ratio underflows to 0).
    The log is ``math.log`` per element: ``np.log`` rounds differently on
    about 0.04% of inputs, and the pinned artifacts hold ``math.log``'s.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    lit = (num > 0) & (den > 0)
    with np.errstate(over="ignore"):
        ratios = (num[lit] / den[lit]).tolist()
    return lit, np.array([math.log(r) if r else -math.inf for r in ratios], dtype=float)
