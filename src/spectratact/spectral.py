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
from dataclasses import dataclass, replace

import numpy as np

from .codec import (ARRAY, BOOL, FLOATS, LIST, NONNEGATIVE, NUMBER, PAIR, STR, Record, join,
                    read, spec, within)
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


@dataclass(frozen=True)
class Spectrum(Record):
    """Sampled radiant intensity per wavelength, arbitrary linear units."""

    wavelengths_nm: np.ndarray = spec(ARRAY)
    intensities: np.ndarray = spec(ARRAY, key="values")

    def __post_init__(self):
        grid = _as_grid(self.wavelengths_nm)
        object.__setattr__(self, "intensities", _samples(self.intensities, grid, "intensities"))
        object.__setattr__(self, "wavelengths_nm", grid)

    @classmethod
    def flat(cls, intensity: float = 1.0, wavelengths_nm=None) -> "Spectrum":
        """Uniform spectrum, the default model for a white LED source."""
        grid = default_wavelength_grid() if wavelengths_nm is None else _as_grid(wavelengths_nm)
        return cls(grid, np.full_like(grid, float(intensity)))


@dataclass(frozen=True)
class DyeProfile(Record):
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

    def with_concentration(self, scale: float) -> "DyeProfile":
        return replace(self, concentration_scale=float(scale))


def default_red_dye(
    blue_decay_per_mm: float = 0.15,
    red_decay_per_mm: float = 0.005,
    crossover_nm: float = 560.0,
    width_nm: float = 25.0,
    wavelengths_nm=None,
    concentration_scale: float = 1.0,
) -> DyeProfile:
    """Smooth logistic-shaped red-dye profile.

    Decay falls monotonically from ``blue_decay_per_mm`` at the short end
    to ``red_decay_per_mm`` at the long end: blue is absorbed sharply, red
    passes.  The defaults give the stock sensor a log-ratio slope around
    -0.136 /mm over the blue/red band pair.
    """
    grid = default_wavelength_grid() if wavelengths_nm is None else _as_grid(wavelengths_nm)
    lo, hi = float(red_decay_per_mm), float(blue_decay_per_mm)
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= red_decay_per_mm <= blue_decay_per_mm")
    sigmoid = 1.0 / (1.0 + np.exp(-(grid - crossover_nm) / width_nm))
    return DyeProfile(grid, hi - (hi - lo) * sigmoid, concentration_scale)


@dataclass(frozen=True)
class Channel:
    """One named detector channel: a nonnegative response curve."""

    name: str
    wavelengths_nm: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        grid = _as_grid(self.wavelengths_nm)
        resp = _samples(self.response, grid, "response")
        if not np.any(resp > 0):
            raise ValueError(f"channel {self.name!r} has zero integral")
        object.__setattr__(self, "wavelengths_nm", grid)
        object.__setattr__(self, "response", resp)


def boxcar_channel(name: str, lo_nm: float, hi_nm: float, wavelengths_nm=None,
                   closed_hi: bool = False) -> Channel:
    grid = default_wavelength_grid() if wavelengths_nm is None else _as_grid(wavelengths_nm)
    if closed_hi:
        mask = (grid >= lo_nm) & (grid <= hi_nm)
    else:
        mask = (grid >= lo_nm) & (grid < hi_nm)
    return Channel(name, grid, mask.astype(float))


def line_channel(name: str, wavelength_nm: float, wavelengths_nm=None) -> Channel:
    """Channel responding at the grid sample nearest ``wavelength_nm``, within the grid."""
    grid = default_wavelength_grid() if wavelengths_nm is None else _as_grid(wavelengths_nm)
    if not grid[0] <= wavelength_nm <= grid[-1]:
        raise ValueError(f"line channel {name!r} at {wavelength_nm} nm lies outside the "
                         f"wavelength grid [{grid[0]:g}, {grid[-1]:g}] nm")
    idx = int(np.argmin(np.abs(grid - wavelength_nm)))
    resp = np.zeros_like(grid)
    resp[idx] = 1.0
    return Channel(name, grid, resp)


@dataclass(frozen=True)
class ChannelBank:
    """Ordered collection of channels sharing one wavelength grid."""

    channels: tuple[Channel, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("channel bank must not be empty")
        grid = channels[0].wavelengths_nm
        for ch in channels[1:]:
            _require_same_grid(grid, ch.wavelengths_nm)
        names = [ch.name for ch in channels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate channel names: {names}")
        object.__setattr__(self, "channels", channels)

    @property
    def wavelengths_nm(self) -> np.ndarray:
        return self.channels[0].wavelengths_nm

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(ch.name for ch in self.channels)

    @property
    def responses(self) -> np.ndarray:
        return np.stack([ch.response for ch in self.channels])

    def to_dict(self) -> dict:
        return {
            "wavelengths_nm": self.wavelengths_nm.tolist(),
            "channels": [
                {"name": ch.name, "values": ch.response.tolist()}
                for ch in self.channels
            ],
        }

    @classmethod
    def from_dict(cls, doc, path: str = "") -> "ChannelBank":
        """Each channel of the JSON form is ``values`` on the bank's ``wavelengths_nm``, a
        ``band_nm`` boxcar [lo, hi) (``closed_hi``: [lo, hi]) or a ``line_nm`` line channel."""
        grid = read(doc, "wavelengths_nm", ARRAY, path, None)
        extent = default_wavelength_grid() if grid is None else _as_grid(grid)
        channels = []
        for i, entry in enumerate(read(doc, "channels", LIST, path)):
            at = f"{join(path, 'channels')}[{i}]"
            name = read(entry, "name", STR, at)
            if "values" in entry:
                if grid is None:
                    raise ConfigError(f"'{at}' has explicit values, which need wavelengths_nm")
                channels.append(Channel(name, grid, read(entry, "values", ARRAY, at)))
            elif "band_nm" in entry:
                lo, hi = read(entry, "band_nm", FLOATS, at, bound=PAIR)
                closed = read(entry, "closed_hi", BOOL, at, False)
                channels.append(boxcar_channel(name, lo, hi, grid, closed_hi=closed))
            elif "line_nm" in entry:
                line = read(entry, "line_nm", NUMBER, at, bound=within(extent[0], extent[-1]))
                channels.append(line_channel(name, line, grid))
            else:
                raise ConfigError(f"'{at}' needs values, band_nm or line_nm")
        return cls(tuple(channels))


def default_bank(wavelengths_nm=None) -> ChannelBank:
    """Three boxcar channels: B [400,500), G [500,600), R [600,700]."""
    return ChannelBank((
        boxcar_channel("B", 400.0, 500.0, wavelengths_nm),
        boxcar_channel("G", 500.0, 600.0, wavelengths_nm),
        boxcar_channel("R", 600.0, 700.0, wavelengths_nm, closed_hi=True),
    ))


def line_bank(pairs, wavelengths_nm=None) -> ChannelBank:
    """Bank of single-sample channels from (name, wavelength_nm) pairs."""
    return ChannelBank(tuple(line_channel(n, w, wavelengths_nm) for n, w in pairs))


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
