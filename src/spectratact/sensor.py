"""End-to-end forward model of the optical tactile sensor.

A stimulus (press position, force) turns into a multi-channel reading:
the coupling law sets how much source light enters the dyed waveguide,
the dye filters it over the press-to-detector distance, the channel bank
integrates the arriving spectrum, and an optional noise model adds
per-channel Gaussian noise.  LED and detector sit at the same end, so
the filtering length equals the press distance from that end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .contact import CouplingLaw, PerturbationState, bending_gain, coupled_fraction, strained_dye
from .errors import OutOfSpanError, UndefinedSnrError
from .spectral import (
    ChannelBank,
    DyeProfile,
    Spectrum,
    _sample_widths,
    default_bank,
    default_red_dye,
    integrate_channels,
)

MIN_LENGTH_MM = 30.0
MAX_LENGTH_MM = 200.0

# Readings below this fraction of the full-scale intensity are clamped to
# zero; they carry no usable ratio information.
RELATIVE_INTENSITY_FLOOR = 1e-12

# Rows per block of the batched forward model; bounds the memory of its
# (rows x wavelengths) intermediates.
CHUNK_ROWS = 256


@dataclass(frozen=True)
class _Optics:
    """Per-config constants of the forward model, computed once per config."""

    source: np.ndarray      # source intensity per wavelength sample
    neg_decay: np.ndarray   # -c * k of the strained dye, per mm
    widths: np.ndarray      # rectangle-rule sample widths
    responses: np.ndarray   # (channels, wavelengths)
    gain: float             # bending gain
    full_scale: float       # total of the unattenuated source through the bank
    floor: float            # readings below this are clamped to zero


@dataclass(frozen=True)
class SensorConfig:
    """Full static description of one sensor."""

    length_mm: float
    source: Spectrum
    dye: DyeProfile
    bank: ChannelBank
    coupling: CouplingLaw = field(default_factory=CouplingLaw)
    clear_loss_per_mm: float = 0.002
    perturbation: PerturbationState = field(default_factory=PerturbationState)

    def __post_init__(self):
        if not MIN_LENGTH_MM <= self.length_mm <= MAX_LENGTH_MM:
            raise ValueError(
                f"length_mm must lie in [{MIN_LENGTH_MM:g}, {MAX_LENGTH_MM:g}], "
                f"got {self.length_mm}"
            )
        if not self.clear_loss_per_mm >= 0:
            raise ValueError("clear_loss_per_mm must be >= 0")
        if not np.array_equal(self.source.wavelengths_nm, self.dye.wavelengths_nm) or \
           not np.array_equal(self.source.wavelengths_nm, self.bank.wavelengths_nm):
            raise ValueError("source, dye and bank must share one wavelength grid")

    @classmethod
    def default(cls, length_mm: float = 85.0, **overrides) -> "SensorConfig":
        kwargs = dict(
            length_mm=length_mm,
            source=Spectrum.flat(),
            dye=default_red_dye(),
            bank=default_bank(),
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    @cached_property
    def _optics(self) -> _Optics:
        dye = strained_dye(self.dye, self.perturbation.strain)
        full_scale = float(integrate_channels(self.source, self.bank).sum())
        return _Optics(
            source=self.source.intensities,
            neg_decay=-dye.concentration_scale * dye.decay_per_mm,
            widths=_sample_widths(self.source.wavelengths_nm),
            responses=self.bank.responses,
            gain=bending_gain(self.perturbation),
            full_scale=full_scale,
            floor=RELATIVE_INTENSITY_FLOOR * full_scale,
        )

    def with_perturbation(self, perturbation: PerturbationState) -> "SensorConfig":
        return replace(self, perturbation=perturbation)

    def to_dict(self) -> dict:
        return {
            "length_mm": self.length_mm,
            "source": self.source.to_dict(),
            "dye": self.dye.to_dict(),
            "bank": self.bank.to_dict(),
            "coupling": self.coupling.to_dict(),
            "clear_loss_per_mm": self.clear_loss_per_mm,
            "perturbation": self.perturbation.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SensorConfig":
        defaults = cls.default()
        return cls(
            length_mm=float(doc.get("length_mm", 85.0)),
            source=Spectrum.from_dict(doc["source"]) if "source" in doc else defaults.source,
            dye=DyeProfile.from_dict(doc["dye"]) if "dye" in doc else defaults.dye,
            bank=ChannelBank.from_dict(doc["bank"]) if "bank" in doc else defaults.bank,
            coupling=CouplingLaw.from_dict(doc.get("coupling", {})),
            clear_loss_per_mm=float(doc.get("clear_loss_per_mm", 0.002)),
            perturbation=PerturbationState.from_dict(doc.get("perturbation", {})),
        )


@dataclass(frozen=True)
class Stimulus:
    """Applied press: position measured from the detector end, in mm."""

    position_mm: float
    force_n: float

    def __post_init__(self):
        if not self.force_n >= 0:
            raise ValueError(f"force_n must be >= 0, got {self.force_n}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise per channel.

    ``snr_db`` mode scales each channel's sigma to its own noise-free
    level (sigma_i = I_i * 10**(-snr/20)), which keeps the total-intensity
    SNR at or above the nominal value regardless of press position.
    ``absolute_sigma`` mode applies one constant sigma, in intensity
    units, to every channel.
    """

    mode: str = "snr_db"
    value: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("snr_db", "absolute_sigma"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.mode} noise value must be finite, got {self.value!r}")
        if self.mode == "snr_db" and not self.value > 0:
            raise ValueError("snr_db must be > 0")
        if self.mode == "absolute_sigma" and not self.value >= 0:
            raise ValueError("absolute sigma must be >= 0")

    def sigma_vector(self, noise_free: np.ndarray) -> np.ndarray:
        if self.mode == "snr_db":
            return np.asarray(noise_free, dtype=float) * 10.0 ** (-self.value / 20.0)
        return np.full(np.shape(noise_free), float(self.value))

    def to_dict(self) -> dict:
        return {"mode": self.mode, "value": self.value, "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "NoiseModel":
        return cls(doc.get("mode", "snr_db"), float(doc.get("value", 40.0)),
                   int(doc.get("seed", 0)))


class ChannelReading:
    """Per-channel intensities, in the bank's channel order.

    ``below_floor`` is set when every channel reads zero (the dead zone).
    """

    __slots__ = ("values", "channel_names", "below_floor")

    def __init__(self, values, channel_names):
        self.values = np.asarray(values, dtype=float)
        self.channel_names = tuple(channel_names)
        if self.values.shape != (len(self.channel_names),):
            raise ValueError("values and channel_names lengths differ")
        listed = self.values.tolist()
        if not all(0 <= v < math.inf for v in listed):
            raise ValueError("channel intensities must be finite and nonnegative")
        self.below_floor = not any(listed)  # nonnegative, so any() is any(v > 0)

    def channel(self, name: str) -> float:
        try:
            return float(self.values[self.channel_names.index(name)])
        except ValueError:
            raise KeyError(f"no channel named {name!r}") from None

    __getitem__ = channel

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self):
        pairs = ", ".join(f"{n}={v:g}" for n, v in zip(self.channel_names, self.values))
        return f"ChannelReading({pairs}, below_floor={self.below_floor})"

    def __eq__(self, other):
        return (
            isinstance(other, ChannelReading)
            and self.channel_names == other.channel_names
            and np.array_equal(self.values, other.values)
        )


def full_scale_intensity(config: SensorConfig) -> float:
    """Total intensity of the unattenuated source through the bank."""
    return config._optics.full_scale


def _filtered(config: SensorConfig, positions_mm) -> tuple[list[float], np.ndarray]:
    """Clear-path loss and bank integrals of the dye-filtered source per position.

    The arithmetic follows ``attenuate`` then ``integrate_channels`` step
    for step, so every row equals theirs bit for bit: the stacked matmul
    runs one matrix-vector product per row, where a single matrix product
    would round differently.  The clear-path loss stays in ``math``, whose
    ``exp`` rounds differently from ``np.exp``.  Rows go in blocks of
    ``CHUNK_ROWS`` to bound the (rows x wavelengths) intermediates.
    """
    x = np.asarray(positions_mm, dtype=float).reshape(-1)
    outside = ~((x >= 0) & (x <= config.length_mm))
    if outside.any():
        raise OutOfSpanError(
            f"position {float(x[outside][0])} mm outside sensor span "
            f"[0, {config.length_mm}] mm"
        )
    optics = config._optics
    integrals = np.empty((x.size, optics.responses.shape[0]))
    for start in range(0, x.size, CHUNK_ROWS):
        block = x[start:start + CHUNK_ROWS, None]
        filtered = (optics.source * np.exp(optics.neg_decay * block)) * optics.widths
        stacked = np.matmul(optics.responses, filtered[:, :, None])
        integrals[start:start + block.shape[0]] = stacked[:, :, 0]
    loss = config.clear_loss_per_mm
    return [math.exp(-loss * p) for p in x.tolist()], integrals


def channel_intensities(config: SensorConfig, positions_mm, forces_n) -> np.ndarray:
    """Noise-free channels for paired (position, force) rows, before floor clamping.

    Returns an array of shape (rows, channels): the coupled fraction times
    the clear-path loss times the bank integrals of the filtered source.
    """
    clear, integrals = _filtered(config, positions_mm)
    forces = np.asarray(forces_n, dtype=float).reshape(-1).tolist()
    if len(forces) != len(clear):
        raise ValueError("positions and forces lengths differ")
    law = config.coupling
    scale = np.array([coupled_fraction(law, f) * c for f, c in zip(forces, clear)])
    return scale[:, None] * integrals * config._optics.gain


def transmission_factors(config: SensorConfig, positions_mm) -> np.ndarray:
    """Total intensity per unit coupled fraction at each press position.

    Dividing a reading's total by this factor recovers the coupled
    fraction, the position-free quantity the force calibration inverts.
    """
    clear, integrals = _filtered(config, positions_mm)
    return np.array(clear) * integrals.sum(axis=1) * config._optics.gain


def noise_free_channels(config: SensorConfig, stim: Stimulus) -> np.ndarray:
    """Deterministic part of the forward model, before floor clamping."""
    return channel_intensities(config, [stim.position_mm], [stim.force_n])[0]


def position_transmission(config: SensorConfig, position_mm: float) -> float:
    """Transmission factor at one press position (see :func:`transmission_factors`)."""
    return float(transmission_factors(config, [position_mm])[0])


def make_transmission(config: SensorConfig):
    """Transmission factor as a callable of position, for decoders."""
    return lambda position_mm: position_transmission(config, position_mm)


def _readings(config: SensorConfig, positions, forces, noise, rngs) -> np.ndarray:
    """Channel rows after noise (one draw per row from ``rngs``) and the floor."""
    values = channel_intensities(config, positions, forces)
    if noise is not None:
        draws = np.array([rng.standard_normal(values.shape[1]) for rng in rngs])
        noisy = values + draws.reshape(values.shape) * noise.sigma_vector(values)
        values = np.maximum(noisy, 0.0)
    return np.where(values < config._optics.floor, 0.0, values)


def simulate_reading(
    config: SensorConfig,
    stim: Stimulus,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> ChannelReading:
    """One sensor reading; deterministic given (config, stim, seed)."""
    if noise is not None and rng is None:
        rng = substream(noise.seed)
    values = _readings(config, [stim.position_mm], [stim.force_n], noise, [rng])[0]
    return ChannelReading(values, config.bank.names)


def measure_snr_db(config: SensorConfig, stim: Stimulus, noise: NoiseModel) -> float:
    """SNR of the total intensity: 20*log10(signal / total noise sigma)."""
    values = noise_free_channels(config, stim)
    signal = float(values.sum())
    if signal <= config._optics.floor:
        raise UndefinedSnrError("dead-zone stimulus: noise-free reading is zero")
    sigma_total = float(np.sqrt(np.sum(noise.sigma_vector(values) ** 2)))
    if sigma_total == 0:
        return math.inf
    return 20.0 * math.log10(signal / sigma_total)


@dataclass(frozen=True)
class SweepRow:
    position_mm: float
    force_n: float
    reading: ChannelReading


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator of ``SeedSequence(seed).spawn`` child ``key`` (``(i, j)``: child j of
    child i; ``()``: ``default_rng(seed)``), built without its siblings."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def rng_substreams(seed: int, n: int) -> list[np.random.Generator]:
    """Deterministic per-row RNG substreams, independent of consumption order."""
    return [substream(seed, i) for i in range(n)]


def sweep(
    config: SensorConfig,
    positions_mm,
    forces_n,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> list[SweepRow]:
    """Simulate a position-major grid of stimuli, one row each.

    Row i draws from an RNG substream derived from (seed, i), so the
    table is reproducible and rows could be computed in any order.
    """
    positions = [float(p) for p in positions_mm]
    forces = [float(f) for f in forces_n]
    xs = np.repeat(positions, len(forces))
    fs = np.tile(forces, len(positions))
    rngs = rng_substreams(seed, xs.size) if noise is not None else None
    values = _readings(config, xs, fs, noise, rngs)
    names = config.bank.names
    return [
        SweepRow(p, f, ChannelReading(v, names))
        for p, f, v in zip(xs.tolist(), fs.tolist(), values)
    ]
