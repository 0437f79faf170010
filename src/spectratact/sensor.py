"""End-to-end forward model of the optical tactile sensor.

A stimulus (press position, force) turns into a multi-channel reading:
the coupling law sets how much source light enters the dyed waveguide,
the dye filters it over the press-to-detector distance, the channel bank
integrates the arriving spectrum, and an optional noise model adds
per-channel Gaussian noise.  LED and detector sit at the same end, so
the filtering length equals the press distance from that end.

The forward model reads the position-major grid of a positions axis and
a forces axis (row ``i * len(forces) + j``: position i, force j), so the
optics run once per position and the coupling law once per force: a
``sweep`` is P x F, a calibration or ``track`` n x 1, one reading 1 x 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codec import NONNEGATIVE, NUMBER, Record, spec, within
from .contact import CouplingLaw, PerturbationState, coupled_fraction, strained_dye
from .errors import OutOfSpanError
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
    """Per-config constants of the forward model, computed once per config.

    The four arrays cover the wavelength samples that ``_filtered``
    integrates: every sample of the grid, or for a bank of line channels
    only the samples they read.
    """

    source: np.ndarray      # source intensity per kept sample
    neg_decay: np.ndarray   # -c * k of the strained dye per kept sample, per mm
    widths: np.ndarray      # rectangle-rule widths of the kept samples
    responses: np.ndarray   # (channels, kept samples)
    full_scale: float       # total of the unattenuated source through the bank
    floor: float            # readings below this are clamped to zero


@dataclass(frozen=True)
class SensorConfig(Record):
    """Full static description of one sensor; the defaults are the stock band sensor."""

    length_mm: float = spec(NUMBER, 85.0, bound=within(MIN_LENGTH_MM, MAX_LENGTH_MM))
    source: Spectrum = spec(Spectrum, factory=Spectrum.flat)
    dye: DyeProfile = spec(DyeProfile, factory=default_red_dye)
    bank: ChannelBank = spec(ChannelBank, factory=default_bank)
    coupling: CouplingLaw = spec(CouplingLaw, factory=CouplingLaw)
    clear_loss_per_mm: float = spec(NUMBER, 0.002, bound=NONNEGATIVE)
    perturbation: PerturbationState = spec(PerturbationState, factory=PerturbationState)

    def __post_init__(self):
        super().__post_init__()
        # the deepest Beer-Lambert exponent c * max(k) * L, in Python floats
        # (which overflow to inf silently), must be finite
        deepest = self.dye.concentration_scale * float(self.dye.decay_per_mm.max(initial=0.0))
        if not deepest * self.length_mm < math.inf:
            raise ValueError("dye concentration_scale * decay_per_mm * length_mm must be finite")
        if not np.array_equal(self.source.wavelengths_nm, self.dye.wavelengths_nm) or \
           not np.array_equal(self.source.wavelengths_nm, self.bank.wavelengths_nm):
            raise ValueError("source, dye and bank must share one wavelength grid")
        # no noise-free reading exceeds this full-scale total, so it bounds the forward model
        with np.errstate(over="ignore"):
            full_scale = integrate_channels(self.source, self.bank).sum()
        if not full_scale < math.inf:
            raise ValueError("source values integrated over the channel bank must be finite")

    @classmethod
    def default(cls) -> "SensorConfig":
        return cls()

    @cached_property
    def _optics(self) -> _Optics:
        dye = strained_dye(self.dye, self.perturbation.strain)
        full_scale = float(integrate_channels(self.source, self.bank).sum())
        responses = self.bank.responses
        line_bank = (np.count_nonzero(responses, axis=1) == 1).all()
        keep = np.flatnonzero(responses.any(axis=0)) if line_bank else slice(None)
        return _Optics(
            source=self.source.intensities[keep],
            neg_decay=(-dye.concentration_scale * dye.decay_per_mm)[keep],
            widths=_sample_widths(self.source.wavelengths_nm)[keep],
            responses=responses[:, keep],
            full_scale=full_scale,
            floor=RELATIVE_INTENSITY_FLOOR * full_scale,
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {self.seed!r}")

    def sigma_vector(self, noise_free: np.ndarray) -> np.ndarray:
        if self.mode == "snr_db":
            return np.asarray(noise_free, dtype=float) * 10.0 ** (-self.value / 20.0)
        return np.full(np.shape(noise_free), float(self.value))


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
    """Clear-path loss and bank integrals of the dye-filtered source, per position-axis entry.

    The arithmetic follows ``attenuate`` then ``integrate_channels`` step
    for step, so every row equals theirs bit for bit: the stacked matmul
    runs one matrix-vector product per row, where a single matrix product
    would round differently, so a row does not depend on the others of its
    batch.  The clear-path loss stays in ``math``, whose ``exp`` rounds
    differently from ``np.exp``.  Rows go in blocks of ``CHUNK_ROWS`` to
    bound the (rows x wavelengths) intermediates.

    It integrates the samples that ``config._optics`` keeps.  When every
    channel reads a single sample, those are the read samples only (2 of
    301 for the joint encoder's B/R bank): each integral is then a sum with
    one nonzero term, which rounds alike in any order and with any number
    of zero terms, so the rows keep their bits.  Any other bank keeps every
    sample, since dropping the zero columns of a multi-sample channel lets
    BLAS regroup its sum.

    Its fixed cost counts on a one-sample ``track`` (2 rows), where it took
    about 12 us of a 100 us step on a 2-vCPU AVX-512 host, 3.3 us of it the
    span test.  So the span test is two reductions, ``minimum`` and
    ``maximum`` from an ``initial`` of 0 (NaN propagates through both and
    fails the test; zero rows pass), and the mask that names the first
    offender is built only to raise.  ``exp`` and the two products run in
    place: ``e * source`` is ``source * e`` bit for bit, and the order of
    the products is kept.
    """
    x = np.asarray(positions_mm, dtype=float).reshape(-1)
    if not (np.minimum.reduce(x, initial=0.0) >= 0  # NaN propagates and fails either test
            and np.maximum.reduce(x, initial=0.0) <= config.length_mm):
        outside = ~((x >= 0) & (x <= config.length_mm))
        raise OutOfSpanError(
            f"position {float(x[outside][0])} mm outside sensor span "
            f"[0, {config.length_mm}] mm"
        )
    optics = config._optics
    integrals = np.empty((x.size, optics.responses.shape[0]))
    for start in range(0, x.size, CHUNK_ROWS):
        block = x[start:start + CHUNK_ROWS, None]
        filtered = np.exp(optics.neg_decay * block)
        filtered *= optics.source
        filtered *= optics.widths
        stacked = np.matmul(optics.responses, filtered[:, :, None])
        integrals[start:start + block.shape[0]] = stacked[:, :, 0]
    loss = config.clear_loss_per_mm
    return [math.exp(-loss * p) for p in x.tolist()], integrals


def grid_intensities(config: SensorConfig, positions_mm, forces_n) -> np.ndarray:
    """Noise-free channels of the position-major grid of two axes, before floor clamping.

    Returns an array of shape (positions * forces, channels): row
    ``i * len(forces) + j`` is the coupled fraction of force j times the
    clear-path loss and the bank integrals of the source filtered over
    position i.  The optics run once per position entry and the coupling
    law once per force entry; only their product runs per row.
    """
    clear, integrals = _filtered(config, positions_mm)
    law = config.coupling
    forces = np.asarray(forces_n, dtype=float).reshape(-1).tolist()
    fractions = [coupled_fraction(law, f) for f in forces]
    rows = integrals[:, None, :] * np.multiply.outer(clear, fractions)[:, :, None]
    return rows.reshape(-1, integrals.shape[1])


def transmission_factors(config: SensorConfig, positions_mm) -> np.ndarray:
    """Total intensity per unit coupled fraction at each press position.

    Dividing a reading's total by this factor recovers the coupled
    fraction, the position-free quantity the force calibration inverts.
    """
    clear, integrals = _filtered(config, positions_mm)
    return np.array(clear) * integrals.sum(axis=1)


def noise_free_channels(config: SensorConfig, stim: Stimulus) -> np.ndarray:
    """Deterministic part of the forward model, before floor clamping."""
    return grid_intensities(config, [stim.position_mm], [stim.force_n])[0]


def position_transmission(config: SensorConfig, position_mm: float) -> float:
    """Transmission factor at one press position (see :func:`transmission_factors`)."""
    return float(transmission_factors(config, [position_mm])[0])


def _readings(config: SensorConfig, positions, forces, noise, rngs) -> np.ndarray:
    """Grid rows after noise (one draw per row from ``rngs``) and the floor.

    A value past the float range, noisy or not, raises ``ValueError``
    instead of reading as zero or decoding as a pose.
    """
    values = grid_intensities(config, positions, forces)
    if noise is not None:
        draws = np.empty_like(values)
        for row, rng in zip(draws, rngs, strict=True):
            rng.standard_normal(out=row)
        with np.errstate(over="ignore"):
            draws *= noise.sigma_vector(values)
        draws += values
        values = draws
    if not np.isfinite(values).all():
        raise ValueError("channel intensities must be finite and nonnegative")
    # the floor is >= 0, so this also clamps noise below zero
    values[values < config._optics.floor] = 0.0
    return values


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


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator of ``SeedSequence(seed).spawn`` child ``key`` (``(i, j)``: child j of
    child i; ``()``: ``default_rng(seed)``), built without its siblings.

    It builds ``Generator(PCG64(SeedSequence(...)))`` as ``default_rng``
    does, without that function's argument checks (about 1.5 us less per
    key, the same draws).  What is left, about 14 us per key on a 2-vCPU
    AVX-512 host, is numpy's ``SeedSequence`` and ``generate_state``, which
    the per-row seeding fixes; a noisy one-sample ``track`` builds two.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# Fewest keys for which substreams() computes the seed words as arrays.  On
# a 2-vCPU AVX-512 host, building Generators and drawing two normals each
# took 69/129 us at 2/24 keys and 2.8 us per key at 2000 batched, 27/304 us
# and 13-15 us per key one by one: even between 4 and 8 keys.  At 24, a
# one-sample track (2 keys) stays per key and large batches are batched.
SUBSTREAM_BATCH_MIN = 24

# numpy's SeedSequence (numpy/random/bit_generator.pyx): hash and mix
# constants, and pool size 4.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF


@lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n: int) -> tuple[int, ...]:
    """``init * mult**k mod 2**32`` for k < n: the hash constants do not depend on the data."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _M32)
    return tuple(consts)


# generate_state's constants for its eight output words
_OUT_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1), dtype=np.uint64)


def _hashmix(value, xor, mult):
    """numpy's hashmix of 32-bit words, given the hash constant before and after its step.

    Works alike on Python ints and on uint64 arrays, where a product of
    two 32-bit words cannot wrap.
    """
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _seed_words(seed: int, words: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=row).generate_state(4, uint64)`` per row, as an (n, 4) array.

    ``seed`` is a non-negative int and ``words`` an (n, arity >= 1) array
    of key words in [0, 2**32).  numpy's entropy is the seed's uint32
    words, zero-padded to the pool size, then the key words.  The pool
    that the seed's words make is the same for every key, so it is built
    once in Python ints; each key word then mixes in as uint64 array ops
    over all keys at once, and ``generate_state`` follows.
    """
    # the seed's uint32 words, low word first (0 is one word)
    run = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (_POOL - len(run))
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (len(run) + words.shape[1]) + 1)
    calls = iter(zip(consts, consts[1:]))  # hashmix call i: consts[i] and consts[i + 1]
    pool = [_hashmix(w, *next(calls)) for w in run[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(calls)))
    for w in run[_POOL:]:  # a seed of more than four words
        pool = [_mix(p, _hashmix(w, *next(calls))) for p in pool]
    pool = np.array(pool, dtype=np.uint64)
    for word in np.hsplit(words.astype(np.uint64), words.shape[1]):
        xor, mult = np.array([next(calls) for _ in range(_POOL)], dtype=np.uint64).T
        pool = _mix(pool, _hashmix(word, xor, mult))
    state = _hashmix(np.tile(pool, 2), _OUT_CONSTS[:-1], _OUT_CONSTS[1:])
    return state[:, ::2] | state[:, 1::2] << 32


class _SeedWords:
    """One row of :func:`_seed_words` for ``PCG64``, whose C code then runs ``set_seed``.

    ``PCG64`` takes only an ``ISeedSequence``; :func:`_pcg64_seed_type`
    builds the subclass that ``substreams`` hands it.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 reads the buffer as four uint64 words unchecked: refuse any other request.
        # PCG64 passes np.uint64 itself; the identity test skips building a dtype for it.
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"only PCG64's 4 uint64 words are known, not {n_words} {dtype}")
        return self.words


@lru_cache(maxsize=None)
def _pcg64_seed_type() -> type:
    """:class:`_SeedWords` as a real ``ISeedSequence`` (no ABCMeta virtual-subclass lookup
    per ``PCG64``), built on first use so that importing does not load ``numpy.random``."""
    class SeedWords(_SeedWords, np.random.bit_generator.ISeedSequence):
        pass

    return SeedWords


def substreams(seed: int, keys) -> Iterator[np.random.Generator]:
    """For each key, a Generator positioned exactly as ``substream(seed, *key)``.

    For at least ``SUBSTREAM_BATCH_MIN`` keys of one arity >= 1, every
    word in [0, 2**32), and a non-negative int seed, the seed words of
    every key are computed at once as arrays, and each Generator's
    ``PCG64`` is seeded from its row through a :func:`_pcg64_seed_type`
    instance.  Otherwise each key gets its own ``substream``, where numpy
    raises on a negative seed.
    """
    keys = list(keys)
    if (len(keys) >= SUBSTREAM_BATCH_MIN and isinstance(seed, (int, np.integer)) and seed >= 0
            and len({len(key) for key in keys}) == 1 and keys[0]):
        words = np.array(keys)
        if words.dtype.kind in "iu" and words.min() >= 0 and words.max() <= _M32:
            seed_type = _pcg64_seed_type()
            return (np.random.Generator(np.random.PCG64(seed_type(row)))
                    for row in _seed_words(int(seed), words))
    return (substream(seed, *key) for key in keys)


def rng_substreams(seed: int, n: int) -> list[np.random.Generator]:
    """Deterministic per-row RNG substreams, independent of consumption order."""
    return [substream(seed, i) for i in range(n)]


def sweep(
    config: SensorConfig,
    positions_mm,
    forces_n,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a position-major grid of stimuli, one row each.

    Returns ``(positions, forces, values)``: the stimulus of each row and
    its (rows, channels) readings in the bank's channel order.  The two
    axes go to the forward model as given, so the optics run once per
    ``positions_mm`` entry and the coupling law once per ``forces_n``
    entry (see :func:`grid_intensities`); their product, the noise and the
    floor run per row.  The stimulus columns alone are expanded to rows.
    Row i draws from an RNG substream derived from (seed, i), so the table
    is reproducible and rows could be computed in any order.
    """
    positions = [float(p) for p in positions_mm]
    forces = [float(f) for f in forces_n]
    rngs = rng_substreams(seed, len(positions) * len(forces)) if noise is not None else None
    return (np.repeat(positions, len(forces)), np.tile(forces, len(positions)),
            _readings(config, positions, forces, noise, rngs))
