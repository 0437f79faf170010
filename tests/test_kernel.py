"""The batched forward model against the Beer-Lambert closed form.

``grid_intensities`` reads the position-major grid of a positions axis
and a forces axis.  Each cell must equal, to round-off, the closed form

    frac(F) * exp(-a x) * sum_l R(l) S(l) exp(-c k(l) x / (1 + strain)) dl

on arbitrary wavelength grids, banks and perturbations, and every cell
must equal the same cell computed as a 1 x 1 grid on its own, across the
chunk boundaries of the kernel.  On the stock banks it must also equal,
bit for bit, the same arithmetic run on every wavelength sample of the
grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (
    ChannelBank,
    CouplingLaw,
    DyeProfile,
    PerturbationState,
    SensorConfig,
    Spectrum,
    boxcar_response,
    default_wavelength_grid,
    line_response,
)
from spectratact import sensor
from spectratact.contact import coupled_fraction, strained_dye
from spectratact.errors import OutOfSpanError
from spectratact.sensor import CHUNK_ROWS, grid_intensities, transmission_factors
from spectratact.twin import encoder_sensor_config

REL_TOL = 1e-12
GRID = default_wavelength_grid()
ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]
FORCE_COUNTS = [0, 1, 3]


@stn.composite
def configs(draw):
    rng = np.random.default_rng(draw(stn.integers(0, 2**32 - 1)))
    n = draw(stn.integers(8, 60))
    # strictly increasing, non-uniform wavelength grid
    grid = 400.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 8.0, n - 1))])
    source = Spectrum(grid, rng.uniform(0.0, 5.0, n))
    dye = DyeProfile(grid, rng.uniform(0.0, 0.2, n), draw(stn.floats(0.0, 4.0)))
    picks = rng.choice(n, size=draw(stn.integers(2, 4)), replace=False)
    if draw(stn.booleans()):
        responses = [line_response(grid, grid[p]) for p in picks]
    else:
        ends = np.minimum(picks + rng.integers(0, 10, picks.size), n - 1)
        responses = [boxcar_response(grid, grid[p], grid[e], closed_hi=True)
                     for p, e in zip(picks, ends)]
    coupling = CouplingLaw(draw(stn.floats(0.0, 1.0)), draw(stn.floats(0.05, 2.0)),
                           draw(stn.floats(0.2, 2.0)))
    return SensorConfig(
        length_mm=draw(stn.floats(30.0, 200.0)),
        source=source,
        dye=dye,
        bank=ChannelBank(grid, [f"c{i}" for i in range(picks.size)], responses),
        coupling=coupling,
        clear_loss_per_mm=draw(stn.floats(0.0, 0.01)),
        perturbation=PerturbationState(strain=draw(stn.floats(0.0, 0.5))),
    )


def stimuli(config, n, seed, n_forces=None):
    """A positions axis of ``n`` entries in the span, both ends present, and a forces axis
    (``n`` entries unless ``n_forces`` says) on every branch of the law."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, config.length_mm, n)
    positions[:2] = (0.0, config.length_mm)[:n]
    m = n if n_forces is None else n_forces
    law = config.coupling
    saturation = law.f_threshold_n + law.gain ** (-1 / law.exponent)
    choices = np.array([0.0, law.f_threshold_n, 0.5 * law.f_threshold_n,
                        saturation, 2.0 * saturation + 1.0])
    forces = np.where(rng.random(m) < 0.5, rng.choice(choices, m),
                      rng.uniform(0.0, 1.5 * saturation, m))
    return positions, forces


def cells(positions, forces):
    """The (position, force) of each row of the position-major grid of two axes."""
    return np.repeat(positions, len(forces)), np.tile(forces, len(positions))


def closed_form(config, positions, forces):
    grid = config.source.wavelengths_nm
    widths = np.empty_like(grid)
    widths[0], widths[-1] = grid[1] - grid[0], grid[-1] - grid[-2]
    widths[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    law = config.coupling
    lifted = np.clip(forces - law.f_threshold_n, 0.0, None)
    fraction = np.where(forces > law.f_threshold_n,
                        np.minimum(1.0, law.gain * lifted ** law.exponent), 0.0)
    k = config.dye.concentration_scale * config.dye.decay_per_mm \
        / (1.0 + config.perturbation.strain)
    transmitted = np.exp(-np.outer(positions, k))
    integrals = np.einsum("cl,l,nl,l->nc", config.bank.responses,
                          config.source.intensities, transmitted, widths)
    clear = np.exp(-config.clear_loss_per_mm * positions)
    return (fraction * clear)[:, None] * integrals, clear * integrals.sum(axis=1)


def assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= REL_TOL * np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(config=configs(), n=stn.sampled_from(ROW_COUNTS), m=stn.sampled_from(FORCE_COUNTS),
       seed=stn.integers(0, 2**32 - 1))
def test_matches_closed_form(config, n, m, seed):
    positions, forces = stimuli(config, n, seed, m)
    channels = grid_intensities(config, positions, forces)
    expected_channels, _ = closed_form(config, *cells(positions, forces))
    assert_close(channels, expected_channels)
    _, expected_transmission = closed_form(config, positions, np.zeros(n))
    assert_close(transmission_factors(config, positions), expected_transmission)


@settings(max_examples=6, deadline=None)
@given(config=configs(), seed=stn.integers(0, 2**32 - 1))
def test_rows_independent_of_batch(config, seed):
    """Every cell of a (2 * CHUNK_ROWS + 3) x 3 grid equals its 1 x 1 grid, bit for bit.

    The positions axis holds ``-0.0`` first, adjacent repeats, repeats
    interleaved across a ``CHUNK_ROWS`` boundary and ``0.0`` next to
    ``-0.0``; the forces axis holds a repeat.  Each entry is filtered as
    given, so a cell depends on its own position and force alone.
    """
    n = 2 * CHUNK_ROWS + 3
    positions, forces = stimuli(config, n, seed, 2)
    forces = forces[[0, 1, 0]]
    positions[0] = -0.0
    positions[5:8] = positions[4]
    positions[8:10] = (0.0, -0.0)
    positions[CHUNK_ROWS - 2:CHUNK_ROWS + 2] = positions[[2, 4, 2, 4]]
    batch = grid_intensities(config, positions, forces).reshape(n, forces.size, -1)
    transmission = transmission_factors(config, positions)
    for i in range(n):
        for j in range(forces.size):
            alone = grid_intensities(config, positions[i:i + 1], forces[j:j + 1])
            assert batch[i, j].tobytes() == alone[0].tobytes()
        assert transmission[i:i + 1].tobytes() == \
            transmission_factors(config, positions[i:i + 1]).tobytes()

    # an out-of-span position that repeats is named at its first row, not in sorted order
    outside = np.repeat([5.0, config.length_mm + 2.0, config.length_mm + 1.0,
                         config.length_mm + 2.0, -1.0], 2)
    for kernel in (lambda: grid_intensities(config, outside, [1.0]),
                   lambda: transmission_factors(config, outside)):
        with pytest.raises(OutOfSpanError, match=f"position {config.length_mm + 2.0!r} mm"):
            kernel()


def test_paired_rows_have_no_kernel():
    """Two equal-length axes read their n x n grid, so the paired-row name must not answer."""
    assert not hasattr(sensor, "channel_intensities")
    config = SensorConfig.default()
    assert grid_intensities(config, [10.0, 20.0], [1.0, 2.0]).shape == \
        (4, len(config.bank.names))


def full_width(config, positions, forces):
    """The kernel's arithmetic on every wavelength sample of the grid, per axis entry.

    Each position's integrals are the stacked matmul of the full response
    matrix with the filtered source, in blocks of ``CHUNK_ROWS``.  Each
    cell multiplies them by the coupled fraction of its force times the
    clear-path loss of its position in ``math``, one Python product per
    cell, position-major.
    """
    dye = strained_dye(config.dye, config.perturbation.strain)
    neg_decay = -dye.concentration_scale * dye.decay_per_mm
    widths = np.gradient(config.source.wavelengths_nm)
    responses = config.bank.responses
    integrals = np.empty((positions.size, responses.shape[0]))
    for start in range(0, positions.size, CHUNK_ROWS):
        block = positions[start:start + CHUNK_ROWS, None]
        filtered = (config.source.intensities * np.exp(neg_decay * block)) * widths
        integrals[start:start + block.shape[0]] = np.matmul(responses, filtered[:, :, None])[:, :, 0]
    clear = [math.exp(-config.clear_loss_per_mm * p) for p in positions.tolist()]
    fraction = [coupled_fraction(config.coupling, f) for f in forces.tolist()]
    scale = np.array([f * c for c in clear for f in fraction])
    return (scale[:, None] * np.repeat(integrals, len(fraction), axis=0),
            np.array(clear) * integrals.sum(axis=1))


# The kernel integrates only the samples that line channels read; a sum with
# one nonzero term rounds alike in any order, so those rows keep their bits.
# Multi-sample channels keep every sample: dropping their zero columns lets
# BLAS regroup the sum, which moves bits.
@pytest.mark.parametrize("config", [
    encoder_sensor_config(),
    SensorConfig.default(),
    SensorConfig(bank=ChannelBank(GRID, ["G"], [boxcar_response(GRID, 500.0, 600.0)])),
], ids=["encoder_line_bank", "default_bank", "g_only_boxcar"])
@pytest.mark.parametrize("seed", [0, 1])
def test_bits_equal_full_width_arithmetic(config, seed):
    positions, forces = stimuli(config, 2 * CHUNK_ROWS + 3, seed, 7)
    expected_channels, expected_transmission = full_width(config, positions, forces)
    assert np.array_equal(grid_intensities(config, positions, forces), expected_channels)
    assert np.array_equal(transmission_factors(config, positions), expected_transmission)
