"""The source paper's headline claims, as statements about the model.

Each row names a claim of the paper, the quantity the model gives for
it, and the bound pinned here.  Values are for the default sensor,
calibrated noise-free over 86 positions at 1 N
(``twin.calibrate_encoder(config, 1.0, 86)``), and for the default twin.

=============================  ===============================  ======================
Paper claim                    Model quantity (measured)        Pinned bound
=============================  ===============================  ======================
R^2 > 0.996 "even during       min R^2 over strain {0, 0.1,     >= 0.9999975
stretching and bending"        0.25, 0.5} x bend {0, 45, 90,
                               180} deg (0.99999753)
Position insensitive to        slope * L * (1 + s): -11.5957,   spread <= 0.3 %
stretch, in fractional         -11.5900, -11.5826, -11.5727
coordinates                    for s = 0, 0.1, 0.25, 0.5
Bending does not move the      slope and intercept at 45, 90    bit-identical
spatial response               and 180 deg against 0 deg
0.02 deg rotational            channel SNR for a 0.02 deg       60.13 dB +- 0.05
resolution (twin)              decoded-angle sigma (60.126)
Resolution formulas agree      estimate_resolution at 42.5 mm,  std of 4000 noisy
with simulation, 40 dB         0.5 N: 103.67 um, 5.505 mN;      rows within 3 %
                               rows: 102.22 um, 5.421 mN
Same, 60 dB                    10.367 um, 0.5505 mN; rows:      within 3 %
                               10.219 um, 0.5421 mN
=============================  ===============================  ======================

Noise-free R^2 is far above the paper's 0.996 because the model's
log-ratio is affine in position up to the bank's finite bandwidth; the
bound pins the model, not the paper's margin.  The resolution rows use
the 21-knot force calibration at 42.5 mm (``conftest.calibrate_force``)
and decode force at the known press position, as the formula assumes;
decoding the position first widens the 40 dB force spread to 6.13 mN.
"""

import numpy as np
import pytest

from spectratact import NoiseModel, SensorConfig, estimate_resolution, sweep
from spectratact.contact import PerturbationState
from spectratact.sensor import position_transmission
from spectratact.spectral import log_ratios
from spectratact.twin import TwinAssembly, calibrate_encoder, snr_db_for_angle_sigma

STRAINS = (0.0, 0.1, 0.25, 0.5)
BENDS_DEG = (0.0, 45.0, 90.0, 180.0)


@pytest.fixture(scope="module")
def calibrations():
    """Noise-free position calibration per (strain, bend) of the default sensor."""
    base = SensorConfig.default()
    return {
        (s, b): calibrate_encoder(base.with_perturbation(PerturbationState(s, b)), 1.0, 86)
        for s in STRAINS for b in BENDS_DEG
    }


def test_linear_spatial_response_under_stretch_and_bend(calibrations):
    assert min(cal.r_squared for cal in calibrations.values()) >= 0.9999975


def test_fractional_slope_insensitive_to_stretch(calibrations):
    length = SensorConfig.default().length_mm
    scaled = [calibrations[s, 0.0].slope * length * (1 + s) for s in STRAINS]
    assert scaled == pytest.approx([-11.5957, -11.5900, -11.5826, -11.5727], abs=1e-4)
    assert (max(scaled) - min(scaled)) / abs(min(scaled)) <= 0.003


@pytest.mark.parametrize("strain", STRAINS)
def test_bend_leaves_spatial_response_bit_identical(calibrations, strain):
    flat = calibrations[strain, 0.0]
    for bend in BENDS_DEG[1:]:
        bent = calibrations[strain, bend]
        assert (bent.slope, bent.intercept) == (flat.slope, flat.intercept)


def test_snr_for_rotational_resolution():
    twin = TwinAssembly()
    snr = snr_db_for_angle_sigma(twin.calibrations[0], twin.encoders[0], 0.02)
    assert snr == pytest.approx(60.13, abs=0.05)


@pytest.mark.parametrize("snr_db, predicted_um, predicted_mn", [
    (40.0, 103.67, 5.505), (60.0, 10.367, 0.5505)])
def test_resolution_formulas_match_simulation(calibrations, default_forcecal, snr_db,
                                              predicted_um, predicted_mn):
    config, poscal = SensorConfig.default(), calibrations[0.0, 0.0]
    noise = NoiseModel("snr_db", snr_db)
    report = estimate_resolution(config, poscal, default_forcecal, noise, 42.5, 0.5)
    assert report.spatial_resolution_mm * 1e3 == pytest.approx(predicted_um, rel=1e-4)
    assert report.force_resolution_n * 1e3 == pytest.approx(predicted_mn, rel=1e-3)

    _, _, channels = sweep(config, [42.5], [0.5] * 4000, noise)
    names = config.bank.names
    lit, log = log_ratios(channels[:, names.index(poscal.numerator_ch)],
                          channels[:, names.index(poscal.denominator_ch)])
    assert lit.all()
    positions = poscal.position_for_log_ratio(log)
    forces = default_forcecal.invert(channels.sum(axis=1) / position_transmission(config, 42.5))
    assert np.std(positions, ddof=1) == pytest.approx(report.spatial_resolution_mm, rel=0.03)
    assert np.std(forces, ddof=1) == pytest.approx(report.force_resolution_n, rel=0.03)
