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
0.02 deg rotational            track at that SNR (relative      sigma within 3 % of
resolution through the         noise, seed 0), 4000 samples     0.02 deg per joint;
tracker                        held at each of (40, 125),       RMS within 3 % of
                               (20, 145), (60, 110) mm: angle   the Jacobian cell
                               sigma 0.01956, 0.02029 deg; RMS
                               1.009, 1.003, 1.010 x the
                               deviation_map Jacobian cell
Resolution formulas agree      estimate_resolution at 42.5 mm,  std of 4000 noisy
with simulation, 40 dB         0.5 N: 103.67 um, 5.505 mN;      rows within 3 %
                               rows: 102.22 um, 5.421 mN
Same, 60 dB                    10.367 um, 0.5505 mN; rows:      within 3 %
                               10.219 um, 0.5421 mN
Force resolution as decode     std of 4000 rows through         within 3 %, and
delivers it, 40 dB             CalibrationFile.decode at        the formula within
                               42.5 mm, 0.5 N: 6.130 mN;        3 % of the rows
                               estimate_resolution's decoded
                               formula: 6.236 mN (known
                               position: 5.505 mN)
"Self-decoupled": force does   CalibrationFile.decode of 28     spread <= 1e-9 mm;
not move the decoded           positions on [2, 83] mm x        <= 0.1 % and
position, and position         {0.2 .. 9.5} N: position spread  <= 1.5 %; every
reaches force only through     across forces 7.1e-15 mm; force  row "ok"
the transmission               error 0.043 % at the known
                               position, 0.88 % decoded
7 um spatial and 5 mN force    channel SNR at 42.5 mm, 0.5 N:   63.41 dB, 0.372 mN,
resolution                     63.41 dB for 7 um, where force   40.84 dB, 41.92 dB,
                               reads 0.372 mN; 40.84 dB for     each +- 0.005 dB or
                               5 mN alone at the known          0.5 uN
                               position, 41.92 dB for 5 mN
                               with the position decoded
Known model limit: spatial     noise-free held-out spatial      31.3 um +- 0.05, and
accuracy (bias of the affine   accuracy at 42.5 mm, 0.5 N       coarser than 7 um
fit) vs 7 um resolution        (31.32 um)
Noise-free round trip over     CLI simulate -> calibrate ->     every row "ok",
strain <= 0.5, bend <= 180     decode, 32 held-out rows per     <= 70 um and <= 1 %
deg, concentration scale       sensor; max 68.1 um and 0.89 %
0.05 to 1.5                    of force (scale 1.5, no strain)
Survives cutting: cut from 85  grid_intensities of 501          bit-identical;
to 50 mm, the rest of the      positions on [0, 50] mm x 1 N;   94.88 um and
span reads as before           max noise-free decode error of   39.54 um, each
                               the uncut calibration (94.88     +- 0.05
                               um) and of one refitted on the
                               cut sensor (39.54 um)
Design scalability: at 40 dB   mid-span spatial resolution,     each +- 0.01 um;
the resolution does not        scale 1: 104.12, 103.85,         spread over length
depend on length and scales    103.64, 103.48 um at 30, 60,     <= 1 %; scale *
as 1 / concentration, up to    90, 120 mm; scale * resolution   resolution within 1 %
the dead zone                  at scale 0.25 and 1.5 within     of scale 1; 160 mm
                               0.62 % of scale 1; dead zone     calibrates, 175 mm
                               from 166.9 mm at scale 1         raises
                                                                UnusableSampleError
=============================  ===============================  ======================

Noise-free R^2 is far above the paper's 0.996 because the model's
log-ratio is affine in position up to the bank's finite bandwidth; the
bound pins the model, not the paper's margin.  The resolution rows use
the 21-knot force calibration at 42.5 mm (``conftest.calibrate_force``)
and decode force at the known press position, as the formula assumes.
``CalibrationFile.decode``, as CLI ``decode`` runs it, decodes the position
from the same noisy reading first and divides by the transmission
interpolated there, so the position noise feeds the force: the 40 dB
force spread widens from 5.42 to 6.13 mN (+13 %).
``force_resolution_decoded_n`` carries that position noise through the
transmission's slope (the delta method on the decoded force) and reads
6.236 mN, +1.7 % of the rows.  The decoupling rows use the same calibrations with the
129-point transmission table that ``calibrate`` writes.  The coupled
fraction scales both ratio channels alike, so it cancels in the ratio up
to rounding; the force error at the decoded position is the affine fit's
bias (up to 80 um here) carried through the transmission.

The 7 um and 5 mN row reads one operating point, so each SNR is the one
that gives that figure there; resolution scales as 10**(-SNR/20).  The
model limit row is recorded, not fixed: the affine fit's bias (31 um) is
coarser than the 7 um the noise supports, which would take changing the
physics to close.  The round trip draws strain, bend and concentration
scale and calibrates each sensor from its own 18-position, 21-knot sweep.
Its bound comes from a scan of the scale at 0.025 steps: both errors grow
with the effective scale, scale / (1 + strain), and peak at its top.
Above 1.5 the weakest held-out rows (0.3 N at 81 mm) start to fall below
the intensity floor and decode as no contact.

The optics read the path from the press point to the detector, so cutting
the far end leaves every reading on the remaining span bit-identical.  The
uncut calibration's error on the cut sensor is the affine fit's bias over
the longer span; a refit on the cut span shrinks it.  Piercing, the
abstract's other interaction, has no row: a local loss at a hole would be
new physics, which the model does not have.

The tracker row holds under the relative noise of ``--snr-db``, so each
joint's angle spread is the same at every pose, and the first-order SNR
formula gives the 0.02 deg it was asked for.  The angles are the IK of
each reconstructed pose; the terminal RMS follows sigma * |J|_F, the
quantity ``deviation_map``'s Jacobian method returns at the pose's cell.

The scalability row holds under the relative noise of ``--snr-db``: each
channel's sigma is 10**(-SNR/20) of its own level, so the log-ratio noise is
sqrt(2) * 10**(-SNR/20) wherever both channels are lit, and the resolution is
that over the calibrated |slope|, which grows with the concentration scale.
Length leaves the slope nearly alone (the band channels' log-ratio is not
quite affine, hence the spread), and scale * resolution depends on scale *
length alone.  Under absolute noise (``--noise-sigma``) the far end dims and
length matters.  The design region ends where the far end of the span falls
below the intensity floor: at scale * length near 167 mm, past which the
calibration has dead-zone samples.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (NoiseModel, SensorConfig, estimate_resolution, force_knot_schedule,
                         grid_intensities, sweep, transmission_factors)
from spectratact.calibration import DECODE_FLAGS, CalibrationFile, Transmission
from spectratact.cli import main
from spectratact.contact import MAX_BEND_DEG, MAX_STRAIN, PerturbationState
from spectratact.errors import UnusableSampleError
from spectratact.sensor import position_transmission
from spectratact.fivebar import GridSpec, TerminalPose, deviation_map, inverse_kinematics
from spectratact.twin import (TrajectorySample, TwinAssembly, calibrate_encoder,
                              snr_db_for_angle_sigma, track)

STRAINS = (0.0, 0.1, 0.25, 0.5)
BENDS_DEG = (0.0, 45.0, 90.0, 180.0)


@pytest.fixture(scope="module")
def calibrations():
    """Noise-free position calibration per (strain, bend) of the default sensor."""
    base = SensorConfig.default()
    return {
        (s, b): calibrate_encoder(replace(base, perturbation=PerturbationState(s, b)), 1.0, 86)
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


@pytest.mark.parametrize("pose", [(40.0, 125.0), (20.0, 145.0), (60.0, 110.0)],
                         ids=["40_125", "20_145", "60_110"])
def test_rotational_resolution_through_the_tracker(pose):
    """Relative noise (``--snr-db``) at the SNR of a 0.02 deg angle sigma, seed 0."""
    twin = TwinAssembly()
    snr = snr_db_for_angle_sigma(twin.calibrations[0], twin.encoders[0], 0.02)
    path = [TrajectorySample(i / 4000, TerminalPose(*pose)) for i in range(4000)]
    reconstructed, report = track(twin, path, NoiseModel("snr_db", snr), seed=0)
    assert report.dropped == 0
    angles = np.degrees([[a.theta1_rad, a.theta2_rad] for a in
                         (inverse_kinematics(twin.fivebar, s.pose) for s in reconstructed)])
    assert np.std(angles, axis=0, ddof=1) == pytest.approx([0.02, 0.02], rel=0.03)
    x, y = pose
    grid = GridSpec(x - 1.0, x + 1.0, y - 1.0, y + 1.0, 3, 3)  # the pose is the middle cell
    cell = deviation_map(twin.fivebar, 0.02, grid, method="jacobian")[1, 1]
    assert report.rms_error_mm == pytest.approx(cell, rel=0.03)


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
    lit, _, positions, _ = poscal.decode(channels[:, names.index(poscal.numerator_ch)],
                                         channels[:, names.index(poscal.denominator_ch)])
    assert lit.all()
    forces = default_forcecal.invert(channels.sum(axis=1) / position_transmission(config, 42.5))
    assert np.std(positions, ddof=1) == pytest.approx(report.spatial_resolution_mm, rel=0.03)
    assert np.std(forces, ddof=1) == pytest.approx(report.force_resolution_n, rel=0.03)


@pytest.fixture(scope="module")
def ledger_calibration(calibrations, default_forcecal):
    """The ledger's calibrations as ``calibration.json``, with the 129-point transmission."""
    config, poscal = SensorConfig.default(), calibrations[0.0, 0.0]
    grid = np.linspace(*poscal.span_mm, 129)
    return CalibrationFile(poscal, Transmission(grid, transmission_factors(config, grid)),
                           default_forcecal)


def test_force_resolution_as_decode_delivers_it(ledger_calibration):
    config = SensorConfig.default()
    _, _, channels = sweep(config, [42.5], [0.5] * 4000, NoiseModel("snr_db", 40.0))
    _, forces, code = ledger_calibration.decode(config.bank.names, channels)
    assert DECODE_FLAGS[code].tolist() == ["ok"] * 4000
    spread = np.std(forces, ddof=1)
    assert spread * 1e3 == pytest.approx(6.13, rel=0.03)
    report = estimate_resolution(config, ledger_calibration.position, ledger_calibration.force,
                                 NoiseModel("snr_db", 40.0), 42.5, 0.5)
    assert report.force_resolution_decoded_n == pytest.approx(spread, rel=0.03)


DECOUPLING_POSITIONS = np.linspace(2.0, 83.0, 28)
DECOUPLING_FORCES = (0.2, 0.5, 1.0, 2.0, 5.0, 9.5)


def test_self_decoupling(ledger_calibration):
    config = SensorConfig.default()
    xs, fs, channels = sweep(config, DECOUPLING_POSITIONS, DECOUPLING_FORCES)
    positions, forces, code = ledger_calibration.decode(config.bank.names, channels)
    assert DECODE_FLAGS[code].tolist() == ["ok"] * len(xs)
    per_position = positions.reshape(len(DECOUPLING_POSITIONS), len(DECOUPLING_FORCES))
    assert np.max(np.ptp(per_position, axis=1)) <= 1e-9
    at_known = ledger_calibration.force.invert(channels.sum(axis=1)
                                               / transmission_factors(config, xs))
    assert np.max(np.abs(at_known / fs - 1.0)) <= 1e-3
    assert np.max(np.abs(forces / fs - 1.0)) <= 0.015


def resolution_at(calibrations, forcecal, snr_db):
    """``estimate_resolution`` of the ledger's calibrations at 42.5 mm and 0.5 N."""
    return estimate_resolution(SensorConfig.default(), calibrations[0.0, 0.0], forcecal,
                               NoiseModel("snr_db", snr_db), 42.5, 0.5)


def test_paper_resolution_at_one_operating_point(calibrations, default_forcecal):
    at_40 = resolution_at(calibrations, default_forcecal, 40.0)
    snr_7um = 40.0 + 20.0 * math.log10(at_40.spatial_resolution_mm / 7e-3)
    snr_5mn = 40.0 + 20.0 * math.log10(at_40.force_resolution_n / 5e-3)
    assert snr_7um == pytest.approx(63.41, abs=0.005)
    assert snr_5mn == pytest.approx(40.84, abs=0.005)
    at_7um = resolution_at(calibrations, default_forcecal, snr_7um)
    assert at_7um.spatial_resolution_mm == pytest.approx(7e-3, rel=1e-12)
    assert at_7um.force_resolution_n * 1e3 == pytest.approx(0.372, abs=5e-4)
    at_5mn = resolution_at(calibrations, default_forcecal, snr_5mn)
    assert at_5mn.force_resolution_n == pytest.approx(5e-3, rel=1e-12)
    # the same 5 mN when decode reads the position from the reading too
    snr_5mn_decoded = 40.0 + 20.0 * math.log10(at_40.force_resolution_decoded_n / 5e-3)
    assert snr_5mn_decoded == pytest.approx(41.92, abs=0.005)
    at_5mn_decoded = resolution_at(calibrations, default_forcecal, snr_5mn_decoded)
    assert at_5mn_decoded.force_resolution_decoded_n == pytest.approx(5e-3, rel=1e-12)


def test_noise_free_spatial_accuracy_is_coarser_than_the_resolution(calibrations,
                                                                    default_forcecal):
    # a known limit of the model, recorded as it is
    accuracy_um = resolution_at(calibrations, default_forcecal, 63.41).spatial_accuracy_mm * 1e3
    assert accuracy_um == pytest.approx(31.3, abs=0.05)
    assert accuracy_um > 7.0


HELD_POSITIONS = np.linspace(4.0, 81.0, 8)
HELD_FORCES = (0.3, 1.0, 3.0, 9.0)  # inside the knots, from near the threshold to 9 N
KNOTS = ",".join(repr(float(f)) for f in force_knot_schedule(0.1, 10.0, 21))


def cli_round_trip(config, tmp) -> list[list[str]]:
    """decoded.csv rows of held-out readings, through a calibration of ``config`` itself."""
    path = os.path.join(tmp, "sensor.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh)
    positions = ",".join(repr(float(x)) for x in HELD_POSITIONS)
    forces = ",".join(map(repr, HELD_FORCES))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["simulate", "--out", f"{tmp}/cal", "--positions", "0:85:18",
                      "--forces", KNOTS],
                     ["calibrate", "--out", f"{tmp}/calib", "--samples", f"{tmp}/cal/sweep.csv"],
                     ["simulate", "--out", f"{tmp}/held", "--positions", positions,
                      "--forces", forces]):
            assert main(argv + ["--config", path]) == 0
        assert main(["decode", "--out", f"{tmp}/dec", "--readings", f"{tmp}/held/sweep.csv",
                     "--calibration", f"{tmp}/calib/calibration.json"]) == 0
    with open(f"{tmp}/dec/decoded.csv", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


@settings(max_examples=12, deadline=None)
@given(strain=stn.floats(0.0, MAX_STRAIN), bend=stn.floats(0.0, MAX_BEND_DEG),
       scale=stn.floats(0.05, 1.5))
def test_noise_free_round_trip_across_the_validated_regime(strain, bend, scale):
    base = SensorConfig.default()
    config = replace(base, dye=replace(base.dye, concentration_scale=scale),
                     perturbation=PerturbationState(strain, bend))
    with tempfile.TemporaryDirectory() as tmp:
        rows = cli_round_trip(config, tmp)
    truth = [(x, f) for x in HELD_POSITIONS for f in HELD_FORCES]
    assert [flag for _, _, flag in rows] == ["ok"] * len(truth)
    decoded = np.array([[float(x), float(f)] for x, f, _ in rows])
    assert np.max(np.abs(decoded[:, 0] - [x for x, _ in truth])) <= 0.070
    assert np.max(np.abs(decoded[:, 1] / [f for _, f in truth] - 1.0)) <= 0.01


def test_cutting_leaves_the_remaining_span_unchanged():
    full, cut = SensorConfig.default(), SensorConfig(length_mm=50.0)
    xs, forces = np.linspace(0.0, 50.0, 501), [1.0]
    readings = grid_intensities(cut, xs, forces)
    assert readings.tobytes() == grid_intensities(full, xs, forces).tobytes()
    names = cut.bank.names
    errors_um = []
    for poscal in (calibrate_encoder(full, 1.0, 86), calibrate_encoder(cut, 1.0, 86)):
        lit, positions, _, _ = poscal.decode(readings[:, names.index(poscal.numerator_ch)],
                                             readings[:, names.index(poscal.denominator_ch)])
        assert lit.all()
        errors_um.append(np.max(np.abs(positions - xs)) * 1e3)
    assert errors_um == pytest.approx([94.88, 39.54], abs=0.05)


DESIGN_LENGTHS_MM = (30.0, 60.0, 90.0, 120.0)


def mid_span_resolution_um(forcecal, length_mm, scale):
    """Spatial resolution at mid-span, 40 dB, of the default sensor cut to ``length_mm``."""
    base = SensorConfig()
    config = replace(base, length_mm=length_mm,
                     dye=replace(base.dye, concentration_scale=scale))
    poscal = calibrate_encoder(config, 1.0)
    report = estimate_resolution(config, poscal, forcecal, NoiseModel("snr_db", 40.0),
                                 length_mm / 2, 1.0)
    # the relative-noise model: the log-ratio noise is the same at every length
    assert report.spatial_resolution_mm == pytest.approx(
        math.sqrt(2.0) * 0.01 / abs(poscal.slope), rel=1e-12)
    return report.spatial_resolution_mm * 1e3


def test_design_scalability(default_forcecal):
    unit = [mid_span_resolution_um(default_forcecal, length, 1.0)
            for length in DESIGN_LENGTHS_MM]
    assert unit == pytest.approx([104.12, 103.85, 103.64, 103.48], abs=0.01)
    assert max(unit) / min(unit) - 1.0 <= 0.01  # independent of length
    for scale, lengths in ((0.25, DESIGN_LENGTHS_MM),
                           (1.5, DESIGN_LENGTHS_MM[:-1])):  # 1.5 x 120 mm is dead zone
        scaled = [scale * mid_span_resolution_um(default_forcecal, length, scale)
                  for length in lengths]
        assert max(scaled) / min(scaled) - 1.0 <= 0.01
        assert scaled == pytest.approx(unit[:len(scaled)], rel=0.01)  # 1 / concentration


def test_design_region_ends_at_the_dead_zone(default_forcecal):
    mid_span_resolution_um(default_forcecal, 160.0, 1.0)
    with pytest.raises(UnusableSampleError, match="dead zone"):
        mid_span_resolution_um(default_forcecal, 175.0, 1.0)
