import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn
from scipy.interpolate import PchipInterpolator

from spectratact import (
    BelowThresholdError,
    ChannelReading,
    DegenerateFitError,
    ForceCalibration,
    NoiseModel,
    NonMonotoneDataError,
    PositionCalibration,
    SaturatedError,
    Stimulus,
    UnusableSampleError,
    estimate_resolution,
    fit_force,
    fit_position,
    force_knot_schedule,
    simulate_reading,
    sweep,
)
from spectratact.spectral import Spectrum, default_wavelength_grid, line_bank
from spectratact import calibration
from spectratact.calibration import SLOPE_FLOOR_ULPS
from spectratact.sensor import (
    SensorConfig,
    grid_intensities,
    position_transmission,
    transmission_factors,
)

from conftest import calibrate_force, calibrate_position, columns


def reading(b, r):
    return ChannelReading([b, r], ("B", "R"))


class TestPositionCalibration:
    @pytest.mark.parametrize("slope", [0.0, -0.0, math.nan, math.inf])
    def test_degenerate_slope_rejected(self, line_poscal, slope):
        doc = dict(line_poscal.to_dict(), slope=slope)
        with pytest.raises(DegenerateFitError):
            PositionCalibration.from_dict(doc)

    @pytest.mark.parametrize("span", [(math.nan, 85.0), (0.0, math.inf), (85.0, 0.0),
                                      (42.0, 42.0)])
    def test_bad_span_rejected(self, line_poscal, span):
        doc = dict(line_poscal.to_dict(), span_mm=list(span))
        with pytest.raises(DegenerateFitError, match="span_mm"):
            PositionCalibration.from_dict(doc)

    @pytest.mark.parametrize("intercept", [math.nan, math.inf, -math.inf])
    def test_non_finite_intercept_rejected(self, line_poscal, intercept):
        doc = dict(line_poscal.to_dict(), intercept=intercept)
        with pytest.raises(DegenerateFitError, match="intercept"):
            PositionCalibration.from_dict(doc)

    def test_slope_floor_is_relative_to_the_log_ratio_rounding(self, line_poscal):
        # the log-ratio change across the span against SLOPE_FLOOR_ULPS
        # rounding units of eps * max(1, |intercept|)
        lo, hi = line_poscal.span_mm
        for intercept in (0.0, -0.5, 40.0):
            floor = SLOPE_FLOOR_ULPS * sys.float_info.epsilon * max(1.0, abs(intercept))
            doc = dict(line_poscal.to_dict(), intercept=intercept)
            with pytest.raises(DegenerateFitError, match="slope"):
                PositionCalibration.from_dict(dict(doc, slope=-0.9 * floor / (hi - lo)))
            PositionCalibration.from_dict(dict(doc, slope=-1.1 * floor / (hi - lo)))


class TestTransmission:
    def test_lists_construct_and_round_trip(self):
        # lists once failed on the check's array attributes
        transmission = calibration.Transmission([0.0, 1.0], [1.0, 2.0])
        assert transmission.positions_mm.dtype == transmission.factors.dtype == float
        back = calibration.Transmission.from_dict(json.loads(json.dumps(transmission.to_dict())))
        assert back.to_dict() == {"positions_mm": [0.0, 1.0], "factors": [1.0, 2.0]}

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="transmission factors must be finite and positive"):
            calibration.Transmission([0.0], [0.0])


class TestFitPosition:
    def test_single_wavelength_slope_oracle(self):
        # slope must equal k_den - k_num and the intercept the source ratio
        grid = default_wavelength_grid()
        source = Spectrum(grid, np.where(grid < 550.0, 3.0, 1.2))
        config = SensorConfig(source=source, bank=line_bank([("B", 450.0), ("R", 650.0)]))
        xs, _, values = sweep(config, np.linspace(0.0, 85.0, 86), [2.0])
        cal = fit_position(config.bank.names, values, xs)
        k = config.dye.decay_per_mm
        k_b = k[np.searchsorted(grid, 450.0)]
        k_r = k[np.searchsorted(grid, 650.0)]
        assert cal.slope == pytest.approx(k_r - k_b, rel=1e-9)
        assert cal.intercept == pytest.approx(math.log(3.0 / 1.2), rel=1e-9)
        assert cal.r_squared > 1.0 - 1e-9
        assert cal.residual_std < 1e-12
        assert cal.span_mm == (0.0, 85.0)

    def test_mixed_forces_share_one_line(self, line_config):
        # force cancels in the ratio, so a force-varying sweep calibrates too
        xs, _, values = sweep(line_config, np.linspace(5.0, 80.0, 16), [0.5, 2.0, 8.0])
        cal = fit_position(line_config.bank.names, values, xs)
        assert cal.r_squared > 1.0 - 1e-9

    def test_doubling_concentration_doubles_slope(self, line_config):
        def slope_for(scale):
            config = replace(line_config, dye=replace(line_config.dye, concentration_scale=scale))
            xs, _, values = sweep(config, np.linspace(0.0, 85.0, 18), [2.0])
            return fit_position(config.bank.names, values, xs).slope

        assert slope_for(2.0) == pytest.approx(2.0 * slope_for(1.0), rel=1e-9)

    def test_dead_zone_rows_reported(self, line_config):
        xs, _, values = sweep(line_config, np.linspace(10.0, 70.0, 5), [2.0])
        xs = np.append(np.insert(xs, 2, 40.0), 80.0)
        values = np.vstack([values[:2], [0.0, 0.0], values[2:], [0.0, 1.0]])
        with pytest.raises(UnusableSampleError) as excinfo:
            fit_position(line_config.bank.names, values, xs)
        assert excinfo.value.rows == (2, 6)
        assert excinfo.value.reason == ("2 sample(s) in the dead zone or with a B/R ratio "
                                        "past the float range")
        assert str(excinfo.value) == f"{excinfo.value.reason} at rows [2, 6]"

    @pytest.mark.parametrize("ratio", [("Q", None), (None, "Q")])
    def test_missing_ratio_channel_is_a_key_error(self, line_config, ratio):
        xs, _, values = sweep(line_config, np.linspace(10.0, 70.0, 5), [2.0])
        with pytest.raises(KeyError) as excinfo:
            fit_position(line_config.bank.names, values, xs, *ratio)
        assert excinfo.value.args == ("no channel named 'Q'",)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateFitError):
            fit_position(*columns([(10.0, reading(1.0, 1.0)), (10.0, reading(1.0, 1.0))]))

    def test_rank_deficient_positions(self):
        samples = [(25.0, reading(1.0 + i, 2.0)) for i in range(5)]
        with pytest.raises(DegenerateFitError):
            fit_position(*columns(samples))

    def test_signed_zeros_are_one_position(self):
        samples = [(x, reading(1.0 + i, 2.0)) for i, x in enumerate([0.0, -0.0, 0.0, -0.0])]
        with pytest.raises(DegenerateFitError, match="all samples share one position"):
            fit_position(*columns(samples))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_reported(self, bad):
        # they once reached the least-squares sums: a NaN slope, or a RuntimeWarning first
        positions = [10.0, bad, 30.0, 40.0, bad]
        samples = [(x, reading(1.0 + i, 2.0)) for i, x in enumerate(positions)]
        with pytest.raises(UnusableSampleError) as excinfo:
            fit_position(*columns(samples))
        assert excinfo.value.rows == (1, 4)
        assert excinfo.value.reason == "2 sample(s) with a non-finite position"

    def test_r_squared_definition_and_bounds(self, default_config):
        x, _, values = sweep(default_config, np.linspace(0.0, 85.0, 40), [2.0],
                             NoiseModel("snr_db", 25.0), seed=3)
        names = default_config.bank.names
        cal = fit_position(names, values, x)
        y = np.array([math.log(b / r) for b, r in zip(values[:, names.index("B")].tolist(),
                                                      values[:, names.index("R")].tolist())])
        ss_res = np.sum((y - (cal.slope * x + cal.intercept)) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert cal.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)
        assert 0.0 <= cal.r_squared <= 1.0

    def test_serialization_round_trip(self, default_poscal):
        doc = json.loads(json.dumps(default_poscal.to_dict()))
        again = PositionCalibration.from_dict(doc)
        assert again == default_poscal


class TestFitForce:
    def test_exact_at_knots(self, default_config, default_forcecal):
        for force, value in zip(default_forcecal.forces_n, default_forcecal.normalized):
            assert default_forcecal.evaluate(float(force)) == pytest.approx(value, abs=1e-15)
            if value > default_forcecal.normalized[0]:
                assert default_forcecal.invert(float(value)) == pytest.approx(force, rel=1e-9)

    def test_between_knot_queries_within_one_percent(self, default_config, default_forcecal):
        mids = 0.5 * (default_forcecal.forces_n[1:] + default_forcecal.forces_n[:-1])
        for force in mids:
            total = simulate_reading(default_config, Stimulus(42.5, float(force))).total()
            decoded = default_forcecal.invert(total / position_transmission(default_config, 42.5))
            assert decoded == pytest.approx(force, rel=0.01)

    def test_replicates_averaged(self, default_config):
        schedule = force_knot_schedule(default_config.coupling.f_threshold_n, 10.0, 11)
        samples = []
        for force in schedule:
            base = simulate_reading(default_config, Stimulus(42.5, float(force)))
            for tweak in (0.99, 1.01):
                samples.append((float(force),
                                ChannelReading(base.values * tweak, base.channel_names)))
        cal = fit_force(*columns(samples)[1:], default_config, 42.5)
        assert len(cal.forces_n) == 11
        base_cal = calibrate_force(default_config, n_knots=11)
        assert np.allclose(cal.normalized, base_cal.normalized, rtol=1e-9)

    def test_all_below_threshold_rejected(self, default_config):
        samples = [
            (float(f), simulate_reading(default_config, Stimulus(42.5, float(f))))
            for f in (0.0, 0.02, 0.05, 0.08)
        ]
        with pytest.raises(NonMonotoneDataError):
            fit_force(*columns(samples)[1:], default_config, 42.5)

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneDataError):
            ForceCalibration(np.array([0.1, 1.0, 2.0]), np.array([0.0, 0.5, 0.4]))

    @pytest.mark.parametrize("forces, values", [
        ([0.1, 1.0, math.inf], [0.0, 0.5, 0.7]),
        ([0.1, 1.0, 2.0], [0.0, 0.5, math.inf]),
    ])
    def test_non_finite_knot_rejected(self, forces, values):
        with pytest.raises(ValueError, match="must be finite"):
            ForceCalibration(np.array(forces), np.array(values))

    def test_too_few_forces(self, default_config):
        samples = [
            (f, simulate_reading(default_config, Stimulus(42.5, f)))
            for f in (1.0, 2.0)
        ]
        with pytest.raises(DegenerateFitError):
            fit_force(*columns(samples)[1:], default_config, 42.5)

    def test_normalization_recovers_the_coupling_law(self, line_config):
        # dividing by the transmission at the press position leaves the coupled fraction
        schedule = force_knot_schedule(line_config.coupling.f_threshold_n, 8.0, 9)
        _, fs, values = sweep(line_config, [30.0], schedule[1:])
        cal = fit_force(values, fs, line_config, 30.0)
        law = line_config.coupling
        for force in cal.forces_n[2::3]:
            expected = law.gain * (float(force) - law.f_threshold_n) ** law.exponent
            assert cal.evaluate(float(force)) == pytest.approx(expected, rel=1e-9)

    def test_one_transmission_call_for_all_samples(self, line_config, monkeypatch):
        calls = []

        def counted(config, positions_mm):
            calls.append(len(positions_mm))
            return transmission_factors(config, positions_mm)

        monkeypatch.setattr(calibration, "transmission_factors", counted)
        schedule = force_knot_schedule(line_config.coupling.f_threshold_n, 8.0, 9)
        _, fs, values = sweep(line_config, [30.0], np.repeat(schedule[1:], 2))
        fit_force(values, fs, line_config, 30.0)
        assert calls == [1]

    def test_serialization_round_trip(self, default_forcecal):
        doc = json.loads(json.dumps(default_forcecal.to_dict()))
        again = ForceCalibration.from_dict(doc)
        assert np.array_equal(again.forces_n, default_forcecal.forces_n)
        assert np.array_equal(again.normalized, default_forcecal.normalized)
        assert again.invert(0.3) == pytest.approx(default_forcecal.invert(0.3), rel=1e-12)


@stn.composite
def knot_sets(draw):
    """Strictly increasing knots: clustered like the calibration or unevenly spaced.

    Clustered knots are ``force_knot_schedule``'s, ``f0 + u**c * (f1 - f0)``,
    with the exponent ``c`` drawn around its ``KNOT_CLUSTERING``.
    """
    n = draw(stn.integers(3, 40))
    steps = stn.floats(-4.0, 1.0)  # log10 of a knot spacing
    if draw(stn.booleans()):
        f0, f1 = draw(stn.floats(0.0, 0.5)), draw(stn.floats(1.0, 20.0))
        forces = f0 + np.linspace(0.0, 1.0, n) ** draw(stn.floats(1.0, 4.0)) * (f1 - f0)
    else:
        start = draw(stn.floats(-5.0, 5.0))
        forces = start + np.cumsum(10.0 ** np.array(draw(stn.lists(steps, min_size=n,
                                                                   max_size=n))))
    values = np.cumsum(10.0 ** np.array(draw(stn.lists(steps, min_size=n, max_size=n))))
    return ForceCalibration(forces, values)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCalibrateSamples:
    """``calibrate_samples`` refuses what the CLI refuses, naming the rows of the samples."""

    @pytest.fixture(scope="class")
    def samples(self, default_config):
        schedule = force_knot_schedule(default_config.coupling.f_threshold_n, 10.0, 21)
        xs, fs, values = sweep(default_config, np.linspace(0.0, 85.0, 18), schedule)
        return default_config.bank.names, values, xs, fs

    def calibrate(self, config, samples, channels=None, position=None, force=None):
        names, values, xs, fs = samples
        return calibration.calibrate_samples(
            config, names, values if channels is None else channels,
            xs if position is None else position, fs if force is None else force, None, None)

    def test_sound_samples_fit_at_the_first_position(self, default_config, samples):
        cal, skipped = self.calibrate(default_config, samples)
        assert cal.force is not None and skipped["with a ratio channel at zero"] == 0

    # row 1 is the second knot of the force fit at 0 mm: a G of -0.05 there once moved
    # that knot's normalized value from 0.00200 to 0.00117, and NaN or inf raised a bare
    # ValueError
    @pytest.mark.parametrize("value", [-0.05, math.nan, math.inf])
    def test_negative_or_non_finite_channel_names_its_rows(self, default_config, samples,
                                                           value):
        names, values, _, _ = samples
        channels = values.copy()
        channels[[1, 40], names.index("G")] = value
        with pytest.raises(UnusableSampleError,
                           match=r"^negative or non-finite channel at rows \[1, 40\]$"):
            self.calibrate(default_config, samples, channels=channels)

    # a NaN force once counted as "at or below the contact threshold"
    @pytest.mark.parametrize("column", ["position", "force"])
    def test_non_finite_stimulus_names_its_rows(self, default_config, samples, column):
        _, _, xs, fs = samples
        stimulus = (xs if column == "position" else fs).copy()
        stimulus[[3, 7]] = (math.nan, -math.inf)
        with pytest.raises(UnusableSampleError,
                           match=r"^non-finite position_mm or force_n at rows \[3, 7\]$"):
            self.calibrate(default_config, samples, **{column: stimulus})

    def test_knots_error_names_the_fit_position(self, default_config, samples):
        _, values, _, _ = samples
        channels = values.copy()
        channels[5] = channels[4]  # two forces at 0 mm read one total
        with pytest.raises(NonMonotoneDataError, match=r"^force fit at 0\.0 mm: normalized "
                                                       r"intensities must be strictly"):
            self.calibrate(default_config, samples, channels=channels)

    @pytest.mark.filterwarnings("error")
    def test_zero_transmission_at_the_force_fit_names_its_position(self, default_config):
        # the force fit once divided by that zero factor: a numpy RuntimeWarning, then a
        # bare ValueError about non-finite knots
        dense = replace(default_config,
                        dye=replace(default_config.dye, concentration_scale=5000.0))
        _, _, lit = sweep(dense, [0.0, 0.01, 0.02], [2.0])
        samples = (dense.bank.names, np.vstack([lit, np.zeros((4, lit.shape[1]))]),
                   np.array([0.0, 0.01, 0.02, 80.0, 80.0, 80.0, 80.0]),
                   np.array([2.0, 2.0, 2.0, 1.0, 2.0, 3.0, 4.0]))
        assert transmission_factors(dense, [80.0])[0] == 0.0
        with pytest.raises(DegenerateFitError, match=r"^noise-free transmission underflows "
                                                     r"to 0 at the force fit's position 80\.0 mm$"):
            self.calibrate(dense, samples)


class TestPchipOracle:
    """The in-house PCHIP against scipy's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(knot_sets(), stn.integers(0, 2**32 - 1))
    def test_matches_scipy(self, cal, seed):
        x = cal.forces_n
        span = x[-1] - x[0]
        rng = np.random.default_rng(seed)
        queries = np.concatenate([
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            x[0] - span * rng.uniform(0.0, 1.0, 5), x[-1] + span * rng.uniform(0.0, 1.0, 5),
            rng.uniform(x[0], x[-1], 50),
        ])
        scipy_pchip = PchipInterpolator(x, cal.normalized)
        assert same_bits(cal._coefficients, scipy_pchip.c)
        assert same_bits(cal.evaluate(queries), scipy_pchip(queries))
        assert same_bits(cal.derivative(queries), scipy_pchip.derivative()(queries))

    @settings(max_examples=20, deadline=None)  # each scalar call takes about 1 ms
    @given(knot_sets(), stn.integers(0, 2**32 - 1))
    def test_array_invert_equals_scalar_calls(self, cal, seed):
        y = cal.normalized
        values = np.concatenate([y, np.random.default_rng(seed).uniform(y[0], y[-1], 10)])
        assert np.array_equal(cal.invert(values), [cal.invert(v) for v in values.tolist()])

    def test_scalar_in_float_out(self, default_forcecal):
        force = float(default_forcecal.forces_n[3])
        value = float(default_forcecal.normalized[3])
        assert type(default_forcecal.evaluate(force)) is float
        assert type(default_forcecal.derivative(force)) is float
        assert type(default_forcecal.invert(value)) is float
        assert type(default_forcecal.invert(np.float64(value))) is float

    def test_empty_array_in_empty_array_out(self, default_forcecal):
        out = default_forcecal.invert(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_out_of_range_array_raises_like_scalar(self, default_forcecal):
        lo, hi = default_forcecal.normalized[0], default_forcecal.normalized[-1]
        mid = 0.5 * (lo + hi)
        with pytest.raises(BelowThresholdError):
            default_forcecal.invert(np.array([mid, lo - 0.1]))
        with pytest.raises(SaturatedError):
            default_forcecal.invert(np.array([mid, hi + 0.1]))

    def test_nan_raises(self, default_forcecal):
        # NaN is neither below nor above the knots, and would bisect to the first knot
        mid = 0.5 * (default_forcecal.normalized[0] + default_forcecal.normalized[-1])
        with pytest.raises(ValueError, match="NaN"):
            default_forcecal.invert(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            default_forcecal.invert(np.array([mid, math.nan]))


class TestEstimateResolution:
    def test_zero_noise_zero_resolution(self, default_config, default_poscal, default_forcecal):
        report = estimate_resolution(
            default_config, default_poscal, default_forcecal,
            NoiseModel("absolute_sigma", 0.0), 42.5, 2.0,
        )
        assert report.spatial_resolution_mm == 0.0
        assert report.force_resolution_n == 0.0

    def test_doubling_sigma_doubles_spatial_resolution(
        self, default_config, default_poscal, default_forcecal
    ):
        reports = [
            estimate_resolution(default_config, default_poscal, default_forcecal,
                                NoiseModel("absolute_sigma", sigma), 42.5, 2.0)
            for sigma in (0.01, 0.02)
        ]
        assert reports[1].spatial_resolution_mm == pytest.approx(
            2.0 * reports[0].spatial_resolution_mm, rel=1e-12
        )
        assert reports[1].force_resolution_n == pytest.approx(
            2.0 * reports[0].force_resolution_n, rel=1e-12
        )

    def test_matches_monte_carlo_spread(self, default_config, default_poscal, default_forcecal):
        # light version of the acceptance check, one operating point
        noise = NoiseModel("snr_db", 40.0)
        report = estimate_resolution(default_config, default_poscal, default_forcecal,
                                     noise, 42.5, 2.0)
        base = simulate_reading(default_config, Stimulus(42.5, 2.0))
        rng = np.random.default_rng(11)
        sigma = noise.sigma_vector(base.values)
        draws = base.values + rng.standard_normal((600, len(sigma))) * sigma
        names = list(base.channel_names)
        lr = np.log(draws[:, names.index("B")] / draws[:, names.index("R")])
        mc = float(np.std((lr - default_poscal.intercept) / default_poscal.slope, ddof=1))
        assert report.spatial_resolution_mm == pytest.approx(mc, rel=0.2)

    def test_zero_slope_rejected(self, default_config, default_forcecal, default_poscal):
        import dataclasses
        with pytest.raises(DegenerateFitError):
            broken = dataclasses.replace(default_poscal, slope=0.0)
            estimate_resolution(default_config, broken, default_forcecal,
                                NoiseModel(), 42.5, 2.0)

    def test_force_accuracy_equals_per_value_loop(
        self, default_config, default_poscal, default_forcecal
    ):
        # knots from the third on, and held-out forces from zero to past the
        # last knot, so some values fall outside the knots on each side
        cal = ForceCalibration(default_forcecal.forces_n[2:], default_forcecal.normalized[2:])
        forces = np.linspace(0.0, 1.3 * cal.forces_n[-1], 41)
        report = estimate_resolution(default_config, default_poscal, cal,
                                     NoiseModel(), 42.5, 2.0, held_out_forces=forces)
        transmission = position_transmission(default_config, 42.5)
        totals = grid_intensities(default_config, [42.5], forces).sum(axis=1)
        errors, outside = [], set()
        for force, total in zip(forces.tolist(), totals.tolist()):
            try:
                errors.append(abs(cal.invert(total / transmission) - force))
            except (BelowThresholdError, SaturatedError) as exc:
                outside.add(type(exc))
        assert outside == {BelowThresholdError, SaturatedError} and errors
        assert report.force_accuracy_n == float(np.mean(errors))
