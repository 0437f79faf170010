import json
import math

import numpy as np
import pytest

from spectratact import (
    ChannelReading,
    NoiseModel,
    OutOfSpanError,
    SensorConfig,
    SpectraTactError,
    Stimulus,
    UndefinedSnrError,
    boxcar_channel,
    default_red_dye,
    line_bank,
    log_ratio,
    measure_snr_db,
    position_transmission,
    simulate_reading,
    sweep,
)
from spectratact.sensor import full_scale_intensity
from spectratact.spectral import ChannelBank, Spectrum, default_wavelength_grid


class TestSimulateReading:
    def test_zero_force_dead_zone(self, default_config):
        reading = simulate_reading(default_config, Stimulus(40.0, 0.0))
        assert reading.below_floor
        assert np.array_equal(reading.values, np.zeros(3))

    def test_blue_fraction_drops_with_distance(self, default_config):
        near = simulate_reading(default_config, Stimulus(10.0, 2.0))
        far = simulate_reading(default_config, Stimulus(60.0, 2.0))
        assert far["B"] / far["R"] < near["B"] / near["R"]

    def test_four_factor_oracle(self, default_config):
        # independent spreadsheet-style evaluation of the forward model
        cfg = default_config
        x, force = 42.5, 2.0
        u = force - cfg.coupling.f_threshold_n
        fraction = min(1.0, cfg.coupling.gain * u ** cfg.coupling.exponent)
        clear = math.exp(-cfg.clear_loss_per_mm * x)
        filtered = cfg.source.intensities * np.exp(-cfg.dye.concentration_scale
                                                   * cfg.dye.decay_per_mm * x)
        widths = np.gradient(cfg.source.wavelengths_nm)
        expected = np.array([
            fraction * clear * float(np.sum(filtered * ch.response * widths))
            for ch in cfg.bank.channels
        ])
        reading = simulate_reading(cfg, Stimulus(x, force))
        assert np.allclose(reading.values, expected, rtol=1e-12)

    def test_force_cancels_in_log_ratio(self, default_config):
        threshold = default_config.coupling.f_threshold_n
        ratios = []
        for force in np.linspace(threshold + 0.05, 9.0, 12):
            reading = simulate_reading(default_config, Stimulus(30.0, float(force)))
            ratios.append(log_ratio(reading, "B", "R"))
        assert max(ratios) - min(ratios) < 1e-12

    def test_total_monotone_in_force(self, default_config):
        totals = [
            simulate_reading(default_config, Stimulus(30.0, float(f))).total()
            for f in np.linspace(0.0, 12.0, 25)
        ]
        assert np.all(np.diff(totals) >= 0)

    def test_shared_response_across_lengths(self):
        readings = []
        for length in (30.0, 85.0, 200.0):
            config = SensorConfig.default(length_mm=length)
            readings.append(simulate_reading(config, Stimulus(25.0, 2.0)))
        for other in readings[1:]:
            assert np.array_equal(other.values, readings[0].values)

    def test_deterministic_under_seed(self, default_config):
        noise = NoiseModel("snr_db", 30.0, seed=99)
        a = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        b = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        assert a == b

    def test_noise_clamped_nonnegative(self, default_config):
        noise = NoiseModel("absolute_sigma", 1e6, seed=1)
        reading = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        assert np.all(reading.values >= 0)

    def test_position_out_of_range(self, default_config):
        with pytest.raises(ValueError):
            simulate_reading(default_config, Stimulus(90.0, 2.0))
        with pytest.raises(ValueError):
            simulate_reading(default_config, Stimulus(-1.0, 2.0))

    def test_out_of_range_error_is_typed(self, default_config):
        with pytest.raises(OutOfSpanError) as info:
            simulate_reading(default_config, Stimulus(90.0, 2.0))
        assert isinstance(info.value, SpectraTactError)

    def test_tiny_values_floored_to_zero(self):
        grid = default_wavelength_grid()
        config = SensorConfig.default(
            source=Spectrum(grid, np.full_like(grid, 1e-15)),
        )
        reading = simulate_reading(config, Stimulus(80.0, 0.2))
        floor = 1e-12 * full_scale_intensity(config)
        assert np.all((reading.values == 0) | (reading.values >= floor))


class TestChannelReading:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError):
            ChannelReading([1.0, bad], ("B", "R"))

    def test_accepts_zero(self):
        assert ChannelReading([0.0, 0.0], ("B", "R"), below_floor=True).total() == 0.0


class TestMeasureSnr:
    def test_definition_twenty_db(self, default_config):
        stim = Stimulus(42.5, 2.0)
        signal = simulate_reading(default_config, stim).total()
        # total noise sigma = sqrt(3) * per-channel sigma = signal / 10
        sigma = signal / (10.0 * math.sqrt(3.0))
        noise = NoiseModel("absolute_sigma", sigma)
        assert measure_snr_db(default_config, stim, noise) == pytest.approx(20.0, abs=1e-9)

    def test_definition_forty_db(self, default_config):
        stim = Stimulus(42.5, 2.0)
        signal = simulate_reading(default_config, stim).total()
        noise = NoiseModel("absolute_sigma", signal / (100.0 * math.sqrt(3.0)))
        assert measure_snr_db(default_config, stim, noise) == pytest.approx(40.0, abs=1e-9)

    def test_default_noise_exceeds_paper_floor(self, default_config):
        measured = measure_snr_db(default_config, Stimulus(42.5, 2.0), NoiseModel())
        assert measured >= 20.0

    def test_snr_mode_reports_at_least_nominal(self, default_config):
        noise = NoiseModel("snr_db", 25.0)
        for x in (5.0, 42.5, 80.0):
            assert measure_snr_db(default_config, Stimulus(x, 2.0), noise) >= 25.0

    def test_dead_zone_undefined(self, default_config):
        with pytest.raises(UndefinedSnrError):
            measure_snr_db(default_config, Stimulus(42.5, 0.0), NoiseModel())

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("snr_db", 0.0)
        with pytest.raises(ValueError):
            NoiseModel("absolute_sigma", -1.0)
        with pytest.raises(ValueError):
            NoiseModel("bogus", 1.0)


class TestSweep:
    def test_empty_positions(self, default_config):
        assert sweep(default_config, [], [2.0]) == []

    def test_monotone_log_ratio_column(self, default_config):
        rows = sweep(default_config, np.linspace(0.0, 85.0, 86), [2.0])
        assert len(rows) == 86
        ratios = [log_ratio(r.reading, "B", "R") for r in rows]
        assert np.all(np.diff(ratios) < 0)  # blue decays faster than red

    def test_seed_reproducibility(self, default_config):
        noise = NoiseModel("snr_db", 25.0)
        a = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=5)
        b = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=5)
        assert all(ra.reading == rb.reading for ra, rb in zip(a, b))
        c = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=6)
        assert any(ra.reading != rc.reading for ra, rc in zip(a, c))

    def test_row_order_position_major(self, default_config):
        rows = sweep(default_config, [10.0, 20.0], [1.0, 2.0])
        assert [(r.position_mm, r.force_n) for r in rows] == [
            (10.0, 1.0), (10.0, 2.0), (20.0, 1.0), (20.0, 2.0),
        ]


class TestConfig:
    def test_json_round_trip_preserves_readings(self, default_config, tmp_path):
        doc = json.loads(json.dumps(default_config.to_dict()))
        again = SensorConfig.from_dict(doc)
        stim = Stimulus(33.0, 3.0)
        assert simulate_reading(again, stim) == simulate_reading(default_config, stim)

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            SensorConfig.default(length_mm=20.0)
        with pytest.raises(ValueError):
            SensorConfig.default(length_mm=250.0)

    def test_grid_consistency_enforced(self):
        grid = np.arange(420.0, 680.0)
        with pytest.raises(ValueError):
            SensorConfig.default(source=Spectrum(grid, np.ones_like(grid)))

    def test_transmission_factor_recovers_coupling(self, default_config):
        # total / transmission == coupled fraction, exactly in-model
        stim = Stimulus(55.0, 3.0)
        reading = simulate_reading(default_config, stim)
        u = stim.force_n - default_config.coupling.f_threshold_n
        fraction = min(1.0, default_config.coupling.gain * u ** default_config.coupling.exponent)
        normalized = reading.total() / position_transmission(default_config, 55.0)
        assert normalized == pytest.approx(fraction, rel=1e-12)
