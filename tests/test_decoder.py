import math
from dataclasses import replace

import numpy as np
import pytest

from spectratact import (
    BelowThresholdError,
    ChannelReading,
    JointEncoderModel,
    NoContactError,
    PerturbationState,
    SaturatedError,
    Stimulus,
    decode_force,
    decode_joint_angle,
    decode_position,
    fit_position,
    simulate_reading,
    sweep,
)

from conftest import calibrate_position


class TestDecodePosition:
    def test_noise_free_round_trip(self, line_config, line_poscal):
        reading = simulate_reading(line_config, Stimulus(42.5, 2.0))
        decoded = decode_position(reading, line_poscal)
        assert decoded.position_mm == pytest.approx(42.5, abs=1e-6)
        assert not decoded.out_of_span

    def test_intercept_condition_maps_to_zero(self, line_config, line_poscal):
        reading = simulate_reading(line_config, Stimulus(0.0, 2.0))
        decoded = decode_position(reading, line_poscal)
        assert decoded.position_mm == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_reading_is_no_contact(self, line_config, line_poscal):
        reading = simulate_reading(line_config, Stimulus(42.5, 0.0))
        with pytest.raises(NoContactError):
            decode_position(reading, line_poscal)

    def test_missing_ratio_channel_is_no_contact(self, line_poscal):
        reading = ChannelReading([0.0, 1.0], ("B", "R"))
        with pytest.raises(NoContactError):
            decode_position(reading, line_poscal)

    def test_out_of_span_flag_and_clamp(self, line_config):
        xs, _, values = sweep(line_config, np.linspace(20.0, 60.0, 21), [2.0])
        poscal = fit_position(line_config.bank.names, values, xs)
        reading = simulate_reading(line_config, Stimulus(5.0, 2.0))
        decoded = decode_position(reading, poscal)
        assert decoded.out_of_span
        assert decoded.position_mm == 20.0  # clamped to calibrated span
        assert decoded.raw_mm == pytest.approx(5.0, abs=1e-6)

    def test_band_channels_land_near_truth(self, default_config, default_poscal):
        # broadband channels carry a small model bias, no exactness claim
        reading = simulate_reading(default_config, Stimulus(42.5, 2.0))
        decoded = decode_position(reading, default_poscal)
        assert decoded.position_mm == pytest.approx(42.5, abs=1.0)


    def test_kernel_equals_closed_form_per_row(self, line_poscal):
        # math.log, Python's min/max clamp and the 3-sigma slack, row by row
        rng = np.random.default_rng(7)
        num = np.concatenate([rng.uniform(0.0, 2.0, 300), [0.0, 1.0, math.nan, 5e-324, 1e300]])
        den = np.concatenate([rng.uniform(0.0, 2.0, 300), [1.0, 0.0, 1.0, 1e300, 5e-324]])
        lit, position, raw, out_of_span = line_poscal.decode(num, den)
        lo, hi = line_poscal.span_mm
        slack = 3.0 * line_poscal.residual_std / abs(line_poscal.slope)
        expected = []
        for n, d in zip(num.tolist(), den.tolist()):
            if n > 0 and d > 0:
                log = math.log(n / d) if n / d else -math.inf
                x = (log - line_poscal.intercept) / line_poscal.slope
                expected.append((min(max(x, lo), hi), x, x < lo - slack or x > hi + slack))
        assert lit.tolist() == [n > 0 and d > 0 for n, d in zip(num, den)]
        assert list(zip(position.tolist(), raw.tolist(), out_of_span.tolist())) == expected
        assert out_of_span.any() and not out_of_span.all()

    def test_zero_and_infinite_ratio_clamp_out_of_span(self, line_poscal):
        # an underflowed ratio (log 0) decodes like an overflowed one (log inf)
        lo, hi = line_poscal.span_mm
        for b, r in ((5e-324, 1e300), (1e300, 5e-324)):
            decoded = decode_position(ChannelReading([b, r], ("B", "R")), line_poscal)
            assert decoded.out_of_span and math.isinf(decoded.raw_mm)
            assert decoded.position_mm in (lo, hi)

    def test_negative_zero_estimate_keeps_its_sign(self, line_poscal):
        # min(max(-0.0, 0.0), hi) is -0.0 in Python, and the kernel agrees
        poscal = replace(line_poscal, intercept=math.log(2.0), span_mm=(0.0, 85.0))
        decoded = decode_position(ChannelReading([2.0, 1.0], ("B", "R")), poscal)
        assert decoded.position_mm == 0.0 and math.copysign(1.0, decoded.position_mm) == -1.0


class TestDecodeForce:
    def test_exact_at_knots(self, default_config, default_forcecal):
        for force in default_forcecal.forces_n[1:]:
            reading = simulate_reading(default_config, Stimulus(42.5, float(force)))
            decoded = decode_force(reading, 42.5, default_forcecal, default_config)
            assert decoded == pytest.approx(force, rel=1e-9)

    def test_round_trip_at_two_newtons(self, default_config, default_forcecal):
        reading = simulate_reading(default_config, Stimulus(42.5, 2.0))
        decoded = decode_force(reading, 42.5, default_forcecal, default_config)
        assert decoded == pytest.approx(2.0, rel=0.01)

    def test_transfers_across_positions(self, default_config, default_forcecal):
        # calibrated at 42.5 mm; decoding elsewhere leans on the transmission factor
        for position in (10.0, 70.0):
            reading = simulate_reading(default_config, Stimulus(position, 3.0))
            decoded = decode_force(reading, position, default_forcecal, default_config)
            assert decoded == pytest.approx(3.0, rel=0.01)

    def test_below_threshold_is_dead_zone_error(self, default_config, default_forcecal):
        half = default_config.coupling.f_threshold_n / 2.0
        reading = simulate_reading(default_config, Stimulus(42.5, half))
        with pytest.raises(BelowThresholdError):
            decode_force(reading, 42.5, default_forcecal, default_config)

    def test_saturated_above_last_knot(self, default_config, default_forcecal):
        reading = simulate_reading(default_config, Stimulus(42.5, 13.0))
        with pytest.raises(SaturatedError):
            decode_force(reading, 42.5, default_forcecal, default_config)

    def test_monotone_in_true_force(self, default_config, default_forcecal):
        decoded = []
        for force in np.linspace(0.3, 9.5, 25):
            reading = simulate_reading(default_config, Stimulus(42.5, float(force)))
            decoded.append(decode_force(reading, 42.5, default_forcecal, default_config))
        assert np.all(np.diff(decoded) > 0)


class TestDecodeJointAngle:
    def test_offset_position_is_zero_angle(self, line_config, line_poscal):
        encoder = JointEncoderModel(arc_gain_mm_per_deg=0.5, offset_mm=42.5)
        reading = simulate_reading(line_config, Stimulus(42.5, 2.0))
        assert decode_joint_angle(reading, encoder, line_poscal) == pytest.approx(0.0, abs=1e-6)

    def test_round_trip_at_37_degrees(self, line_config, line_poscal):
        encoder = JointEncoderModel(arc_gain_mm_per_deg=0.5, offset_mm=42.5)
        position = encoder.position_for_angle(37.0)
        reading = simulate_reading(line_config, Stimulus(position, 2.0))
        assert decode_joint_angle(reading, encoder, line_poscal) == pytest.approx(37.0, abs=1e-6)

    def test_angular_resolution_is_spatial_over_gain(self):
        encoder = JointEncoderModel(arc_gain_mm_per_deg=0.5, offset_mm=40.0)
        spatial_sigma = 0.012
        positions = 40.0 + spatial_sigma * np.array([-1.0, 1.0])
        angles = [encoder.angle_for_position(p) for p in positions]
        assert (angles[1] - angles[0]) / 2 == pytest.approx(
            spatial_sigma / encoder.arc_gain_mm_per_deg, rel=1e-12
        )

    def test_encoder_validation(self):
        with pytest.raises(ValueError):
            JointEncoderModel(arc_gain_mm_per_deg=0.0)
        with pytest.raises(ValueError):
            JointEncoderModel(offset_mm=-1.0)


class TestRobustnessDecoding:
    def test_bend_invariance_byte_identical(self, line_config, line_poscal):
        decoded = []
        for bend in (0.0, 45.0, 90.0, 135.0, 180.0):
            config = replace(line_config, perturbation=PerturbationState(bend_deg=bend))
            reading = simulate_reading(config, Stimulus(33.25, 2.0))
            decoded.append(decode_position(reading, line_poscal).position_mm)
        assert len(set(decoded)) == 1

    def test_strain_refit_recovers_lab_positions(self, line_config):
        strained = replace(line_config, perturbation=PerturbationState(strain=0.25))
        poscal = calibrate_position(strained)
        for x in (12.0, 42.5, 71.0):
            reading = simulate_reading(strained, Stimulus(x, 2.0))
            decoded = decode_position(reading, poscal)
            assert decoded.position_mm == pytest.approx(x, abs=1e-6)
