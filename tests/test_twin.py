import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from spectratact import (
    FiveBarConfig,
    GridSpec,
    NoiseModel,
    TerminalPose,
    UnreachableError,
    deviation_map,
    generate_path,
    snr_db_for_angle_sigma,
    track,
    workspace_mask,
)
from spectratact import sensor
from spectratact.decoder import JointEncoderModel, decode_joint_angle
from spectratact.errors import KinematicError, NoContactError, OutOfSpanError
from spectratact.fivebar import JointAngles, forward_kinematics, inverse_kinematics
from spectratact.sensor import Stimulus, simulate_reading, substream
from spectratact.twin import TrackingReport, TrajectorySample, TwinAssembly, encoder_sensor_config

FIVEBAR = FiveBarConfig(d_mm=80.0, l_mm=100.0)
S_CENTER = (40.0, 120.0)


@pytest.fixture(scope="module")
def assembly():
    return TwinAssembly(fivebar=FIVEBAR)


@pytest.fixture(scope="module")
def distinct():
    """Joint 2 on a shorter, denser-dyed sensor: two sensor configs, two kernel calls."""
    denser = encoder_sensor_config().dye.with_concentration(1.5)
    return TwinAssembly(fivebar=FIVEBAR, sensors=(
        encoder_sensor_config(), encoder_sensor_config(length_mm=60.0, dye=denser)))


@pytest.fixture(scope="module")
def s_path():
    return generate_path("S", S_CENTER, 40.0, 60, config=FIVEBAR)


@pytest.fixture(scope="module")
def mixed_path(s_path):
    """Part of the S path with unreachable, off-span and edge poses interleaved.

    At (-68, 104) and (-87, 110) joint 1 presses within 0.6 mm of its
    sensor's end, where noise takes the raw decoded position past the
    span; at (-87, 110) joint 2 presses at 70 mm, off a 60 mm sensor.
    """
    poses = [s.pose for s in s_path[:30]]
    extra = [TerminalPose(40.0, 300.0), TerminalPose(40.0, -5.0),
             TerminalPose(-100.0, 60.0), TerminalPose(180.0, 60.0),
             TerminalPose(-68.0, 104.0), TerminalPose(-68.1, 104.0),
             TerminalPose(-87.0, 110.0)]
    for k, pose in enumerate(extra):
        poses.insert(4 * k + 3, pose)
    return [TrajectorySample(0.1 * i, pose) for i, pose in enumerate(poses)]


def track_per_sample(assembly, trajectory, noise=None, seed=0):
    """Reference chain, one sample and one reading object at a time.

    Returns what ``track`` returns plus the count of drops by exception
    class.  ``track`` must equal it bit for bit.
    """
    samples = list(trajectory)
    reconstructed, errors, reasons = [], [], Counter()
    for i, sample in enumerate(samples):
        try:
            angles = inverse_kinematics(assembly.fivebar, sample.pose)
            decoded_deg = []
            for joint, (theta_rad, sensor_, encoder, poscal) in enumerate(zip(
                (angles.theta1_rad, angles.theta2_rad),
                assembly.sensors,
                assembly.encoders,
                assembly.calibrations,
            )):
                position = encoder.position_for_angle(math.degrees(theta_rad))
                stim = Stimulus(position, assembly.indenter_force_n)
                rng = substream(seed, i, joint) if noise is not None else None
                reading = simulate_reading(sensor_, stim, noise, rng)
                decoded_deg.append(decode_joint_angle(reading, encoder, poscal))
            pose_hat = forward_kinematics(
                assembly.fivebar,
                JointAngles(math.radians(decoded_deg[0]), math.radians(decoded_deg[1])),
            )
        except (KinematicError, NoContactError, OutOfSpanError) as exc:
            reasons[type(exc).__name__] += 1
            continue
        reconstructed.append(TrajectorySample(sample.t_s, pose_hat))
        errors.append(math.hypot(pose_hat.x_mm - sample.pose.x_mm,
                                 pose_hat.y_mm - sample.pose.y_mm))
    report = TrackingReport(
        rms_error_mm=float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0,
        max_error_mm=float(np.max(errors)) if errors else 0.0,
        errors_mm=errors,
        dropped=len(samples) - len(errors),
        n_samples=len(samples),
    )
    return reconstructed, report, reasons


class TestGeneratePath:
    def test_line_endpoints_exact(self):
        path = generate_path("line", (40.0, 120.0), 30.0, 2)
        assert (path[0].pose.x_mm, path[0].pose.y_mm) == (25.0, 120.0)
        assert (path[1].pose.x_mm, path[1].pose.y_mm) == (55.0, 120.0)

    def test_circle_closes(self):
        path = generate_path("circle", (40.0, 120.0), 30.0, 121)
        first, last = path[0].pose, path[-1].pose
        assert math.hypot(first.x_mm - last.x_mm, first.y_mm - last.y_mm) < 1e-12

    def test_s_path_inside_workspace_mask(self):
        path = generate_path("S", S_CENTER, 40.0, 200, config=FIVEBAR)
        grid = GridSpec(0.0, 80.0, 80.0, 160.0, 81, 81)
        mask = workspace_mask(FIVEBAR, grid)
        xs, ys = grid.x_axis(), grid.y_axis()
        for sample in path:
            ix = int(np.argmin(np.abs(xs - sample.pose.x_mm)))
            iy = int(np.argmin(np.abs(ys - sample.pose.y_mm)))
            assert mask[iy, ix]

    def test_s_path_extent_matches_scale(self):
        path = generate_path("S", S_CENTER, 40.0, 400)
        ys = [s.pose.y_mm for s in path]
        assert max(ys) - min(ys) == pytest.approx(40.0, abs=1e-9)

    def test_unreachable_path_names_first_offender(self):
        with pytest.raises(UnreachableError) as excinfo:
            generate_path("line", (40.0, 260.0), 10.0, 5, config=FIVEBAR)
        assert "sample 0" in str(excinfo.value)

    def test_times_uniform_and_increasing(self):
        path = generate_path("line", (40.0, 120.0), 10.0, 11, duration_s=2.0)
        times = [s.t_s for s in path]
        assert times[0] == 0.0 and times[-1] == 2.0
        assert np.allclose(np.diff(times), 0.2)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            generate_path("helix", (40.0, 120.0), 10.0, 5)


class TestTrackNoiseFree:
    def test_exact_reconstruction(self, assembly, s_path):
        reconstructed, report = track(assembly, s_path)
        assert report.dropped == 0
        assert report.max_error_mm < 1e-6
        assert len(reconstructed) == len(s_path)

    def test_report_invariants(self, assembly, s_path):
        _, report = track(assembly, s_path, NoiseModel("snr_db", 40.0), seed=2)
        assert report.max_error_mm >= report.rms_error_mm >= 0.0
        assert report.n_samples == len(s_path)

    def test_reconstruction_preserves_timestamps(self, assembly, s_path):
        reconstructed, _ = track(assembly, s_path)
        assert [s.t_s for s in reconstructed] == [s.t_s for s in s_path]


class TestTrackNoise:
    def test_same_seed_identical_reports(self, assembly, s_path):
        noise = NoiseModel("snr_db", 45.0)
        _, a = track(assembly, s_path, noise, seed=7)
        _, b = track(assembly, s_path, noise, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self, assembly, s_path):
        noise = NoiseModel("snr_db", 45.0)
        _, a = track(assembly, s_path, noise, seed=7)
        _, b = track(assembly, s_path, noise, seed=8)
        assert a.errors_mm != b.errors_mm

    def test_reparameterization_invariance(self, assembly, s_path):
        noise = NoiseModel("snr_db", 45.0)
        _, a = track(assembly, s_path, noise, seed=3)
        slower = [TrajectorySample(s.t_s * 10.0, s.pose) for s in s_path]
        _, b = track(assembly, slower, noise, seed=3)
        assert a.errors_mm == b.errors_mm

    def test_monotone_degradation_in_expectation(self, assembly):
        path = generate_path("S", S_CENTER, 40.0, 12, config=FIVEBAR)
        means = []
        for snr in (50.0, 44.0):
            rms = [
                track(assembly, path, NoiseModel("snr_db", snr), seed=seed)[1].rms_error_mm
                for seed in range(30)
            ]
            means.append(np.mean(rms))
        assert means[1] >= 0.95 * means[0]

    def test_consistent_with_deviation_map(self, assembly, s_path):
        sigma_deg = 0.04
        snr = snr_db_for_angle_sigma(assembly.calibrations[0], assembly.encoders[0],
                                     sigma_deg)
        grid = GridSpec(25.0, 55.0, 95.0, 145.0, 16, 26)
        dev = deviation_map(assembly.fivebar, sigma_deg, grid, method="jacobian")
        xs, ys = grid.x_axis(), grid.y_axis()
        sigmas = []
        for sample in s_path:
            ix = int(np.argmin(np.abs(xs - sample.pose.x_mm)))
            iy = int(np.argmin(np.abs(ys - sample.pose.y_mm)))
            sigmas.append(dev[iy, ix])
        predicted_max = max(sigmas) * math.sqrt(math.log(len(s_path)))
        _, report = track(assembly, s_path, NoiseModel("snr_db", snr), seed=0)
        assert 0.5 * predicted_max <= report.max_error_mm <= 2.0 * predicted_max


class TestTrackErrors:
    def test_empty_trajectory(self, assembly):
        with pytest.raises(ValueError):
            track(assembly, [])

    def test_nonincreasing_times(self, assembly):
        samples = [
            TrajectorySample(0.0, TerminalPose(40.0, 120.0)),
            TrajectorySample(0.0, TerminalPose(41.0, 120.0)),
        ]
        with pytest.raises(ValueError):
            track(assembly, samples)

    def test_nan_time_rejected(self, assembly):
        samples = [
            TrajectorySample(0.0, TerminalPose(40.0, 120.0)),
            TrajectorySample(math.nan, TerminalPose(41.0, 120.0)),
            TrajectorySample(2.0, TerminalPose(42.0, 120.0)),
        ]
        with pytest.raises(ValueError):
            track(assembly, samples)

    def test_fully_unreachable_rejected(self, assembly):
        samples = [
            TrajectorySample(float(i), TerminalPose(40.0, 300.0 + i)) for i in range(3)
        ]
        with pytest.raises(UnreachableError):
            track(assembly, samples)

    def test_partial_failures_dropped_and_counted(self):
        # narrow encoder range: the path's angle span walks off the sensor
        narrow = TwinAssembly(
            fivebar=FIVEBAR,
            encoders=(JointEncoderModel(arc_gain_mm_per_deg=8.0, offset_mm=0.0),
                      JointEncoderModel(arc_gain_mm_per_deg=8.0, offset_mm=0.0)),
        )
        path = generate_path("line", (40.0, 110.0), 40.0, 15, config=FIVEBAR)
        reconstructed, report = track(narrow, path)
        assert report.dropped > 0
        assert report.n_samples == 15
        assert len(reconstructed) == 15 - report.dropped

    # the largest finite sigma passes the noise model but overflows to
    # infinite intensities once a draw exceeds 1 in magnitude
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_noise_rejected_like_per_sample_chain(self, assembly, s_path):
        noise = NoiseModel("absolute_sigma", sys.float_info.max)
        with pytest.raises(ValueError, match="finite"):
            track_per_sample(assembly, s_path, noise)
        with pytest.raises(ValueError, match="finite"):
            track(assembly, s_path, noise)

    @pytest.mark.parametrize("mode", ["absolute_sigma", "snr_db"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_noise_value_rejected(self, mode, value):
        with pytest.raises(ValueError, match="noise value must be finite"):
            NoiseModel(mode, value)

    def test_unexpected_value_error_propagates(self, assembly, s_path, monkeypatch):
        def broken(*args):
            raise ValueError("programming error")

        monkeypatch.setattr(sensor, "channel_intensities", broken)
        with pytest.raises(ValueError, match="programming error"):
            track(assembly, s_path)


NOISES = {
    "noise_free": None,
    "snr_db": NoiseModel("snr_db", 40.0),
    "absolute_sigma": NoiseModel("absolute_sigma", 2e-5),
}


class TestTrackMatchesPerSampleChain:
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("sensors", ["shared", "distinct"])
    @pytest.mark.parametrize("path", ["s_path", "mixed_path"])
    def test_bit_identical(self, noise, sensors, path, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        samples = request.getfixturevalue(path)
        reconstructed, report = track(twin_, samples, NOISES[noise], seed=11)
        expected, expected_report, _ = track_per_sample(twin_, samples, NOISES[noise], seed=11)
        assert reconstructed == expected
        assert report.to_dict() == expected_report.to_dict()

    @pytest.mark.parametrize("sensors", ["shared", "distinct"])
    def test_every_drop_reason(self, sensors, mixed_path, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        noise = NoiseModel("snr_db", 3.0)  # channels often clamp to zero: no contact
        reconstructed, report = track(twin_, mixed_path, noise, seed=4)
        expected, expected_report, reasons = track_per_sample(twin_, mixed_path, noise, seed=4)
        assert {"UnreachableError", "OutOfSpanError", "NoContactError"} <= set(reasons)
        assert reconstructed == expected
        assert report.to_dict() == expected_report.to_dict()

    def test_below_threshold_force_drops_every_sample(self, assembly, s_path):
        weak = TwinAssembly(fivebar=FIVEBAR, calibrations=assembly.calibrations,
                            indenter_force_n=0.01)
        reconstructed, report = track(weak, s_path)
        _, _, reasons = track_per_sample(weak, s_path)
        assert reasons == {"NoContactError": len(s_path)}
        assert reconstructed == [] and report.dropped == len(s_path)


class TestTrackBatching:
    """One forward-model call per distinct sensor, whatever the path length."""

    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("sensors, calls", [("shared", 1), ("distinct", 2)])
    def test_kernel_calls(self, sensors, calls, n, s_path, monkeypatch, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        counted = []
        kernel = sensor.channel_intensities

        def counting(*args):
            counted.append(args)
            return kernel(*args)

        monkeypatch.setattr(sensor, "channel_intensities", counting)
        track(twin_, s_path[:n], NoiseModel("snr_db", 40.0), seed=3)
        assert len(counted) == calls


class TestAssembly:
    def test_dict_round_trip_tracks_identically(self, assembly, s_path):
        doc = json.loads(json.dumps(assembly.to_dict()))
        again = TwinAssembly.from_dict(doc)
        _, a = track(assembly, s_path, NoiseModel("snr_db", 45.0), seed=4)
        _, b = track(again, s_path, NoiseModel("snr_db", 45.0), seed=4)
        assert a.to_dict() == b.to_dict()

    def test_shared_sensor_document(self):
        doc = {"fivebar": {"d_mm": 80.0, "l_mm": 100.0},
               "sensor": encoder_sensor_config().to_dict()}
        assembly = TwinAssembly.from_dict(doc)
        assert assembly.sensors[0].to_dict() == assembly.sensors[1].to_dict()
        assert assembly.sensors[0] is assembly.sensors[1]

    def test_equal_sensors_become_one_calibrated_once(self):
        config = encoder_sensor_config().to_dict()
        assembly = TwinAssembly.from_dict({"sensors": [config, config]})
        assert assembly.sensors[0] is assembly.sensors[1]
        assert assembly.calibrations[0] is assembly.calibrations[1]

    @pytest.mark.parametrize("field, count", [("sensors", 1), ("encoders", 3),
                                              ("calibrations", 1)])
    def test_one_part_per_joint_required(self, assembly, field, count):
        parts = getattr(assembly, field)
        with pytest.raises(ValueError, match="per joint"):
            TwinAssembly(fivebar=FIVEBAR, **{field: (parts + parts)[:count]})

    def test_snr_helper_hits_angle_target(self, assembly):
        # decoded-angle scatter should land near the requested 1-sigma
        sigma_deg = 0.04
        snr = snr_db_for_angle_sigma(assembly.calibrations[0], assembly.encoders[0],
                                     sigma_deg)
        path = [TrajectorySample(float(i), TerminalPose(40.0, 120.0 + 0.001 * i))
                for i in range(200)]
        _, report = track(assembly, path, NoiseModel("snr_db", snr), seed=6)
        # radial error combines two joints; rms within a loose band of the
        # per-angle target propagated through the local jacobian
        from spectratact import fk_jacobian, inverse_kinematics

        angles = inverse_kinematics(FIVEBAR, TerminalPose(40.0, 120.0))
        jac = fk_jacobian(FIVEBAR, angles)
        predicted_rms = math.radians(sigma_deg) * float(np.sqrt(np.sum(jac * jac)))
        assert report.rms_error_mm == pytest.approx(predicted_rms, rel=0.25)
