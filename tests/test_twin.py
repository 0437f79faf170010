import json
import math
import sys
from collections import Counter
from dataclasses import replace

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
    working_branch,
    workspace_mask,
)
from spectratact import cli, sensor, twin
from spectratact.decoder import JointEncoderModel, decode_joint_angle
from spectratact.errors import KinematicError, NoContactError, OutOfSpanError, UnusableSampleError
from spectratact.fivebar import JointAngles, _ik_batch, forward_kinematics, inverse_kinematics
from spectratact.sensor import Stimulus, simulate_reading, substream
from spectratact.twin import (TrackingReport, TrajectorySample, TwinAssembly, calibrate_encoder,
                              encoder_sensor_config)

FIVEBAR = FiveBarConfig(d_mm=80.0, l_mm=100.0)
S_CENTER = (40.0, 120.0)


@pytest.fixture(scope="module")
def assembly():
    return TwinAssembly(fivebar=FIVEBAR)


@pytest.fixture(scope="module")
def distinct():
    """Joint 2 on a shorter, denser-dyed sensor: two sensor configs, two kernel calls."""
    sensor = encoder_sensor_config()
    denser = replace(sensor.dye, concentration_scale=1.5)
    return TwinAssembly(fivebar=FIVEBAR, sensors=(
        sensor, replace(sensor, length_mm=60.0, dye=denser)))


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
        rms_error_mm=float(np.sqrt(np.mean(np.square(errors)))) if errors else None,
        max_error_mm=float(np.max(errors)) if errors else None,
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

    @pytest.mark.parametrize("shape, center, scale", [
        ("line", (40.0, 120.0), 60.0),
        ("line", (40.0, 180.0), 80.0),
        ("line", (-60.0, 100.0), 120.0),
        ("line", (40.0, 40.0), 200.0),
        ("circle", (40.0, 120.0), 40.0),
        ("circle", (40.0, 150.0), 120.0),
        ("circle", (100.0, 80.0), 150.0),
        ("S", (40.0, 120.0), 40.0),
        ("S", (40.0, 90.0), 160.0),
        ("S", (-40.0, 140.0), 100.0),
    ])
    def test_first_offender_matches_per_sample_loop(self, shape, center, scale):
        path = generate_path(shape, center, scale, 97)
        offenders = [i for i, s in enumerate(path) if not working_branch(FIVEBAR, s.pose)]
        if not offenders:
            assert generate_path(shape, center, scale, 97, config=FIVEBAR) == path
            return
        pose = path[offenders[0]].pose
        with pytest.raises(UnreachableError) as excinfo:
            generate_path(shape, center, scale, 97, config=FIVEBAR)
        assert str(excinfo.value) == (f"generated sample {offenders[0]} at ({pose.x_mm:g}, "
                                      f"{pose.y_mm:g}) mm is not reachable on the working branch")

    def test_one_ik_call_per_path(self, monkeypatch):
        calls = []

        def counted(config, x, y):
            calls.append(np.shape(x))
            return _ik_batch(config, x, y)

        monkeypatch.setattr(twin, "_ik_batch", counted)
        generate_path("S", S_CENTER, 40.0, 200, config=FIVEBAR)
        assert calls == [(200,)]

    def test_times_uniform_and_increasing(self):
        path = generate_path("line", (40.0, 120.0), 10.0, 11)
        times = [s.t_s for s in path]
        assert times[0] == 0.0 and times[-1] == 1.0
        assert np.allclose(np.diff(times), 0.1)

    @pytest.mark.parametrize("center, scale", [
        ((math.nan, 120.0), 10.0), ((40.0, math.inf), 10.0), ((40.0, 120.0), math.inf),
    ])
    def test_non_finite_input_rejected(self, center, scale):
        with pytest.raises(ValueError, match="must be finite"):
            generate_path("line", center, scale, 5, config=FIVEBAR)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            generate_path("helix", (40.0, 120.0), 10.0, 5)

    @pytest.mark.parametrize("shape", ["line", "circle", "S"])
    def test_is_its_rows_wrapped(self, shape):
        rows = twin._path_rows(shape, S_CENTER, 40.0, 33, FIVEBAR)
        assert all(type(value) is float for row in rows for value in row)
        assert generate_path(shape, S_CENTER, 40.0, 33, config=FIVEBAR) == [
            TrajectorySample(t, TerminalPose(x, y)) for t, x, y in rows]


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
        with pytest.raises(ValueError, match="sample 1 "):
            track(assembly, samples)
        with pytest.raises(ValueError, match="sample 0 "):
            track(assembly, samples[1:2])

    # a NaN is neither reachable nor unreachable: it must not reach the IK
    @pytest.mark.parametrize("x, y", [(math.nan, 120.0), (41.0, math.nan),
                                      (math.inf, math.nan), (math.nan, -5.0)])
    def test_nan_coordinate_rejected_naming_the_sample(self, assembly, x, y):
        samples = [TrajectorySample(0.0, TerminalPose(40.0, 120.0)),
                   TrajectorySample(1.0, TerminalPose(x, y)),
                   TrajectorySample(2.0, TerminalPose(42.0, 120.0))]
        with pytest.raises(ValueError, match="sample 1 "):
            track(assembly, samples)

    @pytest.mark.parametrize("x, y", [(math.inf, 120.0), (-math.inf, 120.0),
                                      (41.0, math.inf), (41.0, -math.inf)])
    def test_infinite_coordinate_dropped_as_unreachable(self, assembly, x, y):
        samples = [TrajectorySample(0.0, TerminalPose(40.0, 120.0)),
                   TrajectorySample(1.0, TerminalPose(x, y)),
                   TrajectorySample(2.0, TerminalPose(42.0, 120.0))]
        reconstructed, report = track(assembly, samples)
        assert report.dropped == 1
        assert [s.t_s for s in reconstructed] == [0.0, 2.0]

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

        monkeypatch.setattr(sensor, "grid_intensities", broken)
        with pytest.raises(ValueError, match="programming error"):
            track(assembly, s_path)


NOISES = {
    "noise_free": None,
    "snr_db": NoiseModel("snr_db", 40.0),
    "absolute_sigma": NoiseModel("absolute_sigma", 2e-5),
}


class TestTrackMatchesPerSampleChain:
    # the first 1, 11 and 12 samples of the S path are 2, 22 and 24 rows on a
    # shared sensor: both sides of sensor.SUBSTREAM_BATCH_MIN
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("sensors", ["shared", "distinct"])
    @pytest.mark.parametrize("path", ["s_path", "mixed_path", 1, 11, 12])
    def test_bit_identical(self, noise, sensors, path, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        samples = request.getfixturevalue(path) if isinstance(path, str) \
            else request.getfixturevalue("s_path")[:path]
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

    def test_every_sample_dropped_reports_null_metrics(self, s_path):
        # an encoder offset that puts every press past the 85 mm span
        off_span = TwinAssembly(fivebar=FIVEBAR, encoders=(JointEncoderModel(offset_mm=200.0),
                                                           JointEncoderModel()))
        reconstructed, report = track(off_span, s_path)
        _, expected_report, reasons = track_per_sample(off_span, s_path)
        assert reasons == {"OutOfSpanError": len(s_path)}
        assert reconstructed == [] and report.dropped == len(s_path)
        # no error was measured, so none reads 0.0; null survives the JSON round trip
        doc = report.to_dict()
        assert (doc["rms_error_mm"], doc["max_error_mm"]) == (None, None)
        assert doc == expected_report.to_dict()
        assert TrackingReport.from_dict(json.loads(json.dumps(doc))).to_dict() == doc


class TestTrackBatching:
    """One forward-model call per distinct sensor, whatever the path length."""

    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("sensors, calls", [("shared", 1), ("distinct", 2)])
    def test_kernel_calls(self, sensors, calls, n, s_path, monkeypatch, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        counted = []
        kernel = sensor.grid_intensities

        def counting(*args):
            counted.append(args)
            return kernel(*args)

        monkeypatch.setattr(sensor, "grid_intensities", counting)
        track(twin_, s_path[:n], NoiseModel("snr_db", 40.0), seed=3)
        assert len(counted) == calls

    @pytest.mark.parametrize("run, calls", [
        ("shared", [2.0]), ("distinct", [2.0, 2.0]),  # track: one indenter force per sensor
        # sweep: one call per forces-axis entry, a repeated entry too
        ((0.5, 2.0, 8.0), [0.5, 2.0, 8.0]), ((2.0, 0.5, 2.0), [2.0, 0.5, 2.0]),
    ], ids=["track_shared", "track_distinct", "sweep", "sweep_repeated_force"])
    def test_coupled_fraction_once_per_force(self, run, calls, s_path, monkeypatch, request):
        counted = []
        law = sensor.coupled_fraction

        def counting(coupling, force_n):
            counted.append(force_n)
            return law(coupling, force_n)

        monkeypatch.setattr(sensor, "coupled_fraction", counting)
        noise = NoiseModel("snr_db", 40.0)
        if isinstance(run, str):
            twin_ = request.getfixturevalue("assembly" if run == "shared" else "distinct")
            track(twin_, s_path, noise, seed=3)
        else:
            sensor.sweep(encoder_sensor_config(), [10.0, 40.0, 70.0, 80.0], run, noise, seed=1)
        assert counted == calls

    def test_sweep_filters_each_position_entry_once(self, monkeypatch):
        """``sweep`` hands the forward model its positions axis, not one position per row."""
        counted = []
        filtered = sensor._filtered

        def counting(config, positions_mm):
            counted.append(np.asarray(positions_mm).tolist())
            return filtered(config, positions_mm)

        monkeypatch.setattr(sensor, "_filtered", counting)
        positions = [10.0, 40.0, 40.0, 0.0, -0.0]
        xs, _, values = sensor.sweep(encoder_sensor_config(), positions, (0.5, 2.0, 8.0),
                                     NoiseModel("snr_db", 40.0), seed=1)
        assert counted == [positions]
        assert len(xs) == len(values) == 15


def samples_csv(samples) -> str:
    """A trajectory CSV holding the ``repr`` of each sample's fields."""
    return "t_s,x_mm,y_mm\n" + "".join(
        f"{s.t_s!r},{s.pose.x_mm!r},{s.pose.y_mm!r}\n" for s in samples)


class TestCliTrackRows:
    """CLI ``track`` replays plain rows and writes what the public ``track`` returns."""

    @staticmethod
    def cli_track(tmp_path, name, assembly, argv):
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps(assembly.to_dict()))
        assert cli.main(["track", "--config", str(config), "--out", str(out), "--seed", "4",
                         *argv]) == 0
        return {f: (out / f).read_bytes() for f in ("reconstructed.csv", "report.json")}

    @pytest.mark.parametrize("noise", [[], ["--snr-db", "40"]])
    def test_csv_of_a_generated_path_writes_the_generate_bytes(self, assembly, s_path, noise,
                                                               tmp_path):
        trajectory = tmp_path / "s_path.csv"
        trajectory.write_text(samples_csv(s_path))
        generated = self.cli_track(tmp_path, "gen", assembly, ["--generate", "S:40:40:120:60"]
                                   + noise)
        assert self.cli_track(tmp_path, "csv", assembly,
                              ["--trajectory", str(trajectory)] + noise) == generated

    def test_drops_write_what_track_returns(self, distinct, mixed_path, tmp_path):
        noise = NoiseModel("snr_db", 3.0, 4)  # as CLI track --snr-db 3 --seed 4 builds it
        _, _, reasons = track_per_sample(distinct, mixed_path, noise, seed=4)
        assert {"UnreachableError", "OutOfSpanError", "NoContactError"} <= set(reasons)
        reconstructed, report = track(distinct, mixed_path, noise, seed=4)
        trajectory = tmp_path / "mixed.csv"
        trajectory.write_text(samples_csv(mixed_path))
        written = self.cli_track(tmp_path, "csv", distinct,
                                 ["--trajectory", str(trajectory), "--snr-db", "3"])
        assert written == {
            "reconstructed.csv": samples_csv(reconstructed).encode(),
            "report.json": (json.dumps(report.to_dict(), sort_keys=True, indent=2)
                            + "\n").encode()}


# seed of a stream's first call; call i uses STREAM_SEED + i, as a real-time loop does
STREAM_SEED = 1000


class TestOneSampleStream:
    """``track`` on one sample at a time: the real-time hot path."""

    @pytest.fixture(scope="class")
    def long_s_path(self):
        return generate_path("S", S_CENTER, 40.0, 200, config=FIVEBAR)

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("sensors", ["shared", "distinct"])
    def test_every_call_matches_per_sample_chain(self, noise, sensors, long_s_path, request):
        twin_ = request.getfixturevalue("assembly" if sensors == "shared" else "distinct")
        for i, sample in enumerate(long_s_path):
            reconstructed, report = track(twin_, [sample], NOISES[noise], seed=STREAM_SEED + i)
            expected, expected_report, _ = track_per_sample(
                twin_, [sample], NOISES[noise], seed=STREAM_SEED + i)
            assert reconstructed == expected
            assert report.to_dict() == expected_report.to_dict()

    # 8 and 128 are block sizes of numpy's pairwise sum
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 300])
    def test_rms_is_numpy_mean_rms(self, assembly, n):
        path = generate_path("S", S_CENTER, 40.0, 300, config=FIVEBAR)[:n]
        _, report = track(assembly, path, NoiseModel("snr_db", 40.0), seed=5)
        assert len(report.errors_mm) == n
        assert report.rms_error_mm == float(np.sqrt(np.mean(np.square(report.errors_mm))))

    def _counting(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_one_sample_call_counts(self, assembly, s_path, monkeypatch):
        """Exact counts, so new per-call work fails here rather than hiding in timing noise."""
        keys = self._counting(monkeypatch, sensor, "substream")
        readings = self._counting(monkeypatch, twin, "_readings")
        fractions = self._counting(monkeypatch, sensor, "coupled_fraction")
        track(assembly, s_path[:1], NoiseModel("snr_db", 40.0), seed=3)
        assert (len(keys), len(readings), len(fractions)) == (2, 1, 1)

    def test_long_track_builds_no_key_alone(self, assembly, monkeypatch):
        keys = self._counting(monkeypatch, sensor, "substream")
        path = generate_path("circle", (40.0, 125.0), 40.0, 1000, config=FIVEBAR)
        _, report = track(assembly, path, NoiseModel("snr_db", 40.0), seed=3)
        assert report.dropped == 0 and keys == []


class TestAssembly:
    def test_dict_round_trip_tracks_identically(self, assembly, distinct, s_path):
        # the calibrations are fitted from the document, so they come back bit for bit
        noise = NoiseModel("snr_db", 45.0)
        for twin_ in (assembly, distinct):
            again = TwinAssembly.from_dict(json.loads(json.dumps(twin_.to_dict())))
            assert [json.dumps(cal.to_dict()) for cal in again.calibrations] == \
                [json.dumps(cal.to_dict()) for cal in twin_.calibrations]
            assert track(again, s_path, noise, seed=4) == track(twin_, s_path, noise, seed=4)

    def test_replace_fits_the_calibrations_again(self, assembly):
        lighter = replace(assembly, indenter_force_n=1.0)
        assert lighter.calibrations[0] is lighter.calibrations[1]
        assert lighter.calibrations[0] is not assembly.calibrations[0]
        assert lighter.calibrations[0].to_dict() == \
            calibrate_encoder(assembly.sensors[0], 1.0).to_dict()
        with pytest.raises(UnusableSampleError):  # below the contact threshold: no light to fit
            replace(assembly, indenter_force_n=0.01)

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

    @pytest.mark.parametrize("field, count", [("sensors", 1), ("encoders", 3)])
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
