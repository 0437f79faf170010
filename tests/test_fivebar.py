import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (
    FiveBarConfig,
    GridSpec,
    JointAngles,
    SingularError,
    TerminalPose,
    UnreachableError,
    deviation_map,
    elbow_separation_ratio,
    fk_jacobian,
    forward_kinematics,
    inverse_kinematics,
    working_branch,
    workspace_mask,
)
from spectratact.fivebar import reachable

CONFIG = FiveBarConfig(d_mm=80.0, l_mm=100.0)


def ik_oracle(d, l, x, y):
    """Direct evaluation of the joint-angle formulas, kept independent."""
    t1 = math.pi / 2 - math.atan2(y, x) - math.acos(math.hypot(x, y) / (2 * l))
    t2 = math.pi / 2 - math.atan2(y, d - x) - math.acos(math.hypot(d - x, y) / (2 * l))
    return t1, t2


def upper_mode_oracle(d, l, x, y, margin=0.0):
    """Independent check that a pose sits above its own elbow chord.

    The angle formulas are two-to-one (terminal above or below the chord
    reads the same angles); only the upper assembly mode is invertible.
    """
    t1, t2 = ik_oracle(d, l, x, y)
    elbow_mid_y = 0.5 * (l * math.cos(t1) + l * math.cos(t2))
    return y > elbow_mid_y + margin


def interior_grid(config, n=50, margin=1e-6):
    """Working-branch poses of an n x n grid over the workspace box."""
    limit = 2.0 * config.l_mm
    d, l = config.d_mm, config.l_mm
    xs = np.linspace(d / 2 - limit, d / 2 + limit, n)
    ys = np.linspace(1.0, limit, n)
    poses = []
    for y in ys:
        for x in xs:
            if reachable(config, float(x), float(y), margin=margin * l) and \
                    upper_mode_oracle(d, l, float(x), float(y), margin=margin * l):
                poses.append(TerminalPose(float(x), float(y)))
    return poses


def fd_jacobian(config, angles, step=1e-6):
    """Central-difference terminal Jacobian from forward kinematics."""
    jac = np.empty((2, 2))
    for i in range(2):
        delta = [0.0, 0.0]
        delta[i] = step
        hi = forward_kinematics(config, JointAngles(angles.theta1_rad + delta[0],
                                                    angles.theta2_rad + delta[1]))
        lo = forward_kinematics(config, JointAngles(angles.theta1_rad - delta[0],
                                                    angles.theta2_rad - delta[1]))
        jac[0, i] = (hi.x_mm - lo.x_mm) / (2 * step)
        jac[1, i] = (hi.y_mm - lo.y_mm) / (2 * step)
    return jac


def monte_carlo_reference(config, sigma_deg, grid, seed, n_trials):
    """Cell-by-cell Monte Carlo deviation map from the scalar kinematics, same substreams."""
    sigma_rad = math.radians(sigma_deg)
    out = np.full((grid.ny, grid.nx), np.nan)
    streams = np.random.SeedSequence(seed).spawn(grid.ny * grid.nx)
    for iy, y in enumerate(grid.y_axis()):
        for ix, x in enumerate(grid.x_axis()):
            pose = TerminalPose(float(x), float(y))
            if not reachable(config, pose.x_mm, pose.y_mm, margin=1e-9 * config.l_mm):
                continue
            if not working_branch(config, pose):
                continue
            try:
                angles = inverse_kinematics(config, pose)
                base = forward_kinematics(config, angles)
            except (UnreachableError, SingularError):
                continue
            rng = np.random.default_rng(streams[iy * grid.nx + ix])
            noise = rng.standard_normal((n_trials, 2)) * sigma_rad
            px, py = [], []
            for d1, d2 in noise:
                try:
                    p = forward_kinematics(config, JointAngles(angles.theta1_rad + d1,
                                                               angles.theta2_rad + d2))
                except (UnreachableError, SingularError):
                    continue
                px.append(p.x_mm)
                py.append(p.y_mm)
            if len(px) < n_trials / 2:
                continue
            dev2 = (np.array(px) - base.x_mm) ** 2 + (np.array(py) - base.y_mm) ** 2
            out[iy, ix] = float(np.sqrt(dev2.mean()))
    return out


class TestInverseKinematics:
    def test_symmetry_line_gives_equal_angles(self):
        angles = inverse_kinematics(CONFIG, TerminalPose(40.0, 120.0))
        assert angles.theta1_rad == angles.theta2_rad

    def test_fully_extended_pose(self):
        # distance to each base joint is exactly 2l: the acos terms vanish
        y = math.sqrt((2 * CONFIG.l_mm) ** 2 - 40.0**2)
        angles = inverse_kinematics(CONFIG, TerminalPose(40.0, y))
        expected = math.pi / 2 - math.atan2(y, 40.0)
        assert angles.theta1_rad == pytest.approx(expected, abs=1e-12)
        assert angles.theta2_rad == pytest.approx(expected, abs=1e-12)

    def test_direct_formula_oracle(self):
        pose = TerminalPose(40.0, math.sqrt(38400.0))
        angles = inverse_kinematics(CONFIG, pose)
        t1, t2 = ik_oracle(CONFIG.d_mm, CONFIG.l_mm, pose.x_mm, pose.y_mm)
        assert angles.theta1_rad == pytest.approx(t1, abs=1e-12)
        assert angles.theta2_rad == pytest.approx(t2, abs=1e-12)

    def test_unreachable_pose(self):
        with pytest.raises(UnreachableError):
            inverse_kinematics(CONFIG, TerminalPose(0.0, 201.0))

    def test_lower_half_plane_rejected(self):
        with pytest.raises(UnreachableError):
            inverse_kinematics(CONFIG, TerminalPose(40.0, -10.0))

    def test_base_joint_is_unreachable(self):
        # y <= 0 is refused first, so a base joint (y = 0) never reaches the distance test
        with pytest.raises(UnreachableError):
            inverse_kinematics(CONFIG, TerminalPose(0.0, 0.0))


class TestForwardKinematics:
    def test_equal_angles_land_on_symmetry_line(self):
        pose = forward_kinematics(CONFIG, JointAngles(-0.4, -0.4))
        assert pose.x_mm == pytest.approx(CONFIG.d_mm / 2, abs=1e-12)

    def test_tangent_circles_meet_at_midpoint(self):
        # elbows exactly 2l apart: terminal at the chord midpoint
        theta = math.asin((CONFIG.d_mm - 2 * CONFIG.l_mm) / (2 * CONFIG.l_mm))
        pose = forward_kinematics(CONFIG, JointAngles(theta, theta))
        elbow_y = CONFIG.l_mm * math.cos(theta)
        assert pose.x_mm == pytest.approx(CONFIG.d_mm / 2, abs=1e-9)
        assert pose.y_mm == pytest.approx(elbow_y, abs=1e-9)

    def test_coincident_elbows_singular(self):
        theta = math.asin(CONFIG.d_mm / (2 * CONFIG.l_mm))
        with pytest.raises(SingularError):
            forward_kinematics(CONFIG, JointAngles(theta, theta))

    def test_no_intersection_unreachable(self):
        with pytest.raises(UnreachableError):
            forward_kinematics(CONFIG, JointAngles(-1.2, -1.2))


class TestJacobian:
    @settings(max_examples=80, deadline=None)
    @given(
        x=stn.floats(-100.0, 180.0),
        y=stn.floats(5.0, 195.0),
    )
    def test_matches_central_differences(self, x, y):
        pose = TerminalPose(x, y)
        if not reachable(CONFIG, x, y, margin=1e-3 * CONFIG.l_mm):
            return
        if not working_branch(CONFIG, pose) or elbow_separation_ratio(CONFIG, pose) > 0.99:
            return
        angles = inverse_kinematics(CONFIG, pose)
        jac = fk_jacobian(CONFIG, angles)
        oracle = fd_jacobian(CONFIG, angles)
        assert np.abs(jac - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_elbows_beyond_reach_unreachable(self):
        # elbows 2l * 1.1 apart: the distal circles never meet
        with pytest.raises(UnreachableError):
            fk_jacobian(CONFIG, JointAngles(-1.2, -1.2))

    def test_fold_is_singular(self):
        # elbows exactly 2l apart: passive links colinear, det A = 0
        theta = math.asin((CONFIG.d_mm - 2 * CONFIG.l_mm) / (2 * CONFIG.l_mm))
        with pytest.raises(SingularError):
            fk_jacobian(CONFIG, JointAngles(theta, theta))


class TestRoundTrips:
    def test_fk_of_ik_over_interior_grid(self):
        worst = 0.0
        for pose in interior_grid(CONFIG, n=50):
            angles = inverse_kinematics(CONFIG, pose)
            back = forward_kinematics(CONFIG, angles)
            worst = max(worst, abs(back.x_mm - pose.x_mm), abs(back.y_mm - pose.y_mm))
        assert worst < 1e-9 * CONFIG.l_mm

    def test_ik_of_fk_over_interior_grid(self):
        worst = 0.0
        for pose in interior_grid(CONFIG, n=50):
            angles = inverse_kinematics(CONFIG, pose)
            again = inverse_kinematics(CONFIG, forward_kinematics(CONFIG, angles))
            worst = max(
                worst,
                abs(again.theta1_rad - angles.theta1_rad),
                abs(again.theta2_rad - angles.theta2_rad),
            )
        assert worst < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        x=stn.floats(-100.0, 180.0),
        y=stn.floats(5.0, 195.0),
    )
    def test_round_trip_property(self, x, y):
        if not reachable(CONFIG, x, y, margin=1e-3 * CONFIG.l_mm):
            return
        if not upper_mode_oracle(CONFIG.d_mm, CONFIG.l_mm, x, y, margin=1e-3 * CONFIG.l_mm):
            return
        pose = TerminalPose(x, y)
        angles = inverse_kinematics(CONFIG, pose)
        back = forward_kinematics(CONFIG, angles)
        assert back.x_mm == pytest.approx(x, abs=1e-9 * CONFIG.l_mm)
        assert back.y_mm == pytest.approx(y, abs=1e-9 * CONFIG.l_mm)

    def test_mirror_symmetry_swaps_angles_exactly(self):
        # dyadic coordinates keep the reflection d - x itself exact, so
        # the swapped angles must agree bit for bit
        for x in np.arange(-80.0, 160.5, 2.5):
            for y in np.arange(20.0, 180.5, 10.0):
                if not reachable(CONFIG, float(x), float(y), margin=1.0):
                    continue
                pose = TerminalPose(float(x), float(y))
                mirrored = TerminalPose(CONFIG.d_mm - pose.x_mm, pose.y_mm)
                a = inverse_kinematics(CONFIG, pose)
                b = inverse_kinematics(CONFIG, mirrored)
                assert (a.theta1_rad, a.theta2_rad) == (b.theta2_rad, b.theta1_rad)


class TestWorkspaceMask:
    GRID = GridSpec(-130.0, 210.0, 0.5, 210.0, 35, 24)

    def test_point_near_baseline_reachable(self):
        assert reachable(CONFIG, CONFIG.d_mm / 2, 1e-3)

    def test_point_beyond_reach_masked_out(self):
        mask = workspace_mask(CONFIG, self.GRID)
        xs, ys = self.GRID.x_axis(), self.GRID.y_axis()
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                if mask[iy, ix]:
                    assert math.hypot(x, y) < 2 * CONFIG.l_mm
                    assert math.hypot(CONFIG.d_mm - x, y) < 2 * CONFIG.l_mm

    def test_mask_symmetric_about_centerline(self):
        # grid chosen symmetric about x = d/2 = 40
        grid = GridSpec(40.0 - 150.0, 40.0 + 150.0, 1.0, 200.0, 31, 21)
        mask = workspace_mask(CONFIG, grid)
        assert np.array_equal(mask, mask[:, ::-1])


class TestDeviationMap:
    GRID = GridSpec(0.0, 80.0, 60.0, 150.0, 9, 10)

    def test_zero_sigma_gives_zero_everywhere(self):
        out = deviation_map(CONFIG, 0.0, self.GRID, method="jacobian")
        finite = out[np.isfinite(out)]
        assert finite.size > 0 and np.all(finite == 0.0)
        out_mc = deviation_map(CONFIG, 0.0, self.GRID, method="monte_carlo", n_trials=50)
        finite = out_mc[np.isfinite(out_mc)]
        assert np.all(finite == 0.0)

    def test_linear_scaling_in_sigma(self):
        a = deviation_map(CONFIG, 0.02, self.GRID, method="jacobian")
        b = deviation_map(CONFIG, 0.04, self.GRID, method="jacobian")
        finite = np.isfinite(a)
        assert np.allclose(b[finite], 2.0 * a[finite], rtol=1e-6)

    def test_monte_carlo_matches_jacobian_where_well_conditioned(self):
        jac = deviation_map(CONFIG, 0.04, self.GRID, method="jacobian")
        mc = deviation_map(CONFIG, 0.04, self.GRID, seed=3, method="monte_carlo",
                           n_trials=4000)
        xs, ys = self.GRID.x_axis(), self.GRID.y_axis()
        checked = 0
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                if not (np.isfinite(jac[iy, ix]) and np.isfinite(mc[iy, ix])):
                    continue
                if elbow_separation_ratio(CONFIG, TerminalPose(float(x), float(y))) > 0.9:
                    continue
                assert mc[iy, ix] == pytest.approx(jac[iy, ix], rel=0.10)
                checked += 1
        assert checked >= 20

    def test_max_location_against_monte_carlo_oracle(self):
        # restricted to a well-conditioned box so the maximum is stable
        box = GridSpec(25.0, 55.0, 95.0, 145.0, 7, 11)
        jac = deviation_map(CONFIG, 0.04, box, method="jacobian")
        oracle = deviation_map(CONFIG, 0.04, box, seed=5, method="monte_carlo",
                               n_trials=10000)
        assert np.unravel_index(np.nanargmax(jac), jac.shape) == \
            np.unravel_index(np.nanargmax(oracle), oracle.shape)
        assert np.nanmax(oracle) == pytest.approx(np.nanmax(jac), rel=0.05)

    def test_unreachable_cells_flagged_not_raised(self):
        grid = GridSpec(-300.0, -210.0, 1.0, 50.0, 4, 4)
        out = deviation_map(CONFIG, 0.04, grid, method="jacobian")
        assert np.all(np.isnan(out))

    def test_monte_carlo_deterministic_under_seed(self):
        grid = GridSpec(20.0, 60.0, 90.0, 130.0, 4, 4)
        a = deviation_map(CONFIG, 0.04, grid, seed=9, method="monte_carlo", n_trials=200)
        b = deviation_map(CONFIG, 0.04, grid, seed=9, method="monte_carlo", n_trials=200)
        assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, -0.01])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="angle_sigma_deg"):
            deviation_map(CONFIG, sigma, self.GRID)

    @pytest.mark.parametrize("n_trials", [0, -5, 300.0, 2.5, True])
    def test_rejects_bad_trial_count(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            deviation_map(CONFIG, 0.04, self.GRID, method="monte_carlo", n_trials=n_trials)

    def test_finite_cells_are_reachable_working_branch_cells(self):
        # the benchmark's box: a third of it is unreachable or lower-mode
        grid = GridSpec(-60.0, 140.0, 1.0, 200.0, 41, 37)
        out = deviation_map(CONFIG, 0.02, grid, method="jacobian")
        margin = 1e-9 * CONFIG.l_mm
        checked = 0
        for iy, y in enumerate(grid.y_axis()):
            for ix, x in enumerate(grid.x_axis()):
                pose = TerminalPose(float(x), float(y))
                expected = reachable(CONFIG, pose.x_mm, pose.y_mm, margin=margin) and \
                    working_branch(CONFIG, pose)
                if expected and elbow_separation_ratio(CONFIG, pose) >= 1.0 - 1e-5:
                    continue
                assert np.isfinite(out[iy, ix]) == expected
                assert not expected or out[iy, ix] > 0
                checked += expected
        assert checked > 0.5 * grid.nx * grid.ny

    # The 62 kept cells split into chunks of MC_CHUNK_POSES // n_trials
    # cells; 400 and 500 trials leave a partial last chunk.  At 25 deg
    # some trials fall past reach, and a few cells near the workspace edge
    # fall below the half-valid threshold.
    @pytest.mark.parametrize("n_trials, sigma_deg",
                             [(50, 25.0), (400, 3.0), (500, 25.0), (3000, 3.0)])
    def test_monte_carlo_matches_per_cell_reference(self, n_trials, sigma_deg):
        grid = GridSpec(-60.0, 140.0, 1.0, 200.0, 11, 9)
        out = deviation_map(CONFIG, sigma_deg, grid, seed=4, method="monte_carlo",
                            n_trials=n_trials)
        ref = monte_carlo_reference(CONFIG, sigma_deg, grid, seed=4, n_trials=n_trials)
        kept = np.isfinite(deviation_map(CONFIG, sigma_deg, grid, method="jacobian"))
        assert np.array_equal(np.isfinite(out), np.isfinite(ref))
        assert np.isfinite(ref).sum() > 20
        assert np.isnan(ref[kept]).any() == (sigma_deg > 10)
        assert np.allclose(out, ref, rtol=1e-9, atol=0.0, equal_nan=True)


class TestWorkingBranch:
    def test_two_to_one_fold(self):
        # both circle intersections read the same joint angles; only the
        # upper one is recovered by forward kinematics
        from spectratact import working_branch

        upper = TerminalPose(40.0, 120.0)
        angles = inverse_kinematics(CONFIG, upper)
        lower = TerminalPose(40.0, 48.98979485566356)
        twin_angles = inverse_kinematics(CONFIG, lower)
        assert angles.theta1_rad == pytest.approx(twin_angles.theta1_rad, abs=1e-9)
        assert working_branch(CONFIG, upper)
        assert not working_branch(CONFIG, lower)
        back = forward_kinematics(CONFIG, twin_angles)
        assert back.y_mm == pytest.approx(upper.y_mm, abs=1e-6)

    @pytest.mark.parametrize("x", [120.0, CONFIG.d_mm - 120.0])
    def test_false_at_exactly_full_extension(self, x):
        # (120, 160) is exactly 2l from joint 1, (-40, 160) from joint 2
        assert not reachable(CONFIG, x, 160.0)
        assert not working_branch(CONFIG, TerminalPose(x, 160.0))

    def test_matches_independent_oracle_on_grid(self):
        from spectratact import working_branch

        for y in (20.0, 60.0, 90.0, 150.0):
            for x in (-40.0, 0.0, 40.0, 120.0):
                if not reachable(CONFIG, x, y, margin=1.0):
                    continue
                expected = upper_mode_oracle(CONFIG.d_mm, CONFIG.l_mm, x, y)
                assert working_branch(CONFIG, TerminalPose(x, y)) == expected


class TestConfigValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            FiveBarConfig(d_mm=0.0, l_mm=100.0)
        with pytest.raises(ValueError):
            FiveBarConfig(d_mm=80.0, l_mm=0.0)
        with pytest.raises(ValueError):
            FiveBarConfig(d_mm=500.0, l_mm=100.0)

    def test_angles_must_be_finite(self):
        with pytest.raises(ValueError):
            JointAngles(math.nan, 0.0)
