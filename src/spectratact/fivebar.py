"""Planar five-bar (2-DOF) parallel mechanism kinematics.

Joint 1 sits at the origin, Joint 2 at (d, 0); all four moving links
share length l.  Joint angles are measured from the +y vertical, turning
toward +x, so a proximal link at angle theta points along
(sin theta, cos theta).  The terminal works in the upper half-plane on
the elbow-up branch (circle intersection with the larger y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularError, UnreachableError

REACH_REL_TOL = 1e-9


@dataclass(frozen=True)
class FiveBarConfig:
    """Linkage geometry: base joint separation d and common bar length l."""

    d_mm: float = 80.0
    l_mm: float = 100.0

    def __post_init__(self):
        if not self.d_mm > 0:
            raise ValueError("d_mm must be > 0")
        if not self.l_mm > 0:
            raise ValueError("l_mm must be > 0")
        if not self.d_mm < 4 * self.l_mm:
            raise ValueError("need d < 4l for a nonempty workspace")

    def to_dict(self) -> dict:
        return {"d_mm": self.d_mm, "l_mm": self.l_mm}

    @classmethod
    def from_dict(cls, doc: dict) -> "FiveBarConfig":
        return cls(float(doc.get("d_mm", 80.0)), float(doc.get("l_mm", 100.0)))


@dataclass(frozen=True)
class JointAngles:
    theta1_rad: float
    theta2_rad: float

    def __post_init__(self):
        if not (math.isfinite(self.theta1_rad) and math.isfinite(self.theta2_rad)):
            raise ValueError("joint angles must be finite")


@dataclass(frozen=True)
class TerminalPose:
    x_mm: float
    y_mm: float


def inverse_kinematics(config: FiveBarConfig, pose: TerminalPose) -> JointAngles:
    """Joint angles reaching a terminal pose on the working branch.

    theta_i = pi/2 - atan2(y, xi) - acos(ri / 2l) with x1 = x, x2 = d - x;
    acos arguments within REACH_REL_TOL of 1 are clamped, beyond that the
    pose is unreachable.
    """
    x, y, d, l = pose.x_mm, pose.y_mm, config.d_mm, config.l_mm
    if y <= 0:
        raise UnreachableError(f"pose y={y} mm outside the working half-plane (y > 0)")
    r1 = math.hypot(x, y)
    r2 = math.hypot(d - x, y)
    if r1 == 0 or r2 == 0:
        raise SingularError("pose coincides with a base joint")
    angles = []
    for r, xi in ((r1, x), (r2, d - x)):
        ratio = r / (2.0 * l)
        if ratio > 1.0 + REACH_REL_TOL:
            raise UnreachableError(
                f"pose ({x:g}, {y:g}) mm beyond reach: distance {r:g} > 2l = {2 * l:g}"
            )
        angles.append(math.pi / 2 - math.atan2(y, xi) - math.acos(min(ratio, 1.0)))
    return JointAngles(angles[0], angles[1])


def _elbows(config: FiveBarConfig, angles: JointAngles):
    l, d = config.l_mm, config.d_mm
    e1 = (l * math.sin(angles.theta1_rad), l * math.cos(angles.theta1_rad))
    e2 = (d - l * math.sin(angles.theta2_rad), l * math.cos(angles.theta2_rad))
    return e1, e2


def forward_kinematics(config: FiveBarConfig, angles: JointAngles) -> TerminalPose:
    """Terminal pose for joint angles, elbow-up branch.

    Intersects the two circles of radius l around the elbow points and
    keeps the intersection with the larger y.
    """
    l = config.l_mm
    (e1x, e1y), (e2x, e2y) = _elbows(config, angles)
    dx, dy = e2x - e1x, e2y - e1y
    q = math.hypot(dx, dy)
    if q <= REACH_REL_TOL * l:
        raise SingularError("coincident elbows: terminal branch undefined")
    if q > 2.0 * l * (1.0 + REACH_REL_TOL):
        raise UnreachableError(
            f"elbow separation {q:g} mm exceeds 2l = {2 * l:g} mm; no intersection"
        )
    half = 0.5 * q
    h = math.sqrt(max(l * l - half * half, 0.0))
    mx, my = 0.5 * (e1x + e2x), 0.5 * (e1y + e2y)
    # unit normal to the elbow chord; +/- h along it gives the two branches
    nx, ny = -dy / q, dx / q
    cand = ((mx + h * nx, my + h * ny), (mx - h * nx, my - h * ny))
    x, y = max(cand, key=lambda p: p[1])
    return TerminalPose(x, y)


def _fk_batch(config: FiveBarConfig, theta1, theta2):
    """Vectorized elbow-up forward kinematics.

    Returns (x, y, valid); invalid entries (no intersection or coincident
    elbows) carry NaN coordinates.
    """
    l, d = config.l_mm, config.d_mm
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    e1x, e1y = l * np.sin(t1), l * np.cos(t1)
    e2x, e2y = d - l * np.sin(t2), l * np.cos(t2)
    dx, dy = e2x - e1x, e2y - e1y
    q = np.hypot(dx, dy)
    valid = (q > REACH_REL_TOL * l) & (q <= 2.0 * l * (1.0 + REACH_REL_TOL))
    q_safe = np.where(valid, q, 1.0)
    h = np.sqrt(np.maximum(l * l - 0.25 * q_safe * q_safe, 0.0))
    mx, my = 0.5 * (e1x + e2x), 0.5 * (e1y + e2y)
    nx, ny = -dy / q_safe, dx / q_safe
    ya, yb = my + h * ny, my - h * ny
    up = ya >= yb
    x = np.where(up, mx + h * nx, mx - h * nx)
    y = np.where(up, ya, yb)
    x = np.where(valid, x, np.nan)
    y = np.where(valid, y, np.nan)
    return x, y, valid


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid over the working plane."""

    x_min_mm: float
    x_max_mm: float
    y_min_mm: float
    y_max_mm: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_max_mm > self.x_min_mm and self.y_max_mm > self.y_min_mm):
            raise ValueError("grid extents must be nonempty")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min_mm, self.x_max_mm, self.nx)

    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y_min_mm, self.y_max_mm, self.ny)

    def to_dict(self) -> dict:
        return {
            "x_min_mm": self.x_min_mm, "x_max_mm": self.x_max_mm,
            "y_min_mm": self.y_min_mm, "y_max_mm": self.y_max_mm,
            "nx": self.nx, "ny": self.ny,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GridSpec":
        return cls(
            float(doc["x_min_mm"]), float(doc["x_max_mm"]),
            float(doc["y_min_mm"]), float(doc["y_max_mm"]),
            int(doc["nx"]), int(doc["ny"]),
        )


def reachable(config: FiveBarConfig, x_mm: float, y_mm: float, margin: float = 0.0) -> bool:
    """Strict interior reachability of a point in the working half-plane."""
    limit = 2.0 * config.l_mm - margin
    return (
        y_mm > 0
        and math.hypot(x_mm, y_mm) < limit
        and math.hypot(config.d_mm - x_mm, y_mm) < limit
    )


def workspace_mask(config: FiveBarConfig, grid: GridSpec) -> np.ndarray:
    """Boolean [ny, nx] grid: True where the pose is strictly reachable."""
    xs = grid.x_axis()[None, :]
    ys = grid.y_axis()[:, None]
    limit = 2.0 * config.l_mm
    r1 = np.hypot(xs, ys)
    r2 = np.hypot(config.d_mm - xs, ys)
    return (ys > 0) & (r1 < limit) & (r2 < limit)


def elbow_separation_ratio(config: FiveBarConfig, pose: TerminalPose) -> float:
    """Elbow separation over its tangent limit 2l, as a conditioning gauge.

    The forward map degenerates as this approaches 1 (passive links
    colinear); first-order error propagation is trustworthy well below it.
    """
    angles = inverse_kinematics(config, pose)
    (e1x, e1y), (e2x, e2y) = _elbows(config, angles)
    return math.hypot(e2x - e1x, e2y - e1y) / (2.0 * config.l_mm)


def working_branch(config: FiveBarConfig, pose: TerminalPose, margin_mm: float = 0.0) -> bool:
    """True when a pose lies on the elbow-up assembly mode.

    The joint-angle formulas are two-to-one: the passive links can
    assemble with the terminal on either side of the elbow chord, and
    both assemblies read the same encoder angles.  Forward kinematics
    resolves to the upper side, so only poses strictly above the chord
    (equivalently above the elbow midpoint) round-trip; the fold line
    between the modes is the tangent singularity.
    """
    try:
        angles = inverse_kinematics(config, pose)
    except (UnreachableError, SingularError):
        return False
    (e1x, e1y), (e2x, e2y) = _elbows(config, angles)
    return pose.y_mm > 0.5 * (e1y + e2y) + margin_mm


def _loop_closure(config: FiveBarConfig, theta1, theta2, x_mm, y_mm):
    """Velocity loop closure A dP = B dtheta at terminal points P, so J = A^-1 B.

    From |P - E_i|^2 = l^2 (Gosselin & Angeles, IEEE T-RA 6(3), 1990): row
    A_i = (P - E_i)^T, B = diag(b_i) with b_i = (P - E_i) . dE_i/dtheta_i.
    Returns (A_1, A_2, b_1, b_2, det A) elementwise; det A = 0 is the fold.
    """
    l, d = config.l_mm, config.d_mm
    s1, c1, s2, c2 = np.sin(theta1), np.cos(theta1), np.sin(theta2), np.cos(theta2)
    a1 = (x_mm - l * s1, y_mm - l * c1)
    a2 = (x_mm - (d - l * s2), y_mm - l * c2)
    det = a1[0] * a2[1] - a1[1] * a2[0]
    return a1, a2, l * (a1[0] * c1 - a1[1] * s1), -l * (a2[0] * c2 + a2[1] * s2), det


def fk_jacobian(config: FiveBarConfig, angles: JointAngles) -> np.ndarray:
    """Terminal-position Jacobian d(x,y)/d(theta1,theta2), closed form J = A^-1 B.

    Raises as :func:`forward_kinematics` does, and SingularError on the fold.
    """
    pose = forward_kinematics(config, angles)
    a1, a2, b1, b2, det = _loop_closure(config, angles.theta1_rad, angles.theta2_rad,
                                        pose.x_mm, pose.y_mm)
    if det == 0:
        raise SingularError("passive links colinear: terminal Jacobian undefined")
    return np.array([[a2[1] * b1, -a1[1] * b2], [-a2[0] * b1, a1[0] * b2]]) / det


MC_CHUNK_POSES = 2048  # perturbed poses per FK batch (whole cells), bounds temporaries


def deviation_map(
    config: FiveBarConfig,
    angle_sigma_deg: float,
    grid: GridSpec,
    seed: int = 0,
    method: str = "jacobian",
    n_trials: int = 300,
) -> np.ndarray:
    """Per-cell 1-sigma terminal deviation under independent angle noise.

    Jacobian method: sigma * Frobenius norm of the FK Jacobian.  Monte
    Carlo method: RMS radial deviation over ``n_trials`` perturbed angle
    pairs, with a per-cell RNG substream derived from (seed, cell index).
    Unreachable, singular or lower-assembly-mode cells are NaN, never
    raised.
    """
    if not (angle_sigma_deg >= 0 and math.isfinite(angle_sigma_deg)):
        raise ValueError(f"angle_sigma_deg must be finite and >= 0, got {angle_sigma_deg}")
    if not n_trials >= 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if method not in ("jacobian", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    sigma_rad = math.radians(angle_sigma_deg)
    # inverse_kinematics term for term, acos arguments clamped at 1 so that
    # dropped cells stay finite; ``keep`` is the per-cell test of
    # reachable(margin=REACH_REL_TOL * l) and of working_branch
    l, d = config.l_mm, config.d_mm
    x, y = grid.x_axis()[None, :], grid.y_axis()[:, None]
    r1, r2 = np.hypot(x, y), np.hypot(d - x, y)
    t1 = np.pi / 2 - np.arctan2(y, x) - np.arccos(np.minimum(r1 / (2.0 * l), 1.0))
    t2 = np.pi / 2 - np.arctan2(y, d - x) - np.arccos(np.minimum(r2 / (2.0 * l), 1.0))
    limit = 2.0 * l - REACH_REL_TOL * l
    keep = (y > 0) & (r1 < limit) & (r2 < limit) & (y > 0.5 * (l * np.cos(t1) + l * np.cos(t2)))
    out = np.full((grid.ny, grid.nx), np.nan)
    if method == "jacobian":
        # |J|_F = l * hypot(b1, b2) / |det A|: both rows of A have length l
        _, _, b1, b2, det = _loop_closure(config, t1, t2, x, y)
        np.divide(sigma_rad * l * np.hypot(b1, b2), np.abs(det),
                  out=out, where=keep & (det != 0))
        return out

    base_x, base_y, base_ok = (v.ravel() for v in _fk_batch(config, t1, t2))
    t1, t2 = t1.ravel(), t2.ravel()
    cells = np.flatnonzero(keep.ravel() & base_ok)
    streams = np.random.SeedSequence(seed).spawn(grid.ny * grid.nx)
    per_chunk = max(1, MC_CHUNK_POSES // n_trials)
    for start in range(0, cells.size, per_chunk):
        k = cells[start:start + per_chunk]
        noise = np.stack([np.random.default_rng(streams[i]).standard_normal((n_trials, 2))
                          for i in k.tolist()]) * sigma_rad
        px, py, valid = _fk_batch(config, t1[k, None] + noise[..., 0],
                                  t2[k, None] + noise[..., 1])
        dev2 = np.where(valid, (px - base_x[k, None]) ** 2 + (py - base_y[k, None]) ** 2, 0.0)
        n_valid = valid.sum(axis=1)
        rms = np.sqrt(dev2.sum(axis=1) / np.maximum(n_valid, 1))
        out.flat[k] = np.where(n_valid >= n_trials / 2, rms, np.nan)
    return out
