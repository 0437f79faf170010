"""Planar five-bar (2-DOF) parallel mechanism kinematics.

Joint 1 sits at the origin, Joint 2 at (d, 0); all four moving links
share length l.  Joint angles are measured from the +y vertical, turning
toward +x, so a proximal link at angle theta points along
(sin theta, cos theta).  The terminal works in the upper half-plane on
the elbow-up branch (circle intersection with the larger y).

Array kernels: ``_reach`` (reach test), ``_ik_batch`` (joint angles with
the reach and branch mask) and ``_fk_batch``; the grid, path and
predicate functions go through them.  ``_ik`` and ``_fk`` (behind ``inverse_kinematics``
and ``forward_kinematics``) stay scalar ``math`` on plain floats for ``track``: on the
array kernels its one-sample p50 rose 46% (61 to 89 us, 2-vCPU AVX-512 host) and its
poses moved in the last bits (numpy rounds unlike ``math``).

``_fk_batch`` returns a ``valid`` mask and leaves x and y unspecified
where it is False; its callers read coordinates only where it is set.
The Monte Carlo ``deviation_map`` draws each chunk's trials into one
reused buffer and runs ``_fk_batch`` on ``MC_CHUNK_POSES`` perturbed
poses at a time, a size chosen by measurement (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import NUMBER, POSITIVE, Record, spec
from .errors import SingularError, UnreachableError
from .sensor import substreams

REACH_REL_TOL = 1e-9


@dataclass(frozen=True)
class FiveBarConfig(Record):
    """Linkage geometry: base joint separation d and common bar length l."""

    d_mm: float = spec(NUMBER, 80.0, bound=POSITIVE)
    l_mm: float = spec(NUMBER, 100.0, bound=POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        if not self.d_mm < 4 * self.l_mm:
            raise ValueError("need d < 4l for a nonempty workspace")


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


def _ik(config: FiveBarConfig, x: float, y: float) -> tuple[float, float]:
    """Joint angles (theta1, theta2) in radians reaching (x, y) on the working branch.

    theta_i = pi/2 - atan2(y, xi) - acos(ri / 2l) with x1 = x, x2 = d - x;
    acos arguments within REACH_REL_TOL of 1 are clamped, beyond that the
    pose is unreachable.  A NaN coordinate gives NaN angles, which
    :class:`JointAngles` rejects.
    """
    d, l = config.d_mm, config.l_mm
    if y <= 0:
        raise UnreachableError(f"pose y={y} mm outside the working half-plane (y > 0)")
    r1 = math.hypot(x, y)
    r2 = math.hypot(d - x, y)
    ratio1, ratio2 = r1 / (2.0 * l), r2 / (2.0 * l)
    if ratio1 > 1.0 + REACH_REL_TOL or ratio2 > 1.0 + REACH_REL_TOL:
        r = r1 if ratio1 > 1.0 + REACH_REL_TOL else r2
        raise UnreachableError(
            f"pose ({x:g}, {y:g}) mm beyond reach: distance {r:g} > 2l = {2 * l:g}"
        )
    return (math.pi / 2 - math.atan2(y, x) - math.acos(min(ratio1, 1.0)),
            math.pi / 2 - math.atan2(y, d - x) - math.acos(min(ratio2, 1.0)))


def inverse_kinematics(config: FiveBarConfig, pose: TerminalPose) -> JointAngles:
    """Joint angles reaching a terminal pose on the working branch (see :func:`_ik`)."""
    return JointAngles(*_ik(config, pose.x_mm, pose.y_mm))


def _elbows(config: FiveBarConfig, theta1: float, theta2: float):
    l, d = config.l_mm, config.d_mm
    e1 = (l * math.sin(theta1), l * math.cos(theta1))
    e2 = (d - l * math.sin(theta2), l * math.cos(theta2))
    return e1, e2


def _fk(config: FiveBarConfig, theta1: float, theta2: float) -> tuple[float, float]:
    """Terminal (x, y) for joint angles in radians, elbow-up branch.

    Intersects the two circles of radius l around the elbow points and
    keeps the intersection with the larger y; on a tie, the first one.
    """
    l = config.l_mm
    (e1x, e1y), (e2x, e2y) = _elbows(config, theta1, theta2)
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
    xa, ya, xb, yb = mx + h * nx, my + h * ny, mx - h * nx, my - h * ny
    return (xb, yb) if yb > ya else (xa, ya)  # max()'s rule, NaN included


def forward_kinematics(config: FiveBarConfig, angles: JointAngles) -> TerminalPose:
    """Terminal pose for joint angles, elbow-up branch (see :func:`_fk`)."""
    return TerminalPose(*_fk(config, angles.theta1_rad, angles.theta2_rad))


def _fk_batch(config: FiveBarConfig, theta1, theta2):
    """Vectorized elbow-up forward kinematics: (x, y, valid).

    ``valid`` is False where the elbow circles do not intersect or the
    elbows coincide; x and y are unspecified there, and every caller reads
    them only where ``valid`` is set.  The arithmetic runs in place on a
    few temporaries.
    """
    l, d = config.l_mm, config.d_mm
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    e1x, e1y = np.sin(t1), np.cos(t1)
    e2x, e2y = np.sin(t2), np.cos(t2)
    e1x *= l
    e1y *= l
    e2x *= l
    np.subtract(d, e2x, out=e2x)
    e2y *= l
    dx, dy = e2x - e1x, e2y - e1y
    q = np.hypot(dx, dy)
    valid = (q > REACH_REL_TOL * l) & (q <= 2.0 * l * (1.0 + REACH_REL_TOL))
    np.copyto(q, 1.0, where=~valid)
    h = q * 0.25
    h *= q
    np.subtract(l * l, h, out=h)
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    # the branches sit at the chord midpoint m = (e1 + e2) / 2, plus or
    # minus h times the unit normal (-dy, dx) / q
    mx, my = e1x, e1y
    mx += e2x
    mx *= 0.5
    my += e2y
    my *= 0.5
    hnx = np.negative(dy, out=dy)
    hnx /= q
    hnx *= h
    hny = dx
    hny /= q
    hny *= h
    ya, yb = np.add(my, hny, out=e2y), np.subtract(my, hny, out=my)
    xa, xb = np.add(mx, hnx, out=e2x), np.subtract(mx, hnx, out=mx)
    # elbow-up: keep the intersection with the larger y
    down = ya < yb
    np.copyto(xa, xb, where=down)
    np.copyto(ya, yb, where=down)
    return xa, ya, valid


def _reach(config: FiveBarConfig, x, y, margin: float = 0.0):
    """Strict reach test, elementwise: (mask, r1, r2).

    A point is reachable when y > 0 and its distances r1, r2 to the two
    base joints are both below 2l - margin.
    """
    r1, r2 = np.hypot(x, y), np.hypot(config.d_mm - x, y)
    limit = 2.0 * config.l_mm - margin
    return (y > 0) & (r1 < limit) & (r2 < limit), r1, r2


def _ik_batch(config: FiveBarConfig, x, y):
    """Array inverse kinematics, elementwise: (theta1, theta2, keep, cos1, cos2).

    :func:`inverse_kinematics` term for term, acos arguments clamped at 1
    so that dropped points stay finite.  ``keep`` is the reach test at
    margin REACH_REL_TOL * l and the branch test: the pose lies above the
    midpoint of its elbows.  The branch test's cos(theta1) and cos(theta2)
    come back for :func:`_loop_closure`.
    """
    l, d = config.l_mm, config.d_mm
    reach, r1, r2 = _reach(config, x, y, REACH_REL_TOL * l)
    t1 = np.pi / 2 - np.arctan2(y, x) - np.arccos(np.minimum(r1 / (2.0 * l), 1.0))
    t2 = np.pi / 2 - np.arctan2(y, d - x) - np.arccos(np.minimum(r2 / (2.0 * l), 1.0))
    c1, c2 = np.cos(t1), np.cos(t2)
    return t1, t2, reach & (y > 0.5 * (l * c1 + l * c2)), c1, c2


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


def reachable(config: FiveBarConfig, x_mm: float, y_mm: float, margin: float = 0.0) -> bool:
    """Strict interior reachability of a point in the working half-plane."""
    return bool(_reach(config, x_mm, y_mm, margin)[0])


def workspace_mask(config: FiveBarConfig, grid: GridSpec) -> np.ndarray:
    """Boolean [ny, nx] grid: True where the pose is strictly reachable."""
    return _reach(config, grid.x_axis()[None, :], grid.y_axis()[:, None])[0]


def elbow_separation_ratio(config: FiveBarConfig, pose: TerminalPose) -> float:
    """Elbow separation over its tangent limit 2l, as a conditioning gauge.

    The forward map degenerates as this approaches 1 (passive links
    colinear); first-order error propagation is trustworthy well below it.
    """
    angles = inverse_kinematics(config, pose)
    (e1x, e1y), (e2x, e2y) = _elbows(config, angles.theta1_rad, angles.theta2_rad)
    return math.hypot(e2x - e1x, e2y - e1y) / (2.0 * config.l_mm)


def working_branch(config: FiveBarConfig, pose: TerminalPose) -> bool:
    """True when a pose lies on the elbow-up assembly mode.

    The joint-angle formulas are two-to-one: the passive links can
    assemble with the terminal on either side of the elbow chord, and
    both assemblies read the same encoder angles.  Forward kinematics
    resolves to the upper side, so only poses strictly above the chord
    (equivalently above the elbow midpoint) round-trip; the fold line
    between the modes is the tangent singularity.  Poses within
    REACH_REL_TOL * l of full extension are not on it.
    """
    return bool(_ik_batch(config, pose.x_mm, pose.y_mm)[2])


def _loop_closure(config: FiveBarConfig, theta1, theta2, c1, c2, x_mm, y_mm):
    """Velocity loop closure A dP = B dtheta at terminal points P, so J = A^-1 B.

    From |P - E_i|^2 = l^2 (Gosselin & Angeles, IEEE T-RA 6(3), 1990): row
    A_i = (P - E_i)^T, B = diag(b_i) with b_i = (P - E_i) . dE_i/dtheta_i.
    ``c1`` and ``c2`` are np.cos of the angles, which the caller has.
    Returns (A_1, A_2, b_1, b_2, det A) elementwise; det A = 0 is the fold.
    """
    l, d = config.l_mm, config.d_mm
    s1, s2 = np.sin(theta1), np.sin(theta2)
    a1 = (x_mm - l * s1, y_mm - l * c1)
    a2 = (x_mm - (d - l * s2), y_mm - l * c2)
    det = a1[0] * a2[1] - a1[1] * a2[0]
    return a1, a2, l * (a1[0] * c1 - a1[1] * s1), -l * (a2[0] * c2 + a2[1] * s2), det


def fk_jacobian(config: FiveBarConfig, angles: JointAngles) -> np.ndarray:
    """Terminal-position Jacobian d(x,y)/d(theta1,theta2), closed form J = A^-1 B.

    Raises as :func:`forward_kinematics` does, and SingularError on the fold.
    """
    pose = forward_kinematics(config, angles)
    t1, t2 = angles.theta1_rad, angles.theta2_rad
    a1, a2, b1, b2, det = _loop_closure(config, t1, t2, np.cos(t1), np.cos(t2),
                                        pose.x_mm, pose.y_mm)
    if det == 0:
        raise SingularError("passive links colinear: terminal Jacobian undefined")
    return np.array([[a2[1] * b1, -a1[1] * b2], [-a2[0] * b1, a1[0] * b2]]) / det


# Perturbed poses per FK batch, in whole cells.  One 80x80 map of the
# benchmark box at 300 trials took 241/232/207/222 ms (medians of 20
# interleaved calls, 2-vCPU AVX-512 host) at 2048/4096/8192/16384 poses,
# with tracemalloc peaks of 1.55/1.58/1.75/2.68 MB.
MC_CHUNK_POSES = 8192


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
    pairs, with a per-cell RNG substream derived from (seed, cell index):
    ``sensor.substreams``, given the kept cells' indices as its one key
    axis, computes their seed words at once and gives each cell its own
    Generator, which draws exactly what ``substream(seed, i)`` gives.
    A chunk holds ``MC_CHUNK_POSES // n_trials`` cells (at least one); their
    trials are drawn straight into one reused (cells, n_trials, 2) buffer
    and scaled in place, and the FK and the RMS reduction run in place on
    the chunk's temporaries.  ``n_trials`` must be an int >= 1.
    Unreachable, singular or lower-assembly-mode cells are NaN, never
    raised.
    """
    if not (angle_sigma_deg >= 0 and math.isfinite(angle_sigma_deg)):
        raise ValueError(f"angle_sigma_deg must be finite and >= 0, got {angle_sigma_deg}")
    if isinstance(n_trials, bool) or not isinstance(n_trials, (int, np.integer)) \
            or n_trials < 1:
        raise ValueError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    if method not in ("jacobian", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    sigma_rad = math.radians(angle_sigma_deg)
    x, y = grid.x_axis()[None, :], grid.y_axis()[:, None]
    t1, t2, keep, c1, c2 = _ik_batch(config, x, y)
    out = np.full((grid.ny, grid.nx), np.nan)
    if method == "jacobian":
        # |J|_F = l * hypot(b1, b2) / |det A|: both rows of A have length l
        _, _, b1, b2, det = _loop_closure(config, t1, t2, c1, c2, x, y)
        np.divide(sigma_rad * config.l_mm * np.hypot(b1, b2), np.abs(det),
                  out=out, where=keep & (det != 0))
        return out

    base_x, base_y, base_ok = (v.ravel() for v in _fk_batch(config, t1, t2))
    t1, t2 = t1.ravel(), t2.ravel()
    cells = np.flatnonzero(keep.ravel() & base_ok)
    per_chunk = max(1, MC_CHUNK_POSES // n_trials)
    # one call over every kept cell: a chunk holds too few cells to batch their states
    rngs = substreams(seed, cells)
    draws = np.empty((min(per_chunk, cells.size), n_trials, 2))
    for start in range(0, cells.size, per_chunk):
        k = cells[start:start + per_chunk]
        noise = draws[:k.size]
        for row, rng in zip(noise, rngs):
            rng.standard_normal(out=row)
        noise *= sigma_rad
        px, py, valid = _fk_batch(config, t1[k, None] + noise[..., 0],
                                  t2[k, None] + noise[..., 1])
        px -= base_x[k, None]
        px *= px
        py -= base_y[k, None]
        py *= py
        px += py
        np.copyto(px, 0.0, where=~valid)
        n_valid = np.count_nonzero(valid, axis=1)
        rms = np.sqrt(px.sum(axis=1) / np.maximum(n_valid, 1))
        out.flat[k] = np.where(n_valid >= n_trials / 2, rms, np.nan)
    return out
