"""Three-joint leg model and the joint-space to foot-frame velocity map.

The leg is one fixed kinematic chain: hip, thigh and calf revolute
joints in a modified Denavit-Hartenberg arrangement with twists
(0, -90 deg, 0, 0). With the floating base held fixed, the foot-end
angular velocity depends only on the hip rate, the combined thigh+calf
angle and the combined thigh+calf rate:

    wx = -dhip * sin(th_thigh + th_calf)
    wy = -dhip * cos(th_thigh + th_calf)
    wz =  dthigh + dcalf
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Frame(Enum):
    """Reference frame an angular-velocity series is expressed in."""

    FOOT_KINEMATIC = "FootKinematic"
    FOOT_IMU = "FootIMU"


@dataclass(frozen=True)
class LegGeometry:
    """Joint limits of one leg.

    Limits are closed intervals [lower, upper] in radians. The defaults
    are absolute Go2-class ranges; experiment configs typically
    substitute posture-relative limits because generated calibration
    trajectories oscillate around zero.
    """

    hip_limits: tuple[float, float] = (-0.84, 0.84)
    thigh_limits: tuple[float, float] = (-1.5, 3.4)
    calf_limits: tuple[float, float] = (-2.7, -0.8)

    def __post_init__(self):
        for name in ("hip_limits", "thigh_limits", "calf_limits"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be a finite interval with lower < upper, got {(lo, hi)}")

    def limits(self, joint: str) -> tuple[float, float]:
        return getattr(self, f"{joint}_limits")


def _as_float_array(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _grid_spacing(time_grid: np.ndarray) -> float:
    """Spacing of a time grid, raising unless it has at least 2 samples, is
    strictly increasing and is uniform to one part in 1e9."""
    n = len(time_grid)
    if n < 2:
        raise ValueError("time grid needs at least 2 samples")
    diffs = np.diff(time_grid)
    dt = (time_grid[-1] - time_grid[0]) / (n - 1)
    if dt <= 0 or np.any(diffs <= 0):
        raise ValueError("time grid must be strictly increasing")
    if np.max(np.abs(diffs - dt)) > 1e-9 * dt:
        raise ValueError("time grid spacing must be uniform to 1 part in 1e9")
    return float(dt)


@dataclass(frozen=True)
class JointTrajectory:
    """Time-gridded joint angles and angular velocities for one leg.

    All seven sequences share the same length (>= 2) and the time grid is
    uniform to one part in 1e9.
    """

    time_grid: np.ndarray
    theta_hip: np.ndarray
    theta_thigh: np.ndarray
    theta_calf: np.ndarray
    dtheta_hip: np.ndarray
    dtheta_thigh: np.ndarray
    dtheta_calf: np.ndarray

    def __post_init__(self):
        for name in ("time_grid", "theta_hip", "theta_thigh", "theta_calf",
                     "dtheta_hip", "dtheta_thigh", "dtheta_calf"):
            object.__setattr__(self, name, _as_float_array(name, getattr(self, name)))
        n = len(self.time_grid)
        for name in ("theta_hip", "theta_thigh", "theta_calf",
                     "dtheta_hip", "dtheta_thigh", "dtheta_calf"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length {len(getattr(self, name))} != time grid length {n}")
        _grid_spacing(self.time_grid)

    def __len__(self) -> int:
        return len(self.time_grid)

    @property
    def theta_sum(self) -> np.ndarray:
        """Combined thigh+calf angle; the only angle the velocity map needs."""
        return self.theta_thigh + self.theta_calf

    @property
    def dtheta_sum(self) -> np.ndarray:
        return self.dtheta_thigh + self.dtheta_calf


@dataclass(frozen=True)
class AngularVelocitySeries:
    """Timestamped 3-vector angular-velocity samples with a frame tag.

    Built only on a time grid of at least 2 samples that is strictly
    increasing and uniform to one part in 1e9.
    """

    time_grid: np.ndarray
    samples: np.ndarray
    frame: Frame
    _dt: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.time_grid, dtype=float)
        w = np.asarray(self.samples, dtype=float)
        if t.ndim != 1:
            raise ValueError("time_grid must be one-dimensional")
        if w.ndim != 2 or w.shape[1] != 3:
            raise ValueError(f"samples must have shape (n, 3), got {w.shape}")
        if w.shape[0] != t.shape[0]:
            raise ValueError("samples length must equal time grid length")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(w)):
            raise ValueError("series contains non-finite values")
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame, got {self.frame!r}")
        object.__setattr__(self, "_dt", _grid_spacing(t))
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "samples", w)

    def __len__(self) -> int:
        return len(self.time_grid)

    def uniform_dt(self) -> float:
        """Grid spacing, checked when the series was built."""
        return self._dt

    @property
    def span(self) -> float:
        return float(self.time_grid[-1] - self.time_grid[0])


def resample(time_grid: np.ndarray, samples: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The three sample columns linearly interpolated at the query times; edges held."""
    return np.column_stack([np.interp(query, time_grid, samples[:, k]) for k in range(3)])


def foot_velocity(dtheta_hip: np.ndarray, theta_sum: np.ndarray, dtheta_sum: np.ndarray) -> np.ndarray:
    """Foot angular velocity, shape (n, 3), from plain joint arrays.

    ``theta_sum`` and ``dtheta_sum`` are the combined thigh+calf angle and
    rate. ``trajectory_to_foot_velocity`` applies it to a validated
    ``JointTrajectory``.
    """
    return np.column_stack([
        -dtheta_hip * np.sin(theta_sum),
        -dtheta_hip * np.cos(theta_sum),
        dtheta_sum,
    ])


def trajectory_to_foot_velocity(traj: JointTrajectory) -> AngularVelocitySeries:
    """Map a joint trajectory to the foot-end angular-velocity series."""
    omega = foot_velocity(traj.dtheta_hip, traj.theta_sum, traj.dtheta_sum)
    return AngularVelocitySeries(traj.time_grid, omega, Frame.FOOT_KINEMATIC)
