"""Synthetic foot-IMU measurements and baseline comparison gaits.

A measurement stream is the kinematic foot-end series seen through a
fixed extrinsic rotation, delayed by a transport time offset and
corrupted by gyroscope white noise. Baseline gaits (walk, spin, wave) are
deterministic cartoon joint profiles used only to reproduce the
qualitative conditioning gap between ordinary locomotion and the
optimized calibration motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kinematics import AngularVelocitySeries, Frame, JointTrajectory, resample
from .optimizer import OptimizerConfig, is_count


def euler_deg_to_matrix(angles) -> np.ndarray:
    """Rotation matrix Rx(roll) Ry(pitch) Rz(yaw) of intrinsic x-y-z Euler angles in degrees."""
    radians = np.radians(angles)
    (ca, cb, cc), (sa, sb, sc) = np.cos(radians), np.sin(radians)
    return np.array([[cb * cc, -cb * sc, sb],
                     [ca * sc + sa * sb * cc, ca * cc - sa * sb * sc, -sa * cb],
                     [sa * sc - ca * sb * cc, sa * cc + ca * sb * sc, ca * cb]])


def matrix_to_euler_deg(matrix: np.ndarray) -> np.ndarray:
    """Intrinsic x-y-z Euler angles (roll, pitch, yaw) in degrees of a rotation matrix.

    Pitch lies in [-90, 90]. Within 1e-7 rad of gimbal lock only roll and
    yaw together are defined; yaw is then set to 0, as scipy's
    ``Rotation.as_euler`` does.
    """
    cos_pitch = math.hypot(matrix[0, 0], matrix[0, 1])
    pitch = math.atan2(matrix[0, 2], cos_pitch)
    if cos_pitch <= 1e-7:
        roll, yaw = math.atan2(matrix[2, 1], matrix[1, 1]), 0.0
    else:
        roll, yaw = math.atan2(-matrix[1, 2], matrix[2, 2]), math.atan2(-matrix[0, 1], matrix[0, 0])
    return np.degrees([roll, pitch, yaw])


def quaternion_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion in scalar-last (x, y, z, w) order."""
    x, y, z, w = q
    return np.array([[x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w]])


@dataclass(frozen=True)
class GroundTruth:
    """True extrinsic rotation (foot frame from IMU frame) and time offset.

    The rotation is stated once, by its intrinsic x-y-z Euler angles in
    degrees, pitch in [-90, 90]; ``rotation`` is the matrix they give, so
    a truth saved as its angles and read back has the same matrix.
    """

    euler_deg: np.ndarray  # (roll, pitch, yaw) in degrees; read-only, as is rotation
    time_offset: float     # s, IMU timestamps minus encoder timestamps
    # 3x3, maps IMU-frame vectors into the foot frame
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        angles = np.array(self.euler_deg, dtype=float)
        if angles.shape != (3,) or not (np.isfinite(angles).all() and abs(angles[1]) <= 90.0):
            raise ValueError(f"euler_deg must be 3 finite angles (roll, pitch, yaw) with pitch "
                             f"in [-90, 90], got {self.euler_deg!r}")
        if not math.isfinite(self.time_offset):
            raise ValueError("time_offset must be finite")
        rotation = euler_deg_to_matrix(angles)
        angles.flags.writeable = rotation.flags.writeable = False
        object.__setattr__(self, "euler_deg", angles)
        object.__setattr__(self, "rotation", rotation)

    @classmethod
    def from_euler_deg(cls, roll_x: float, pitch_y: float, yaw_z: float,
                       time_offset: float = 0.0) -> "GroundTruth":
        return cls((roll_x, pitch_y, yaw_z), time_offset)


# Largest |pitch| in degrees of a random mounting: the ±90 deg gimbal
# region is left out so per-axis rotation errors stay well defined.
MAX_PITCH_DEG = 80.0


def random_ground_truth(rng: np.random.Generator, offset_range: float,
                        grid_step: float | None = None) -> GroundTruth:
    """Random mounting rotation and offset for a synthetic experiment.

    Rotations are uniform on SO(3) but rejection-sampled to |pitch| <=
    ``MAX_PITCH_DEG``. The offset is uniform in ±offset_range and snapped
    to grid_step when given.
    """
    while True:
        q = rng.normal(size=4)
        euler = matrix_to_euler_deg(quaternion_to_matrix(q / np.linalg.norm(q)))
        if abs(euler[1]) <= MAX_PITCH_DEG:
            break
    if grid_step is not None:
        steps = int(math.floor(offset_range / grid_step + 1e-9))
        t_d = float(rng.integers(-steps, steps + 1)) * grid_step
    else:
        t_d = float(rng.uniform(-offset_range, offset_range))
    return GroundTruth(euler, t_d)


@dataclass(frozen=True)
class NoiseModel:
    """Gyroscope white-noise description.

    density is in deg/s/sqrt(Hz); on a series sampled every dt seconds
    the per-sample standard deviation is density * sqrt(1/dt), converted
    to rad/s.
    """

    density: float  # deg/s/sqrt(Hz)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.density < math.inf:
            raise ValueError("density must be finite and >= 0")
        # a float here is most likely a sample rate passed where the seed goes;
        # numpy's SeedSequence takes non-negative integers only
        if not is_count(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def simulate_imu(foot_series: AngularVelocitySeries, truth: GroundTruth,
                 noise: NoiseModel) -> AngularVelocitySeries:
    """Synthesize the foot-IMU angular-velocity stream.

    Each output sample at time t is R^-1 applied to the kinematic series
    evaluated at t - t_d (linear interpolation, edges held), plus i.i.d.
    Gaussian noise per axis at the series' own sample rate 1/dt.
    Timestamps stay on the original grid: the offset is hidden in the
    data, as in real logging.
    """
    if foot_series.frame is not Frame.FOOT_KINEMATIC:
        raise ValueError(f"expected a FootKinematic series, got {foot_series.frame}")
    measured = add_noise(clean_stream(foot_series, truth), noise.density, noise.seed,
                         foot_series.uniform_dt())
    return AngularVelocitySeries(foot_series.time_grid, measured, Frame.FOOT_IMU)


def clean_stream(foot_series: AngularVelocitySeries, truth: GroundTruth) -> np.ndarray:
    """The noiseless samples of ``simulate_imu``: omega_I = R^T omega_F(t - t_d) per row."""
    t = foot_series.time_grid
    return resample(t, foot_series.samples, t - truth.time_offset) @ truth.rotation


def add_noise(clean: np.ndarray, density: float, seed: int, dt: float) -> np.ndarray:
    """``clean`` plus the white noise of ``NoiseModel(density, seed)`` at sample spacing ``dt``."""
    if density == 0:
        return clean
    rng = np.random.default_rng(seed)
    return clean + rng.normal(0.0, math.radians(density) * math.sqrt(1.0 / dt), clean.shape)


class Motion(Enum):
    """Motion a leg executes: the optimized calibration motion or a baseline gait."""

    A2I = "a2i"    # condition-number-optimized calibration motion
    WALK = "walk"
    SPIN = "spin"
    WAVE = "wave"


# Per joint (hip, thigh, calf): amplitude in rad, frequency multiplier and
# phase. The amplitudes are artifact constants chosen so the walk and spin
# profiles barely excite one velocity axis while the wave profile keeps a
# little more diversity, reproducing the conditioning ordering wave <
# walk/spin, all far above the optimized motion.
_GAITS = {
    Motion.WALK: ((0.005, 1, 0.0), (0.35, 1, 0.0), (0.35, 1, math.pi / 2)),
    Motion.SPIN: ((0.45, 1, 0.0), (0.004, 2, 0.0), (0.004, 1, 0.7)),
    Motion.WAVE: ((0.009, 3, 0.0), (0.4, 1, 0.0), (0.005, 2, 0.4)),
}
GAIT_PERIOD = 1.0    # s
GAIT_DURATION = 4.0  # s, four gait cycles


def gait_time_grid(sample_rate: float) -> np.ndarray:
    """Time grid of every baseline gait: ``GAIT_DURATION`` s at ``sample_rate`` Hz,
    which must be finite and positive, from t = 0; its last time is the gaits' span."""
    if not 0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be finite and positive, got {sample_rate}")
    n = int(math.floor(GAIT_DURATION * sample_rate + 1e-9))
    return np.arange(n + 1) / sample_rate


def baseline_gait(motion: Motion,
                  sample_rate: float = OptimizerConfig.imu_frequency) -> JointTrajectory:
    """Deterministic cyclic joint profile of a baseline gait (walk, spin or wave)
    on ``gait_time_grid(sample_rate)``; the a2i motion raises ValueError.

    Each joint follows amplitude * sin(m * w0 * t + phase) with w0 =
    2*pi/``GAIT_PERIOD``, from ``_GAITS``. Walk swings thigh and calf in
    quadrature with a small hip sway, spin is a dominant hip oscillation
    over near-constant thigh/calf, and wave is a single-joint thigh
    sinusoid with hip and calf nearly static.
    """
    if motion not in _GAITS:
        raise ValueError(f"{motion} is not a baseline gait")
    w0 = 2.0 * math.pi / GAIT_PERIOD
    t = gait_time_grid(sample_rate)

    angles, rates = [], []
    for amp, mult, phase in _GAITS[motion]:
        w = mult * w0
        angles.append(amp * np.sin(w * t + phase))
        rates.append(amp * w * np.cos(w * t + phase))

    return JointTrajectory(t, *angles, *rates)  # hip, thigh, calf angles, then their rates
