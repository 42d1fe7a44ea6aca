import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import footcalib

from footcalib import (
    AngularVelocitySeries,
    Frame,
    GroundTruth,
    Motion,
    NoiseModel,
    baseline_gait,
    condition_number,
    period_samples,
    random_ground_truth,
    simulate_imu,
    trajectory_to_foot_velocity,
)
from footcalib.optimizer import sample_covariance
from footcalib.simulate import (GAIT_PERIOD, euler_deg_to_matrix, gait_time_grid,
                                matrix_to_euler_deg, quaternion_to_matrix)


def smooth_series(n=2001, rate=500.0):
    t = np.arange(n) / rate
    samples = np.column_stack([
        np.sin(2 * math.pi * 1.5 * t),
        0.7 * np.cos(2 * math.pi * 0.8 * t),
        0.4 * np.sin(2 * math.pi * 2.2 * t + 0.3),
    ])
    return AngularVelocitySeries(t, samples, Frame.FOOT_KINEMATIC)


class TestGroundTruth:
    def test_euler_round_trip(self):
        # the given angles are the stored fact, and the matrix is theirs
        truth = GroundTruth.from_euler_deg(30.0, 45.0, 60.0, time_offset=0.01)
        assert truth.euler_deg.tolist() == [30.0, 45.0, 60.0]
        np.testing.assert_array_equal(truth.rotation, euler_deg_to_matrix([30.0, 45.0, 60.0]))

    def test_rejects_non_rotation(self):
        # a non-finite angle, a pitch beyond ±90 or a wrong count names euler_deg
        for angles in [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf), (0.0, 90.001, 0.0),
                       (0.0, -90.001, 0.0), (30.0, 45.0)]:
            with pytest.raises(ValueError, match="euler_deg"):
                GroundTruth(angles, 0.0)

    def test_random_truth_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            truth = random_ground_truth(rng, offset_range=0.1, grid_step=0.002)
            assert abs(truth.time_offset) <= 0.1 + 1e-12
            steps = truth.time_offset / 0.002
            assert abs(steps - round(steps)) < 1e-9
            assert abs(truth.euler_deg[1]) <= 80.0


class TestRotationHelpers:
    """The numpy rotation helpers against scipy's ``Rotation`` as the independent oracle."""

    def test_random_rotations_match_scipy(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(2000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        oracle = Rotation.from_quat(q)
        matrices = oracle.as_matrix()
        euler = oracle.as_euler("XYZ", degrees=True)
        for quat, matrix, angles in zip(q, matrices, euler):
            np.testing.assert_allclose(quaternion_to_matrix(quat), matrix, rtol=0, atol=1e-14)
            np.testing.assert_allclose(euler_deg_to_matrix(angles), matrix, rtol=0, atol=1e-14)
            np.testing.assert_allclose(matrix_to_euler_deg(matrix), angles, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("pitch", [89.9, -89.9, 90.0, -90.0])
    def test_near_and_at_gimbal_lock_match_scipy(self, pitch):
        # at exactly ±90 deg only roll ± yaw is defined; both set yaw to 0
        rng = np.random.default_rng(12)
        for roll, yaw in rng.uniform(-180, 180, size=(20, 2)):
            truth = GroundTruth.from_euler_deg(roll, pitch, yaw)
            assert truth.euler_deg.tolist() == [roll, pitch, yaw]
            oracle = Rotation.from_euler("XYZ", [roll, pitch, yaw], degrees=True)
            np.testing.assert_allclose(truth.rotation, oracle.as_matrix(), rtol=0, atol=1e-14)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # scipy's gimbal-lock warning
                expected = Rotation.from_matrix(truth.rotation).as_euler("XYZ", degrees=True)
            extracted = matrix_to_euler_deg(truth.rotation)
            np.testing.assert_allclose(extracted, expected, rtol=0, atol=1e-9)
            again = GroundTruth.from_euler_deg(*extracted)
            np.testing.assert_allclose(again.rotation, truth.rotation, rtol=0, atol=1e-12)
            if abs(pitch) < 90.0:
                np.testing.assert_allclose(extracted, [roll, pitch, yaw], rtol=0, atol=1e-9)
            else:
                assert extracted[2] == 0.0

    def test_import_loads_no_scipy(self):
        # scipy.spatial alone costs tens of MB of resident memory at import
        src = Path(footcalib.__file__).resolve().parents[1]
        code = ("import sys; import footcalib; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestNoiseModel:
    def test_sigma_conversion(self):
        # the per-sample std is density * sqrt(rate) in rad/s, at the
        # series' own rate
        n = 50
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
        for rate in (500.0, 200.0):
            foot = AngularVelocitySeries(np.arange(n) / rate, np.zeros((n, 3)),
                                         Frame.FOOT_KINEMATIC)
            imu = simulate_imu(foot, truth, NoiseModel(density=0.06, seed=3))
            expected = np.random.default_rng(3).normal(
                0.0, math.radians(0.06) * math.sqrt(rate), (n, 3))
            np.testing.assert_allclose(imu.samples, expected, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(density=-0.1)
        # the noise rate is the series' own; a rate in the old second
        # position must not pass as a seed
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(0.006, 500.0)

    @pytest.mark.parametrize("seed", [True, -3], ids=["bool", "negative"])
    def test_seed_must_be_a_count(self, seed):
        # a bool would seed the noise as 1, and a negative seed would only
        # fail later, inside simulate_imu's default_rng
        with pytest.raises(ValueError, match="^seed must"):
            NoiseModel(0.006, seed=seed)


class TestSimulateImu:
    def test_identity_noiseless_is_exact(self):
        foot = smooth_series()
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
        imu = simulate_imu(foot, truth, NoiseModel(0.0))
        assert imu.frame is Frame.FOOT_IMU
        np.testing.assert_array_equal(imu.samples, foot.samples)
        np.testing.assert_array_equal(imu.time_grid, foot.time_grid)

    def test_constant_vector_rotation(self):
        n = 100
        t = np.arange(n) / 500.0
        foot = AngularVelocitySeries(t, np.tile([1.0, 0.0, 0.0], (n, 1)), Frame.FOOT_KINEMATIC)
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 90.0)
        imu = simulate_imu(foot, truth, NoiseModel(0.0))
        expected = truth.rotation.T @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(imu.samples, np.tile(expected, (n, 1)), atol=1e-15)

    def test_noise_standard_deviation(self):
        n = 100_000
        t = np.arange(n) / 500.0
        foot = AngularVelocitySeries(t, np.zeros((n, 3)), Frame.FOOT_KINEMATIC)
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
        noise = NoiseModel(density=0.06, seed=17)
        imu = simulate_imu(foot, truth, noise)
        target = math.radians(0.06) * math.sqrt(500.0)
        for axis in range(3):
            assert np.std(imu.samples[:, axis]) == pytest.approx(target, rel=0.05)

    def test_noise_is_white(self):
        n = 100_000
        t = np.arange(n) / 500.0
        foot = AngularVelocitySeries(t, np.zeros((n, 3)), Frame.FOOT_KINEMATIC)
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
        imu = simulate_imu(foot, truth, NoiseModel(0.03, seed=4))
        for axis in range(3):
            x = imu.samples[:, axis]
            x = x - x.mean()
            lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
            assert abs(lag1) < 0.02

    def test_same_seed_bit_identical(self):
        foot = smooth_series()
        truth = GroundTruth.from_euler_deg(10.0, -20.0, 35.0, time_offset=0.004)
        noise = NoiseModel(0.03, seed=99)
        first = simulate_imu(foot, truth, noise)
        second = simulate_imu(foot, truth, noise)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_rotation_consistency_recovers_shifted_series(self):
        foot = smooth_series()
        t_d = 0.0073  # deliberately off-grid
        truth = GroundTruth.from_euler_deg(25.0, -40.0, 110.0, time_offset=t_d)
        imu = simulate_imu(foot, truth, NoiseModel(0.0))
        recovered = imu.samples @ truth.rotation.T  # R applied to each sample
        t = foot.time_grid
        expected = np.column_stack([
            np.interp(t - t_d, t, foot.samples[:, k]) for k in range(3)
        ])
        interior = (t - t_d >= t[0]) & (t - t_d <= t[-1])
        np.testing.assert_allclose(recovered[interior], expected[interior], atol=1e-12)

    def test_rejects_imu_frame_input(self):
        series = AngularVelocitySeries(np.arange(10) / 500.0, np.zeros((10, 3)), Frame.FOOT_IMU)
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            simulate_imu(series, truth, NoiseModel(0.0))


class TestBaselineGait:
    def test_wave_is_single_joint(self):
        traj = baseline_gait(Motion.WAVE)
        assert np.ptp(traj.theta_hip) < 0.02
        assert np.ptp(traj.theta_calf) < 0.02
        assert np.ptp(traj.theta_thigh) == pytest.approx(0.8, abs=0.01)

    @pytest.mark.parametrize("kind", [Motion.WALK, Motion.SPIN, Motion.WAVE])
    def test_two_cycles_are_exactly_periodic(self, kind):
        rate = 500.0
        traj = baseline_gait(kind, rate)
        shift = period_samples(GAIT_PERIOD, rate)
        for name in ("theta_hip", "theta_thigh", "theta_calf",
                     "dtheta_hip", "dtheta_thigh", "dtheta_calf"):
            values = getattr(traj, name)
            np.testing.assert_allclose(values[shift:], values[:len(values) - shift],
                                       atol=1e-12)

    def test_walk_condition_number_is_large(self):
        traj = baseline_gait(Motion.WALK)
        sigma = sample_covariance(trajectory_to_foot_velocity(traj).samples)
        assert condition_number(sigma) > 50.0

    def test_invalid_params_rejected(self):
        for rate in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="sample_rate"):
                baseline_gait(Motion.WALK, rate)

    def test_a2i_is_no_baseline_gait(self):
        with pytest.raises(ValueError, match="not a baseline gait"):
            baseline_gait(Motion.A2I)

    @pytest.mark.parametrize("rate", [500.0, 333.0, 1000.0])
    def test_span_is_the_last_time_of_the_gait_grid(self, rate):
        # the span ExperimentConfig checks the offset range against is the
        # one a scan of the gait's foot series checks it against
        traj = baseline_gait(Motion.SPIN, rate)
        assert traj.time_grid.tobytes() == gait_time_grid(rate).tobytes()
        assert trajectory_to_foot_velocity(traj).span == gait_time_grid(rate)[-1]
