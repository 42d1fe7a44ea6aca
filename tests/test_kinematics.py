import math

import numpy as np
import pytest

from footcalib import (
    AngularVelocitySeries,
    BasisSpec,
    Frame,
    JointTrajectory,
    LegGeometry,
    eval_basis,
    period_samples,
    trajectory_to_foot_velocity,
)


def foot_angular_velocity(theta_thigh_plus_calf, dtheta_hip, dtheta_thigh_plus_calf):
    """Scalar oracle of the foot velocity map for one joint state."""
    return np.array([
        -dtheta_hip * math.sin(theta_thigh_plus_calf),
        -dtheta_hip * math.cos(theta_thigh_plus_calf),
        dtheta_thigh_plus_calf,
    ])


def make_trajectory(t, hip, thigh, calf, d_hip, d_thigh, d_calf):
    return JointTrajectory(t, hip, thigh, calf, d_hip, d_thigh, d_calf)


def constant_trajectory(n=100, rate=500.0, hip=0.0, thigh=0.0, calf=0.0):
    t = np.arange(n) / rate
    z = np.zeros(n)
    return make_trajectory(t, np.full(n, hip), np.full(n, thigh), np.full(n, calf), z, z, z)


class TestFootAngularVelocity:
    @pytest.mark.parametrize("theta_sum, d_hip, d_sum, expected", [
        (0.0, 1.0, 0.0, (0.0, -1.0, 0.0)),
        (math.pi / 2, 1.0, 0.0, (-1.0, 0.0, 0.0)),
        (0.7, 0.0, 0.0, (0.0, 0.0, 0.0)),
    ])
    def test_closed_form(self, theta_sum, d_hip, d_sum, expected):
        omega = foot_angular_velocity(theta_sum, d_hip, d_sum)
        np.testing.assert_allclose(omega, expected, atol=1e-15)


class TestTrajectoryToFootVelocity:
    def test_zero_trajectory_gives_zero_series(self):
        series = trajectory_to_foot_velocity(constant_trajectory(100))
        assert len(series) == 100
        np.testing.assert_array_equal(series.samples, np.zeros((100, 3)))

    def test_emits_kinematic_frame(self):
        series = trajectory_to_foot_velocity(constant_trajectory(10))
        assert series.frame is Frame.FOOT_KINEMATIC

    def test_matches_scalar_operation_per_sample(self):
        rng = np.random.default_rng(11)
        n = 10
        t = np.arange(n) / 100.0
        traj = make_trajectory(t, *(rng.uniform(-1, 1, n) for _ in range(6)))
        series = trajectory_to_foot_velocity(traj)
        for i in range(n):
            expected = foot_angular_velocity(
                traj.theta_thigh[i] + traj.theta_calf[i],
                traj.dtheta_hip[i],
                traj.dtheta_thigh[i] + traj.dtheta_calf[i],
            )
            np.testing.assert_array_equal(series.samples[i], expected)

    def test_single_harmonic_period_means_vanish(self):
        # over one exact period the y and z component means cancel discretely
        rate = 500.0
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0],
                         base_frequency=math.pi, period=2.0)
        n = period_samples(spec.period, rate)
        traj = eval_basis(spec, np.arange(n) / rate)
        series = trajectory_to_foot_velocity(traj)
        tol = 10 * np.finfo(float).eps * n
        assert abs(series.samples[:, 1].mean()) <= tol
        assert abs(series.samples[:, 2].mean()) <= tol

    def test_xy_pythagorean_identity(self):
        # wx^2 + wy^2 == dtheta_hip^2 for every sample
        rng = np.random.default_rng(5)
        n = 200
        t = np.arange(n) / 500.0
        traj = make_trajectory(t, *(rng.uniform(-2, 2, n) for _ in range(6)))
        series = trajectory_to_foot_velocity(traj)
        lhs = series.samples[:, 0] ** 2 + series.samples[:, 1] ** 2
        rhs = traj.dtheta_hip ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestDomainTypes:
    def test_geometry_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            LegGeometry(hip_limits=(0.5, 0.5))
        with pytest.raises(ValueError):
            LegGeometry(calf_limits=(1.0, -1.0))

    def test_trajectory_rejects_length_mismatch(self):
        t = np.arange(10) / 100.0
        z = np.zeros(10)
        with pytest.raises(ValueError):
            make_trajectory(t, z, z, np.zeros(9), z, z, z)

    def test_trajectory_rejects_nonuniform_grid(self):
        t = np.arange(10) / 100.0
        t[5] += 3e-4
        z = np.zeros(10)
        with pytest.raises(ValueError):
            make_trajectory(t, z, z, z, z, z, z)

    def test_trajectory_rejects_single_sample(self):
        with pytest.raises(ValueError):
            make_trajectory(np.array([0.0]), *(np.zeros(1) for _ in range(6)))

    def test_series_rejects_nonfinite(self):
        t = np.arange(4) / 100.0
        samples = np.zeros((4, 3))
        samples[2, 1] = math.inf
        with pytest.raises(ValueError):
            AngularVelocitySeries(t, samples, Frame.FOOT_IMU)

    def test_series_rejects_jittered_timestamp(self):
        t = np.arange(10) / 100.0
        t[5] += 3e-4
        with pytest.raises(ValueError, match="uniform"):
            AngularVelocitySeries(t, np.zeros((10, 3)), Frame.FOOT_IMU)

    def test_series_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AngularVelocitySeries(np.arange(4.0), np.zeros((4, 2)), Frame.FOOT_IMU)

    def test_series_rejects_plain_string_frame(self):
        with pytest.raises(ValueError):
            AngularVelocitySeries(np.arange(4.0), np.zeros((4, 3)), "FootIMU")
