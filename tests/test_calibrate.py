import math

import numpy as np
import pytest

from footcalib import (
    AngularVelocitySeries,
    BasisSpec,
    CalibrationResult,
    Frame,
    GaitKind,
    GroundTruth,
    IllConditionedError,
    NoiseModel,
    OffsetSearch,
    RankDeficiencyError,
    baseline_gait,
    calibrate,
    covariance_set,
    estimate_rotation,
    estimate_time_offset,
    eval_basis,
    period_samples,
    random_ground_truth,
    rotation_error,
    simulate_imu,
    trace_correlation,
    trajectory_to_foot_velocity,
)
from footcalib.calibrate import _paired_window
from footcalib.kinematics import resample
from conftest import brute_force_pair_covariance

RATE = 500.0

# Hand-picked low-condition-number basis amplitudes; calibration tests
# should not depend on optimizer behaviour.
GOOD_SPEC = BasisSpec(hip_rate_coeffs=[1.2, 0.8, 5.3], pitch_rate_coeffs=[3.7, 0.4, 0.3],
                      base_frequency=math.pi, period=2.0)


@pytest.fixture(scope="module")
def foot_series():
    """Two closed periods of the hand-picked calibration motion at 500 Hz."""
    grid = np.arange(2 * period_samples(GOOD_SPEC.period, RATE) + 1) / RATE
    traj = eval_basis(GOOD_SPEC, grid)
    return trajectory_to_foot_velocity(traj)


SEARCH = OffsetSearch(0.25)
WINDOW = period_samples(GOOD_SPEC.period, RATE)  # one period


def z_only_pair():
    """An IMU/foot pair whose motion excites the z axis only."""
    t = np.arange(200) / RATE
    samples = np.zeros((200, 3))
    samples[:, 2] = np.sin(2 * math.pi * t)
    return (AngularVelocitySeries(t, samples, Frame.FOOT_IMU),
            AngularVelocitySeries(t, samples, Frame.FOOT_KINEMATIC))


def shift(series, t_d):
    """Samples of ``series`` at t + t_d on its own grid, the way the offset scan shifts."""
    return resample(series.time_grid, series.samples, series.time_grid + t_d)


class TestShiftSeries:
    def test_zero_shift_is_identity(self, foot_series):
        np.testing.assert_allclose(shift(foot_series, 0.0), foot_series.samples, atol=1e-15)

    def test_one_interval_shift_advances_by_one_index(self, foot_series):
        dt = foot_series.uniform_dt()
        shifted = shift(foot_series, dt)
        np.testing.assert_allclose(shifted[:-1], foot_series.samples[1:], atol=1e-12)

    @pytest.mark.parametrize("t_d", [0.01, 0.0037])
    def test_sinusoid_matches_analytic_phase(self, t_d):
        # 2 Hz sinusoid at 500 Hz; linear interpolation error is bounded by
        # (w * dt)^2 / 8 of the amplitude
        t = np.arange(2000) / RATE
        w = 2 * math.pi * 2.0
        samples = np.column_stack([np.sin(w * t), np.cos(w * t), 0.5 * np.sin(w * t + 1.0)])
        series = AngularVelocitySeries(t, samples, Frame.FOOT_KINEMATIC)
        shifted = shift(series, t_d)
        interior = t + t_d <= t[-1]
        bound = (w / RATE) ** 2 / 8 + 1e-12
        expected = np.column_stack([
            np.sin(w * (t + t_d)), np.cos(w * (t + t_d)), 0.5 * np.sin(w * (t + t_d) + 1.0)])
        assert np.max(np.abs(shifted[interior] - expected[interior])) <= bound


def series_pair(imu_samples, foot_samples):
    n = len(imu_samples)
    t = np.arange(n) / RATE
    return (AngularVelocitySeries(t, imu_samples, Frame.FOOT_IMU),
            AngularVelocitySeries(t, foot_samples, Frame.FOOT_KINEMATIC))


class TestCovarianceSet:
    def test_identical_series_collapse(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(40, 3))
        imu, foot = series_pair(samples, samples.copy())
        cov = covariance_set(imu, foot)
        np.testing.assert_array_equal(cov.sigma_ii, cov.sigma_ff)
        np.testing.assert_allclose(cov.sigma_if, cov.sigma_ff, atol=1e-15)
        np.testing.assert_allclose(cov.sigma_fi, cov.sigma_ff, atol=1e-15)

    def test_constant_foot_zeroes_foot_blocks(self):
        rng = np.random.default_rng(1)
        imu, foot = series_pair(rng.normal(size=(30, 3)), np.tile([0.2, -0.4, 0.9], (30, 1)))
        cov = covariance_set(imu, foot)
        np.testing.assert_allclose(cov.sigma_ff, np.zeros((3, 3)), atol=1e-30)
        np.testing.assert_allclose(cov.sigma_if, np.zeros((3, 3)), atol=1e-30)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=(50, 3))
            y = rng.normal(size=(50, 3))
            imu, foot = series_pair(x, y)
            cov = covariance_set(imu, foot)
            scale = np.abs(cov.sigma_if).max()
            np.testing.assert_allclose(cov.sigma_ii, brute_force_pair_covariance(x, x),
                                       rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(cov.sigma_ff, brute_force_pair_covariance(y, y),
                                       rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(cov.sigma_if, brute_force_pair_covariance(x, y),
                                       rtol=1e-12, atol=1e-12 * scale)

    def test_cross_blocks_are_exact_transposes(self):
        rng = np.random.default_rng(3)
        imu, foot = series_pair(rng.normal(size=(25, 3)), rng.normal(size=(25, 3)))
        cov = covariance_set(imu, foot)
        assert np.array_equal(cov.sigma_fi, cov.sigma_if.T)

    def test_auto_blocks_are_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        imu, foot = series_pair(rng.normal(size=(60, 3)), rng.normal(size=(60, 3)))
        cov = covariance_set(imu, foot)
        for sigma in (cov.sigma_ii, cov.sigma_ff):
            eigenvalues = np.linalg.eigvalsh(sigma)
            assert eigenvalues.min() >= -1e-9 * eigenvalues.max()

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        imu, _ = series_pair(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)))
        _, foot = series_pair(rng.normal(size=(12, 3)), rng.normal(size=(12, 3)))
        with pytest.raises(ValueError):
            covariance_set(imu, foot)


class TestTraceCorrelation:
    def test_exact_rotation_gives_unity(self, foot_series):
        truth = GroundTruth.from_euler_deg(40.0, -30.0, 75.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        r = trace_correlation(covariance_set(imu, foot_series))
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_is_uncorrelated(self):
        rng = np.random.default_rng(8)
        imu, foot = series_pair(rng.normal(size=(10_000, 3)), rng.normal(size=(10_000, 3)))
        assert trace_correlation(covariance_set(imu, foot)) < 0.05

    def test_singular_auto_covariance_rejected(self):
        rng = np.random.default_rng(9)
        foot_samples = np.zeros((100, 3))
        foot_samples[:, 2] = np.sin(np.arange(100) / 10.0)
        imu, foot = series_pair(rng.normal(size=(100, 3)), foot_samples)
        with pytest.raises(IllConditionedError):
            trace_correlation(covariance_set(imu, foot))

    def test_invariant_under_common_rotation(self, foot_series):
        truth = GroundTruth.from_euler_deg(15.0, 25.0, -60.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.02, seed=12))
        base = trace_correlation(covariance_set(imu, foot_series))
        fixed = GroundTruth.from_euler_deg(-50.0, 20.0, 130.0).rotation
        imu_rot = AngularVelocitySeries(imu.time_grid, imu.samples @ fixed.T, Frame.FOOT_IMU)
        foot_rot = AngularVelocitySeries(foot_series.time_grid,
                                         foot_series.samples @ fixed.T, Frame.FOOT_KINEMATIC)
        rotated = trace_correlation(covariance_set(imu_rot, foot_rot))
        assert rotated == pytest.approx(base, abs=1e-9)


class TestEstimateTimeOffset:
    def test_zero_offset_noiseless(self, foot_series):
        truth = GroundTruth.from_euler_deg(10.0, 20.0, 30.0, time_offset=0.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range=0.25))
        assert abs(estimate.time_offset) <= 1e-9 / RATE

    def test_twenty_ms_offset_within_one_step(self, foot_series):
        truth = GroundTruth.from_euler_deg(10.0, 20.0, 30.0, time_offset=0.020)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range=0.1))
        assert abs(estimate.time_offset - 0.020) <= 0.001

    def test_scan_maximum_matches_estimate(self, foot_series):
        truth = GroundTruth.from_euler_deg(5.0, -15.0, 40.0, time_offset=0.016)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.01, seed=3))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range=0.25))
        scan = estimate.scan
        best = scan[np.nanargmax(scan[:, 1]), 0]
        assert abs(estimate.time_offset - best) <= 0.5 / RATE

    @pytest.mark.parametrize("t_d", [0.0073, -0.0151, 0.0417])
    def test_off_grid_offset_refined_within_a_fiftieth_of_a_sample(self, foot_series, t_d):
        # the truths sit 0.35 to 0.55 samples off the lag grid; the parabola
        # through the best lag and its neighbours must land on them
        truth = GroundTruth.from_euler_deg(10.0, 20.0, 30.0, time_offset=t_d)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.01, seed=4))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range=0.1))
        assert abs(estimate.time_offset - t_d) <= 0.02 / RATE

    @pytest.mark.parametrize("t_d", [-0.02, 0.02])
    def test_truth_at_scan_edge_gives_edge_lag(self, foot_series, t_d):
        # the peak lag has no outer neighbour, so no parabola is fitted
        truth = GroundTruth.from_euler_deg(10.0, 20.0, 30.0, time_offset=t_d)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.01, seed=4))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range=0.02))
        edge = estimate.scan[0 if t_d < 0 else -1]
        assert edge[1] == np.nanmax(estimate.scan[:, 1])
        assert estimate.time_offset == edge[0]

    @pytest.mark.parametrize("silent_x_samples, level, held", [
        pytest.param(0, 0.0, 0.0, id="0"),
        pytest.param(1001, 0.0, 0.0, id="1001"),
        pytest.param(0, 1e3, 0.0, id="dc"),
        pytest.param(1001, 0.0, 0.7, id="held"),
        pytest.param(1001, 1e3, 1e3 + 0.7, id="held-dc"),
    ])
    def test_scan_matches_covariance_set_path(self, foot_series, silent_x_samples, level, held):
        # every scan value is trace_correlation(covariance_set(...)) of the
        # IMU window slid by that integer lag, to a relative 1e-10 (the
        # one-pass scan sums in another order than the per-lag covariances),
        # with NaN at exactly the same lags, and the estimate carries the
        # covariance set of the IMU window resampled at the estimated offset,
        # bit for bit. With the IMU x axis held constant over its first 1001
        # samples, the lags whose IMU window lies inside that stretch have a
        # singular auto-covariance and score NaN. A nonzero constant survives
        # centring, so only exact cancellation in the running sums of the
        # scan finds those lags singular; under a DC level of 1e3 on every
        # axis that holds only if the sums start from centred samples.
        truth = GroundTruth.from_euler_deg(12.0, -40.0, 70.0, time_offset=0.03)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.03, seed=17))
        samples = imu.samples + level
        samples[:silent_x_samples, 0] = held
        imu = AngularVelocitySeries(imu.time_grid, samples, Frame.FOOT_IMU)
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(0.1),
                                        window_samples=100)

        i0, i1 = _paired_window(imu, foot_series, foot_series.uniform_dt(), 0.1, 100)
        t = foot_series.time_grid[i0:i1]
        foot = AngularVelocitySeries(t, foot_series.samples[i0:i1], Frame.FOOT_KINEMATIC)
        lags = np.arange(-50, 51)
        np.testing.assert_array_equal(estimate.scan[:, 0], lags * foot_series.uniform_dt())

        expected = []
        for k in lags:
            imu_window = AngularVelocitySeries(t, imu.samples[i0 + k:i1 + k], Frame.FOOT_IMU)
            try:
                expected.append(trace_correlation(covariance_set(imu_window, foot)))
            except IllConditionedError:
                expected.append(np.nan)
        np.testing.assert_array_equal(np.isnan(estimate.scan[:, 1]), np.isnan(expected))
        np.testing.assert_allclose(estimate.scan[:, 1], expected, rtol=1e-10, atol=0,
                                   equal_nan=True)
        assert np.isnan(expected).sum() == (2 if silent_x_samples else 0)
        shifted = AngularVelocitySeries(
            t, resample(imu.time_grid, imu.samples, t + estimate.time_offset), Frame.FOOT_IMU)
        refined = covariance_set(shifted, foot)
        for name in ("sigma_ii", "sigma_ff", "sigma_if", "sigma_fi"):
            np.testing.assert_array_equal(getattr(estimate.covariance, name),
                                          getattr(refined, name))

    def test_range_beyond_quarter_span_rejected(self, foot_series):
        with pytest.raises(ValueError):
            estimate_time_offset(foot_series, foot_series,
                                 OffsetSearch(offset_range=foot_series.span / 2))


class TestEstimateRotation:
    def test_identical_series_give_identity(self, foot_series):
        imu = AngularVelocitySeries(foot_series.time_grid, foot_series.samples.copy(),
                                    Frame.FOOT_IMU)
        rotation = estimate_rotation(covariance_set(imu, foot_series))
        np.testing.assert_allclose(rotation, np.eye(3), atol=1e-9)

    def test_recovers_injected_rotation(self, foot_series):
        truth = GroundTruth.from_euler_deg(30.0, 45.0, 60.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        rotation = estimate_rotation(covariance_set(imu, foot_series))
        assert rotation_error(rotation, truth.euler_deg).degrees <= 1e-6

    def test_best_fit_minimizes_prediction_residual(self, foot_series):
        # the returned rotation maps IMU samples onto foot samples with a
        # smaller squared residual than its transpose
        truth = GroundTruth.from_euler_deg(25.0, -50.0, 140.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.005, seed=21))
        best_fit = estimate_rotation(covariance_set(imu, foot_series))

        def residual(rotation):
            return float(np.sum((imu.samples @ rotation.T - foot_series.samples) ** 2))

        assert residual(best_fit) < residual(best_fit.T)

    def test_is_projection_of_least_squares_map(self, foot_series):
        # R is the SO(3) projection of S_FF^-1 S_FI, not a residual minimizer
        truth = GroundTruth.from_euler_deg(25.0, -50.0, 140.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.03, seed=21))
        cov = covariance_set(imu, foot_series)
        u, _, vt = np.linalg.svd(np.linalg.solve(cov.sigma_ff, cov.sigma_fi))
        projected = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
        np.testing.assert_allclose(estimate_rotation(cov), projected, rtol=0, atol=1e-15)

    def test_residual_minimizer_differs_on_noisy_ill_conditioned_gait(self):
        # on a noisy walk the Kabsch rotation of S_FI leaves a smaller
        # residual sum ||R w_imu - w_foot||^2 than the projected map
        foot = trajectory_to_foot_velocity(baseline_gait(GaitKind.WALK))
        truth = GroundTruth.from_euler_deg(25.0, -50.0, 140.0)
        imu = simulate_imu(foot, truth, NoiseModel(0.06, seed=21))
        cov = covariance_set(imu, foot)
        u, _, vt = np.linalg.svd(cov.sigma_fi)
        kabsch = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt

        def residual(rotation):
            return np.trace(cov.sigma_ii) + np.trace(cov.sigma_ff) - 2 * np.trace(rotation @ cov.sigma_if)

        assert residual(kabsch) < residual(estimate_rotation(cov))

    def test_rank_deficiency_names_axis(self):
        with pytest.raises(RankDeficiencyError) as excinfo:
            estimate_rotation(covariance_set(*z_only_pair()))
        assert excinfo.value.axis in ("x", "y")


class TestCalibrate:
    def test_rank_deficient_motion_names_its_weak_axis(self):
        # the offset scan checks the foot covariance before it runs, with
        # the floor that names the axis
        with pytest.raises(RankDeficiencyError) as excinfo:
            calibrate(*z_only_pair(), OffsetSearch(0.05))
        assert excinfo.value.axis in ("x", "y")

    def test_noiseless_identity_round_trip(self, foot_series):
        truth = GroundTruth(rotation=np.eye(3), time_offset=0.0)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        result = calibrate(imu, foot_series, SEARCH, WINDOW)
        np.testing.assert_allclose(result.rotation, np.eye(3), atol=1e-9)
        assert abs(result.time_offset) <= 1e-9 / RATE
        assert result.correlation == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_noiseless_consistency_recovers_injected_truth(self, foot_series, seed):
        # primary oracle-equivalence property: with zero noise and an
        # on-grid offset, calibration reproduces the injected truth to
        # within rounding (the parabolic refinement is not grid-valued)
        rng = np.random.default_rng(seed)
        truth = random_ground_truth(rng, offset_range=0.1, grid_step=1 / RATE)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.0))
        result = calibrate(imu, foot_series, SEARCH, WINDOW)
        assert abs(result.time_offset - truth.time_offset) <= 1e-9 / RATE
        assert rotation_error(result.rotation, truth.euler_deg).degrees <= 1e-6

    def test_noisy_truth_recovery(self, foot_series):
        truth = GroundTruth.from_euler_deg(33.0, -21.0, 95.0, time_offset=0.042)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.03, seed=5))
        result = calibrate(imu, foot_series, SEARCH, WINDOW)
        assert rotation_error(result.rotation, truth.euler_deg).degrees <= 1.0
        assert abs(result.time_offset - truth.time_offset) <= 0.002
        assert result.correlation >= 0.99

    def test_median_error_degrades_with_noise(self, foot_series):
        truth = GroundTruth.from_euler_deg(20.0, 10.0, -45.0, time_offset=0.01)
        medians = []
        for density in (0.006, 0.03, 0.06):
            errors = []
            for seed in range(20):
                imu = simulate_imu(foot_series, truth,
                                   NoiseModel(density, seed=1000 + seed))
                result = calibrate(imu, foot_series, SEARCH, WINDOW)
                errors.append(rotation_error(result.rotation, truth.euler_deg).degrees)
            medians.append(float(np.median(errors)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_frame_tags_enforced(self, foot_series):
        with pytest.raises(ValueError):
            calibrate(foot_series, foot_series, SEARCH, WINDOW)

    def test_correlation_is_scan_maximum(self):
        # failed lags are NaN in the scan and do not count
        scan = np.array([[-0.002, np.nan], [0.0, 0.4], [0.002, 0.6]])
        result = CalibrationResult(rotation=np.eye(3), time_offset=0.002,
                                   condition_number=1.0, offset_scan=scan)
        assert result.correlation == 0.6

    def test_result_requires_a_finite_correlation(self):
        scan = np.array([[0.0, np.nan], [0.002, np.nan]])
        with pytest.raises(ValueError, match="finite correlation"):
            CalibrationResult(rotation=np.eye(3), time_offset=0.0, condition_number=1.0,
                              offset_scan=scan)
