import importlib
import math

import numpy as np
import pytest

from footcalib import (
    AngularVelocitySeries,
    BasisSpec,
    CalibrationResult,
    Frame,
    GroundTruth,
    IllConditionedError,
    Motion,
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
from footcalib.calibrate import (
    _ROWS,
    _COLS,
    _cholesky,
    _fft_length,
    _singular,
    _usable,
    foot_side,
    require_excited,
    scan_offset,
)
from footcalib.kinematics import resample
from conftest import brute_force_pair_covariance, solve_trace_correlation

RATE = 500.0
# the package exports a function of the same name, so the submodule is reached by import path
calibrate_module = importlib.import_module("footcalib.calibrate")

# Hand-picked low-condition-number basis amplitudes; calibration tests
# should not depend on optimizer behaviour.
GOOD_SPEC = BasisSpec(hip_rate_coeffs=[1.2, 0.8, 5.3], pitch_rate_coeffs=[3.7, 0.4, 0.3],
                      period=2.0)


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


def window_bounds(foot, offset_range, window_samples):
    """The foot window [i0, i1) of a scan over ±``offset_range`` on ``window_samples``."""
    side = foot_side(foot, offset_range, window_samples)
    return side.i0, side.i1


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


def screened_stack():
    """Symmetric 3x3 matrices from well conditioned to singular, plus exact zeros and an indefinite one."""
    rng = np.random.default_rng(21)
    spectra = [(1.0, 0.3, ratio) for ratio in np.logspace(-6, -14, 33)]
    spectra += [(1.0, ratio, ratio) for ratio in (1e-8, 1e-12, 1e-13)]
    spectra.append((2.0, -1.0, -0.5))  # det > 0 with two negative eigenvalues
    stack = []
    for spectrum in spectra:
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        stack.append(q @ np.diag(spectrum) @ q.T)
    stack.append(np.zeros((3, 3)))
    stack.append(np.diag([0.0, 1.0, 2.0]))
    stack.append(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    return np.array([(m + m.T) / 2.0 for m in stack])


class TestFloorScreen:
    def test_screen_and_fallback_equal_the_eigenvalue_floor(self, monkeypatch):
        # the determinant screen clears a matrix only where it is provably
        # above the 1e-12 floor; the rest go to _singular, so the mask is
        # exactly ~_singular of the whole stack
        stack = screened_stack()
        upper = stack[:, _ROWS, _COLS].T
        with np.errstate(divide="ignore", invalid="ignore"):
            l00, _, _, l11, _, l22 = _cholesky(upper)
        checked = []

        def recording_singular(sigma):
            checked.append(len(sigma))
            return _singular(sigma)

        monkeypatch.setattr(calibrate_module, "_singular", recording_singular)
        usable = _usable(upper, (l00, l11, l22))
        np.testing.assert_array_equal(usable, ~_singular(stack))
        assert usable.any() and not usable.all()
        assert len(checked) == 1 and 0 < checked[0] < len(stack)
        assert usable[-4]  # the indefinite matrix clears the floor of its absolute eigenvalues

    def test_rounding_level_middle_eigenvalue_is_not_cleared(self):
        # eigenvalues 1, 1e-17 and 1e-19 under a rotation: the computed sum
        # of principal 2x2 minors comes out negative while the Cholesky
        # determinant stays positive, so det > 1e-9 e2 tr would clear this
        # singular matrix; the floored e2 sends it to the eigenvalue check
        upper = np.array([9.578516766157136e-05, 0.007597003533573896, 0.006169402740467203,
                          0.6025407074825678, 0.4893134872924363, 0.3973635073497704])[:, None]
        sigma = np.empty((1, 3, 3))
        sigma[:, _ROWS, _COLS] = sigma[:, _COLS, _ROWS] = upper.T
        s00, s01, s02, s11, s12, s22 = upper
        l00, _, _, l11, _, l22 = _cholesky(upper)
        assert s00 * s11 - s01 ** 2 + s00 * s22 - s02 ** 2 + s11 * s22 - s12 ** 2 < 0.0
        assert np.square(l00 * l11 * l22) > 0.0
        assert _singular(sigma)[0]
        assert not _usable(upper, (l00, l11, l22))[0]

    def test_no_eigenvalue_check_when_every_matrix_clears_the_screen(self, monkeypatch):
        def failing_singular(sigma):
            raise AssertionError("_singular called")

        monkeypatch.setattr(calibrate_module, "_singular", failing_singular)
        stack = screened_stack()[:5]
        upper = stack[:, _ROWS, _COLS].T
        l00, _, _, l11, _, l22 = _cholesky(upper)
        assert _usable(upper, (l00, l11, l22)).all()


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
        # with NaN at exactly the same lags, and the estimate's S_IF is that
        # of the IMU window resampled at the estimated offset, to a relative
        # 1e-12 (it interpolates the scan's own). With the IMU x axis held
        # constant over its first 1001 samples, the lags whose IMU window
        # lies inside that stretch have a singular auto-covariance and score
        # NaN. A nonzero constant survives centring, so only exact
        # cancellation in the running sums of the scan finds those lags
        # singular; under a DC level of 1e3 on every axis that holds only if
        # the sums start from centred samples.
        truth = GroundTruth.from_euler_deg(12.0, -40.0, 70.0, time_offset=0.03)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.03, seed=17))
        samples = imu.samples + level
        samples[:silent_x_samples, 0] = held
        imu = AngularVelocitySeries(imu.time_grid, samples, Frame.FOOT_IMU)
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(0.1),
                                        window_samples=100)

        i0, i1 = window_bounds(foot_series, 0.1, 100)
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
        np.testing.assert_array_equal(estimate.sigma_ff, refined.sigma_ff)
        assert_relative_max_norm(estimate.sigma_if, refined.sigma_if, 1e-12)
        assert np.array_equal(estimate.sigma_fi, estimate.sigma_if.T)

    @pytest.mark.parametrize("t_d, offset_range, window, sign", [
        pytest.param(0.0065, 0.1, WINDOW, 1.0, id="positive-fraction"),
        pytest.param(-0.0065, 0.1, WINDOW, -1.0, id="negative-fraction"),
        pytest.param(0.02, 0.02, WINDOW, 0.0, id="scan-edge"),
        pytest.param(0.0, 0.0, None, 0.0, id="one-lag"),
    ])
    def test_cross_covariance_interpolates_the_bracketing_lags(self, foot_series, t_d,
                                                               offset_range, window, sign):
        # S_IF at the refined lag x is (1 - f) S_IF(k) + f S_IF(k + 1) with
        # k = floor(x) and f = x - k: a peak refined downwards takes the lag
        # below it, and an unrefined peak (a scan edge, or the only lag) its
        # own lag alone. Either way it is the S_IF of the IMU window
        # resampled there. ``sign`` is that of the peak's refinement
        truth = GroundTruth.from_euler_deg(10.0, 20.0, 30.0, time_offset=t_d)
        imu = simulate_imu(foot_series, truth, NoiseModel(0.01, seed=4))
        estimate = estimate_time_offset(imu, foot_series, OffsetSearch(offset_range), window)
        dt = foot_series.uniform_dt()
        lag = estimate.time_offset / dt
        refinement = lag - estimate.scan[np.nanargmax(estimate.scan[:, 1]), 0] / dt
        assert np.sign(refinement) == sign and abs(refinement) < 0.5

        i0, i1 = window_bounds(foot_series, offset_range, window)
        t = foot_series.time_grid[i0:i1]
        shifted = resample(imu.time_grid, imu.samples, t + estimate.time_offset)
        oracle = covariance_set(AngularVelocitySeries(t, shifted, Frame.FOOT_IMU),
                                AngularVelocitySeries(t, foot_series.samples[i0:i1],
                                                      Frame.FOOT_KINEMATIC))
        assert_relative_max_norm(estimate.sigma_if, oracle.sigma_if, 1e-12)
        if sign == 0.0:
            k = int(round(lag))
            assert lag == k
            slid = brute_force_pair_covariance(imu.samples[i0 + k:i1 + k],
                                               foot_series.samples[i0:i1])
            assert_relative_max_norm(estimate.sigma_if, slid, 1e-12)

    @pytest.mark.parametrize("kind", [Motion.WALK, Motion.SPIN, Motion.WAVE],
                             ids=["walk", "spin", "wave"])
    def test_scan_matches_solve_oracle_on_ill_conditioned_gaits(self, kind):
        # the comparison gaits leave S_II far from isotropic, where the
        # whitened scan must still agree with two per-lag linear solves to a
        # relative 1e-10; an adjugate form, Tr(adj(S_II) S_IF S_FF^-1 S_FI)
        # / det(S_II), misses that bound on walk and spin
        foot = trajectory_to_foot_velocity(baseline_gait(kind, RATE))
        truth = GroundTruth.from_euler_deg(12.0, -40.0, 70.0, time_offset=0.03)
        imu = simulate_imu(foot, truth, NoiseModel(0.006, seed=5))
        estimate = estimate_time_offset(imu, foot, OffsetSearch(0.1))

        i0, i1 = window_bounds(foot, 0.1, None)
        t = foot.time_grid[i0:i1]
        foot_window = AngularVelocitySeries(t, foot.samples[i0:i1], Frame.FOOT_KINEMATIC)
        expected = []
        for k in range(-50, 51):
            cov = covariance_set(
                AngularVelocitySeries(t, imu.samples[i0 + k:i1 + k], Frame.FOOT_IMU), foot_window)
            try:
                require_excited(cov.sigma_ii, "sigma_ii")
            except IllConditionedError:
                expected.append(np.nan)
                continue
            expected.append(solve_trace_correlation(cov.sigma_ii, cov.sigma_ff, cov.sigma_if))
        np.testing.assert_array_equal(np.isnan(estimate.scan[:, 1]), np.isnan(expected))
        np.testing.assert_allclose(estimate.scan[:, 1], expected, rtol=1e-10, atol=0,
                                   equal_nan=True)

    def test_range_beyond_quarter_span_rejected(self, foot_series):
        with pytest.raises(ValueError):
            estimate_time_offset(foot_series, foot_series,
                                 OffsetSearch(offset_range=foot_series.span / 2))


def assert_relative_max_norm(actual, expected, rtol):
    """``actual`` within ``rtol`` of the largest entry of ``expected``, entry by entry."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rtol * np.abs(expected).max())


def dot_product_scan(imu, foot, offset_range, window_samples):
    """Per-lag oracle of the offset scan: each covariance from explicit centred dot
    products of the slid IMU window with the foot window, r by two linear solves,
    and NaN where S_II(k) fails the ``require_excited`` floor."""
    dt = foot.uniform_dt()
    i0, i1 = window_bounds(foot, offset_range, window_samples)
    n = int(math.floor(offset_range / dt + 1e-9))
    f = foot.samples[i0:i1] - foot.samples[i0:i1].mean(axis=0)
    scale = 1.0 / (i1 - i0 - 1)
    sigma_ff = np.einsum("ta,tb->ab", f, f) * scale
    expected = []
    for k in range(-n, n + 1):
        x = imu.samples[i0 + k:i1 + k] - imu.samples[i0 + k:i1 + k].mean(axis=0)
        sigma_ii = np.einsum("ta,tb->ab", x, x) * scale
        try:
            require_excited(sigma_ii, "sigma_ii")
        except IllConditionedError:
            expected.append(np.nan)
            continue
        expected.append(solve_trace_correlation(sigma_ii, sigma_ff,
                                                np.einsum("ta,tb->ab", x, f) * scale))
    return np.array(expected)


def gait_foot(kind):
    return trajectory_to_foot_velocity(baseline_gait(kind, RATE))


def basis_foot(samples):
    """The hand-picked calibration motion over ``samples`` samples from t = 0."""
    return trajectory_to_foot_velocity(eval_basis(GOOD_SPEC, np.arange(samples) / RATE))


def white_foot(samples):
    """Independent normal foot samples, which excite every axis within any 4 samples."""
    rng = np.random.default_rng(11)
    return AngularVelocitySeries(np.arange(samples) / RATE, rng.normal(size=(samples, 3)),
                                 Frame.FOOT_KINEMATIC)


class TestFftScan:
    @pytest.mark.parametrize("make_foot, offset_range, window, block, fft_length", [
        pytest.param(lambda: gait_foot(Motion.WALK), 0.0, None, 2001, 2025, id="one-lag"),
        pytest.param(lambda: basis_foot(2003), 0.1, None, 2003, 2025, id="prime-block"),
        pytest.param(lambda: white_foot(2001), 0.1, 4, 104, 108, id="smallest-window"),
        pytest.param(lambda: gait_foot(Motion.WALK), 0.25, None, 2001, 2025, id="walk"),
        pytest.param(lambda: gait_foot(Motion.SPIN), 0.25, None, 2001, 2025, id="spin"),
        pytest.param(lambda: gait_foot(Motion.WAVE), 0.25, None, 2001, 2025, id="wave"),
        pytest.param(lambda: basis_foot(2001), 0.25, WINDOW, 1250, 1250, id="a2i-period"),
    ])
    def test_matches_dot_product_oracle(self, make_foot, offset_range, window, block,
                                        fft_length):
        # the FFT scores every lag at once; each lag must agree with its own
        # dot products to a relative 1e-10, the tolerance of the solve
        # oracle, so a wrapped or misaligned lag at either scan edge shows.
        # The block is the IMU span the scan reads, W + 2n samples, and the
        # transform length the next 5-smooth number at or above it; 2003 is
        # prime, and 4 is the smallest window whose foot covariance can
        # clear the floor (W - 1 >= 3), so that case scans white samples
        foot = make_foot()
        truth = GroundTruth.from_euler_deg(12.0, -40.0, 70.0, time_offset=0.03)
        imu = simulate_imu(foot, truth, NoiseModel(0.006, seed=5))
        i0, i1 = window_bounds(foot, offset_range, window)
        n = int(math.floor(offset_range * RATE + 1e-9))
        assert (i1 - i0 + 2 * n, _fft_length(i1 - i0 + 2 * n)) == (block, fft_length)
        estimate = estimate_time_offset(imu, foot, OffsetSearch(offset_range), window)
        expected = dot_product_scan(imu, foot, offset_range, window)
        assert len(expected) == 2 * n + 1
        np.testing.assert_array_equal(np.isnan(estimate.scan[:, 1]), np.isnan(expected))
        np.testing.assert_allclose(estimate.scan[:, 1], expected, rtol=1e-10, atol=0,
                                   equal_nan=True)

    def test_fft_length_is_the_smallest_5_smooth_number_at_least_n(self):
        limit = 5000
        smooth = []
        for m in range(1, 2 * limit):
            rest = m
            for p in (2, 3, 5):
                while rest % p == 0:
                    rest //= p
            if rest == 1:
                smooth.append(m)
        smooth = np.array(smooth)
        for n in range(1, limit + 1):
            assert _fft_length(n) == smooth[np.searchsorted(smooth, n)], n


class TestFootSide:
    def test_one_side_serves_every_stream(self, foot_series):
        # one foot side, built once, scans each IMU stream exactly as
        # estimate_time_offset does with a side of its own
        side = foot_side(foot_series, 0.1, WINDOW)
        for t_d, density, seed in ((0.016, 0.03, 3), (-0.042, 0.006, 4), (0.0, 0.0, 0)):
            truth = GroundTruth.from_euler_deg(5.0, -15.0, 40.0, time_offset=t_d)
            imu = simulate_imu(foot_series, truth, NoiseModel(density, seed=seed))
            estimate = estimate_time_offset(imu, foot_series, OffsetSearch(0.1), WINDOW)
            time_offset, rs, sigma_if = scan_offset(side, imu.samples)
            assert time_offset == estimate.time_offset
            assert side.kappa == estimate.condition_number
            np.testing.assert_array_equal(estimate.scan[:, 0], side.lags * foot_series.uniform_dt())
            np.testing.assert_array_equal(estimate.scan[:, 1], rs)
            np.testing.assert_array_equal(sigma_if, estimate.sigma_if)
            np.testing.assert_array_equal(side.sigma_ff, estimate.sigma_ff)

    def test_arrays_are_read_only(self, foot_series):
        # the one-period window in the middle, and 50 lags on either side of it
        side = foot_side(foot_series, 0.1, WINDOW)
        assert (side.i0, side.i1, len(side.lags)) == (500, 1500, 101)
        assert side.fft_length == _fft_length(1100)
        arrays = [value for value in vars(side).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 4
        np.testing.assert_array_equal(side.cholesky_t, np.linalg.cholesky(side.sigma_ff).T)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0
        # the side holds its foot series as it was given
        assert side.foot is foot_series and foot_series.samples.flags.writeable


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
        foot = trajectory_to_foot_velocity(baseline_gait(Motion.WALK))
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
        truth = GroundTruth.from_euler_deg(0.0, 0.0, 0.0)
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
        eye = np.eye(3)
        result = CalibrationResult(time_offset=0.002, scan=scan, sigma_ff=eye, sigma_if=eye,
                                   condition_number=1.0, rotation=eye)
        assert result.correlation == 0.6

    def test_silent_imu_fails_every_lag(self, foot_series):
        # a zero IMU covariance is singular at every lag, so no lag scores
        # and no result can hold a finite correlation
        silent = AngularVelocitySeries(foot_series.time_grid, np.zeros((len(foot_series), 3)),
                                       Frame.FOOT_IMU)
        with pytest.raises(IllConditionedError, match="every offset candidate failed"):
            calibrate(silent, foot_series, SEARCH, WINDOW)
