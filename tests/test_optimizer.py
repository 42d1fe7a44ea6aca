import math
from dataclasses import replace

import numpy as np
import pytest

from footcalib import (
    BasisSpec,
    IllConditionedError,
    LegGeometry,
    Motion,
    OptimizerConfig,
    condition_number,
    eval_basis,
    harness,
    initial_basis_spec,
    loss_gradient,
    optimize,
    period_samples,
    trajectory_loss,
    trajectory_to_foot_velocity,
)
from footcalib.calibrate import require_excited
from footcalib.optimizer import diagonality_ratio, sample_covariance
from conftest import brute_force_pair_covariance


def one_period(spec, rate):
    """Half-open grid t = 0 .. T - 1/rate over one period of ``spec``."""
    return np.arange(period_samples(spec.period, rate)) / rate


def fd_gradient(spec, config, geometry, epsilon=1e-6):
    """Central finite-difference gradient of the loss, the condition number,
    over the stacked (hip, pitch) amplitudes: the oracle for the analytic
    ``loss_gradient``."""
    n = spec.harmonic_count
    params = np.concatenate([spec.hip_rate_coeffs, spec.pitch_rate_coeffs])

    def loss_at(p):
        probe = replace(spec, hip_rate_coeffs=p[:n], pitch_rate_coeffs=p[n:])
        return trajectory_loss(probe, config, geometry).kappa

    grad = np.zeros(len(params))
    for j in range(len(params)):
        step = np.zeros(len(params))
        step[j] = epsilon
        grad[j] = (loss_at(params + step) - loss_at(params - step)) / (2 * epsilon)
    return grad


def reference_descent(initial, config, geometry):
    """The projected BFGS descent of ``optimize``, written out over the public
    loss and gradient, each evaluating its spec on its own, with the
    joint-limit normals read from ``eval_basis``: the oracle for
    ``optimize``, whose gradient and normals read the evaluation carried by
    the accepted candidate's report.
    Returns (final params, kappa history, iterations)."""
    n = initial.harmonic_count
    w = initial.angular_frequencies
    grid = one_period(initial, config.imu_frequency)
    phase = np.outer(w, grid)
    sin_ph, cos_ph = np.sin(phase), np.cos(phase)
    zeros = np.zeros(n)

    def spec_at(p):
        return replace(initial, hip_rate_coeffs=p[:n], pitch_rate_coeffs=p[n:])

    def angle_gradient(joint, sample):
        if joint == "hip":
            return np.concatenate([-cos_ph[:, sample] / w, zeros])
        share = initial.calf_share if joint == "calf" else 1.0 - initial.calf_share
        return np.concatenate([zeros, share * sin_ph[:, sample] / w])

    def outward_normals(spec):
        traj = eval_basis(spec, grid)
        normals = []
        for joint in ("hip", "thigh", "calf"):
            angles = getattr(traj, f"theta_{joint}")
            lower, upper = geometry.limits(joint)
            high, low = angles.argmax(), angles.argmin()
            upper_slack, lower_slack = upper - angles[high], angles[low] - lower
            if upper_slack <= min(lower_slack, 1e-3):
                normals.append(angle_gradient(joint, high))
            elif lower_slack <= 1e-3:
                normals.append(-angle_gradient(joint, low))
        return normals

    def project(direction, normals):
        basis = []
        for normal in normals:
            if direction @ normal > 0.0:
                v = normal
                for q in basis:
                    v = v - (v @ q) * q
                if math.sqrt(v @ v) > 1e-12 * math.sqrt(normal @ normal):
                    basis.append(v / math.sqrt(v @ v))
        for q in basis:
            direction = direction - (direction @ q) * q
        return direction

    def search(params, report, direction, first, floor, slope):
        step = first
        while step >= floor * first:
            candidate = params + step * direction
            cand = trajectory_loss(spec_at(candidate), config, geometry)
            if (math.isfinite(cand.kappa) and cand.kappa < report.kappa
                    and cand.kappa <= report.kappa + 1e-4 * step * slope
                    and cand.in_bounds):
                return candidate, cand
            step *= 0.5
        return None

    params = np.concatenate([initial.hip_rate_coeffs, initial.pitch_rate_coeffs])
    report = trajectory_loss(initial, config, geometry)
    kappas = [report.kappa]
    converged = report.kappa < config.kappa_objective
    iterations = 0
    h = config.step_size * np.eye(2 * n)
    previous = None
    while not converged and iterations < config.max_iterations:
        iterations += 1
        spec = spec_at(params)
        grad = loss_gradient(spec, config)
        if not np.all(np.isfinite(grad)):
            break
        if previous is not None:
            s, y = params - previous[0], grad - previous[1]
            sy = s @ y
            if sy > 0.0:
                hy = h @ y
                h = h + ((sy + y @ hy) / sy ** 2) * np.outer(s, s) - (
                    np.outer(hy, s) + np.outer(s, hy)) / sy
        previous = params, grad
        normals = outward_normals(spec)
        direction = project(-(h @ grad), normals)
        accepted = search(params, report, direction, 1.0, 2.0 ** -6, grad @ direction)
        if accepted is None:
            h = config.step_size * np.eye(2 * n)
            accepted = search(params, report, project(-grad, normals),
                              config.step_size, 1e-15, 0.0)
        if accepted is None:
            break
        params, report = accepted
        kappas.append(report.kappa)
        converged = report.kappa < config.kappa_objective
    return params, np.asarray(kappas), iterations


class TestDeriveSchedule:
    """The time base an ``OptimizerConfig`` derives from its sample rate and offset range."""

    def test_reference_schedule(self):
        config = OptimizerConfig()
        assert config.base_frequency == pytest.approx(math.pi, rel=1e-15)
        assert config.period == pytest.approx(2.0, rel=1e-15)
        assert period_samples(config.period, config.imu_frequency) == 1000
        spec = initial_basis_spec(config)
        assert (spec.base_frequency, spec.period) == (config.base_frequency, config.period)

    def test_slow_imu_schedule(self):
        config = OptimizerConfig(imu_frequency=100.0, offset_range=0.5)
        assert config.base_frequency == pytest.approx(math.pi / 2, rel=1e-15)
        assert config.period == pytest.approx(4.0, rel=1e-15)
        assert period_samples(config.period, config.imu_frequency) == 400

    @pytest.mark.parametrize("imu_freq, t_r", [(500.0, 0.0), (0.0, 0.25), (500.0, -1.0)])
    def test_nonpositive_inputs_rejected(self, imu_freq, t_r):
        with pytest.raises(ValueError):
            OptimizerConfig(imu_frequency=imu_freq, offset_range=t_r)

    def test_whole_to_relative_tolerance(self):
        # 8 * 0.145 * 200 is 231.99999999999997 in floating point
        assert period_samples(8 * 0.145, 200.0) == 232
        assert period_samples(2.0 * (1 + 1e-12), 500.0) == 1000
        with pytest.raises(ValueError):
            period_samples(2.0 * (1 + 1e-8), 500.0)

    @pytest.mark.parametrize("imu_freq, t_r", [(500.0, 0.0501), (333.3, 0.25), (500.0, 0.00025)])
    def test_partial_period_rejected(self, imu_freq, t_r, cal_geometry):
        # 200.4 and 666.6 samples are not whole; one sample is too few
        config = OptimizerConfig(imu_frequency=imu_freq, offset_range=t_r)
        with pytest.raises(ValueError, match="not a whole number of at least 2"):
            initial_basis_spec(config)
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0],
                         base_frequency=config.base_frequency, period=config.period)
        with pytest.raises(ValueError, match="not a whole number of at least 2"):
            diagonality_ratio(spec, imu_freq)
        with pytest.raises(ValueError, match="not a whole number of at least 2"):
            trajectory_loss(spec, config, cal_geometry)


class TestEvalBasis:
    def test_single_harmonic_closed_form(self):
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[0.0],
                         base_frequency=1.0, period=2 * math.pi)
        t = np.arange(200) / 50.0
        traj = eval_basis(spec, t)
        np.testing.assert_allclose(traj.dtheta_hip, np.sin(t), atol=1e-15)
        np.testing.assert_allclose(traj.theta_hip, -np.cos(t), atol=1e-15)
        np.testing.assert_array_equal(traj.dtheta_thigh, np.zeros(200))

    def test_zero_coefficients_give_constant_angles(self):
        spec = BasisSpec(hip_rate_coeffs=[0.0], pitch_rate_coeffs=[0.0],
                         base_frequency=math.pi, period=2.0)
        traj = eval_basis(spec, np.arange(100) / 500.0)
        for name in ("dtheta_hip", "dtheta_thigh", "dtheta_calf"):
            np.testing.assert_array_equal(getattr(traj, name), np.zeros(100))
        assert np.ptp(traj.theta_hip) == 0.0
        assert np.ptp(traj.theta_thigh) == 0.0

    def test_angles_integrate_rates(self):
        # central difference of the emitted angles reproduces the emitted
        # rates to the O(dt^2) truncation bound
        spec = BasisSpec(hip_rate_coeffs=[1.0, 0.5], pitch_rate_coeffs=[0.3, 0.0],
                         base_frequency=math.pi, period=2.0)
        t = np.arange(200) / 100.0
        dt = 0.01
        traj = eval_basis(spec, t)
        w = spec.angular_frequencies
        for angles, rates, coeffs in (
                (traj.theta_hip, traj.dtheta_hip, spec.hip_rate_coeffs),
                (traj.theta_thigh, traj.dtheta_thigh, spec.pitch_rate_coeffs)):
            numeric = (angles[2:] - angles[:-2]) / (2 * dt)
            bound = dt ** 2 / 6 * float(np.sum(np.abs(coeffs) * w ** 2)) + 1e-12
            assert np.max(np.abs(numeric - rates[1:-1])) <= bound

    def test_calf_share_splits_pitch_motion(self):
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[2.0],
                         base_frequency=math.pi, period=2.0, calf_share=0.25)
        traj = eval_basis(spec, np.arange(100) / 500.0)
        np.testing.assert_allclose(traj.dtheta_calf, 0.25 * (traj.dtheta_thigh + traj.dtheta_calf),
                                   rtol=1e-12)
        np.testing.assert_allclose(traj.theta_calf * 3.0, traj.theta_thigh, rtol=1e-12)

    def test_mismatched_coefficients_rejected(self):
        with pytest.raises(ValueError):
            BasisSpec(hip_rate_coeffs=[1.0, 0.5], pitch_rate_coeffs=[1.0],
                      base_frequency=1.0, period=2 * math.pi)


class TestAutoCovariance:
    def test_constant_series_gives_zero(self):
        sigma = sample_covariance(np.tile([0.3, -0.2, 1.1], (50, 1)))
        np.testing.assert_allclose(sigma, np.zeros((3, 3)), atol=1e-30)

    def test_two_point_series(self):
        sigma = sample_covariance(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(sigma, np.diag([2.0, 0.0, 0.0]), atol=1e-15)

    def test_single_harmonic_period_is_diagonal(self):
        rate = 500.0
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0],
                         base_frequency=math.pi, period=2.0)
        traj = eval_basis(spec, one_period(spec, rate))
        series = trajectory_to_foot_velocity(traj)
        sigma = sample_covariance(series.samples)
        off = max(abs(sigma[0, 1]), abs(sigma[0, 2]), abs(sigma[1, 2]))
        assert off <= 1e-9 * sigma.diagonal().max()
        # diagonal matches an independent discrete-sum oracle
        oracle = brute_force_pair_covariance(series.samples, series.samples)
        np.testing.assert_allclose(sigma.diagonal(), oracle.diagonal(), rtol=1e-12)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == 1.0

    def test_diagonal_ratio(self):
        assert condition_number(np.diag([4.0, 2.0, 1.0])) == pytest.approx(4.0, rel=1e-12)

    def test_singular_returns_infinity(self):
        assert condition_number(np.diag([1.0, 1.0, 0.0])) == math.inf
        assert condition_number(np.zeros((3, 3))) == math.inf

    def test_asymmetric_rejected(self):
        m = np.diag([1.0, 1.0, 1.0])
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            condition_number(m)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            m = a @ a.T
            for c in (0.5, -2.0, 7.5):
                assert condition_number(c * c * m) == pytest.approx(
                    condition_number(m), rel=1e-9)


IN_BOUNDS_SPEC = BasisSpec(hip_rate_coeffs=[0.5, 0.5, 0.5], pitch_rate_coeffs=[0.5, 0.5, 0.5],
                           base_frequency=math.pi, period=2.0)


class TestTrajectoryLoss:
    def test_in_limits_loss_is_kappa(self, cal_geometry):
        # the limits only set in_bounds: a spec outside a shrunk thigh limit
        # reports the same condition number
        report = trajectory_loss(IN_BOUNDS_SPEC, OptimizerConfig(), cal_geometry)
        tight = replace(cal_geometry, thigh_limits=(-0.01, 0.01))
        outside = trajectory_loss(IN_BOUNDS_SPEC, OptimizerConfig(), tight)
        assert report.in_bounds and not outside.in_bounds
        assert outside.kappa == report.kappa

    def test_matches_brute_force_oracle(self, cal_geometry):
        config = OptimizerConfig()
        spec = BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0],
                         base_frequency=math.pi, period=2.0)
        report = trajectory_loss(spec, config, cal_geometry)
        traj = eval_basis(spec, one_period(spec, config.imu_frequency))
        series = trajectory_to_foot_velocity(traj)
        sigma = brute_force_pair_covariance(series.samples, series.samples)
        eigenvalues = np.linalg.eigvalsh(sigma)
        assert report.kappa == pytest.approx(eigenvalues[-1] / eigenvalues[0], rel=1e-9)

    def test_kappa_equals_checked_path_bit_for_bit(self, cal_geometry):
        config = OptimizerConfig()
        for seed in range(5):
            spec = initial_basis_spec(config, seed=seed, calf_share=0.3)
            traj = eval_basis(spec, one_period(spec, config.imu_frequency))
            omega = trajectory_to_foot_velocity(traj).samples
            report = trajectory_loss(spec, config, cal_geometry)
            assert report.kappa == condition_number(sample_covariance(omega))

    def test_gradient_consistent_across_epsilons(self, cal_geometry):
        # the finite-difference oracle is stable in its step
        config = OptimizerConfig()
        for seed in range(10):
            spec = initial_basis_spec(config, seed=seed)
            g_fine = fd_gradient(spec, config, cal_geometry, epsilon=1e-6)
            g_coarse = fd_gradient(spec, config, cal_geometry, epsilon=1e-5)
            rel = np.linalg.norm(g_fine - g_coarse) / np.linalg.norm(g_fine)
            assert rel <= 1e-4


class TestLossGradient:
    def test_matches_fd_oracle_on_random_specs(self, cal_geometry):
        config = OptimizerConfig()
        rng = np.random.default_rng(16)
        counts = set()
        for _ in range(120):
            k = int(rng.integers(1, 5))
            counts.add(k)
            spec = BasisSpec(hip_rate_coeffs=rng.uniform(0.2, 4.0, k) * rng.choice([-1, 1], k),
                             pitch_rate_coeffs=rng.uniform(0.2, 8.0, k) * rng.choice([-1, 1], k),
                             base_frequency=math.pi, period=2.0,
                             calf_share=float(rng.uniform(0.01, 0.99)))
            report = trajectory_loss(spec, config, cal_geometry)
            assert math.isfinite(report.kappa)
            oracle = fd_gradient(spec, config, cal_geometry)
            analytic = loss_gradient(spec, config)
            assert np.linalg.norm(analytic - oracle) <= 1e-6 * np.linalg.norm(oracle)
            # the gradient read from the report's evaluation is the
            # standalone one, bit for bit
            assert np.array_equal(loss_gradient(spec, config, report), analytic)
        assert counts == {1, 2, 3, 4}

    @pytest.mark.parametrize("hip", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    def test_infinite_kappa_gives_nan(self, cal_geometry, hip):
        spec = BasisSpec(hip_rate_coeffs=hip, pitch_rate_coeffs=[0.0, 0.0, 0.0],
                         base_frequency=math.pi, period=2.0)
        assert trajectory_loss(spec, OptimizerConfig(), cal_geometry).kappa == math.inf
        assert np.all(np.isnan(loss_gradient(spec, OptimizerConfig())))


@pytest.fixture(scope="module")
def converged_result():
    config = OptimizerConfig(seed=3)
    from footcalib import calibration_geometry

    return optimize(initial_basis_spec(config), config, calibration_geometry())


class TestOptimize:
    def test_reaches_objective_in_bounds(self, converged_result, cal_geometry):
        assert converged_result.converged
        assert trajectory_loss(converged_result.spec, OptimizerConfig(), cal_geometry).in_bounds
        assert converged_result.kappa_final < 1.2

    def test_final_kappa_in_reported_band(self, converged_result):
        assert 1.0 <= converged_result.kappa_final <= 1.6

    def test_already_converged_spec_returned_unchanged(self, converged_result, cal_geometry):
        config = OptimizerConfig(seed=3)
        again = optimize(converged_result.spec, config, cal_geometry)
        assert again.iterations == 0
        assert again.converged
        np.testing.assert_array_equal(again.spec.hip_rate_coeffs,
                                      converged_result.spec.hip_rate_coeffs)
        np.testing.assert_array_equal(again.spec.pitch_rate_coeffs,
                                      converged_result.spec.pitch_rate_coeffs)
        assert len(again.kappa_history) == 1

    def test_loss_history_is_non_increasing(self, converged_result):
        # the loss is kappa and acceptance is strict, so its history
        # strictly decreases
        assert np.all(np.diff(converged_result.kappa_history) < 0.0)

    def test_deterministic_for_fixed_seed(self, cal_geometry):
        config = OptimizerConfig(seed=9, max_iterations=40)
        first = optimize(initial_basis_spec(config), config, cal_geometry)
        second = optimize(initial_basis_spec(config), config, cal_geometry)
        np.testing.assert_array_equal(first.spec.hip_rate_coeffs, second.spec.hip_rate_coeffs)
        np.testing.assert_array_equal(first.spec.pitch_rate_coeffs, second.spec.pitch_rate_coeffs)
        np.testing.assert_array_equal(first.kappa_history, second.kappa_history)

    @pytest.mark.parametrize("hip", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    def test_infinite_kappa_start_stops_unconverged(self, cal_geometry, hip):
        # the covariance of either start is singular, so the loss and its
        # gradient are not finite
        initial = BasisSpec(hip_rate_coeffs=hip, pitch_rate_coeffs=[0.0, 0.0, 0.0],
                            base_frequency=math.pi, period=2.0)
        result = optimize(initial, OptimizerConfig(max_iterations=5), cal_geometry)
        assert not result.converged
        assert result.kappa_final == math.inf
        np.testing.assert_array_equal(result.spec.hip_rate_coeffs, hip)
        np.testing.assert_array_equal(result.spec.pitch_rate_coeffs, np.zeros(3))

    def test_coefficients_stay_finite(self, cal_geometry):
        config = OptimizerConfig(seed=1, max_iterations=60, step_size=5.0)
        result = optimize(initial_basis_spec(config), config, cal_geometry)
        assert np.all(np.isfinite(result.spec.hip_rate_coeffs))
        assert np.all(np.isfinite(result.spec.pitch_rate_coeffs))


class TestFusedDescent:
    """``optimize`` reuses each accepted candidate's evaluation for its
    gradient and its joint-limit normals; its iterates equal the reference
    loop's bit for bit. FL seed 7 projects its steps at the hip limit, and
    the narrow pitch limits make the thigh and calf normals active
    together."""

    @pytest.mark.parametrize("foot, seed, calf_share, pitch_limits", [
        ("FL", 7, 0.0, None), ("FR", 0, 0.0, None), ("RR", 13, 0.0, None),
        ("RL", 2, 0.3, None), ("RL", 0, 0.3, (0.5, 0.25)),
    ], ids=["FL-7-hip-limit", "FR-0", "RR-13", "RL-2-calf-share", "RL-0-pitch-limits"])
    def test_matches_reference_loop(self, foot, seed, calf_share, pitch_limits):
        config = harness.default_experiment_config("unused").optimizer
        init_seed = harness._child_seed(config.seed, 1, harness._foot_code(foot),
                                        harness._MOTION_CODE[Motion.A2I], seed)
        initial = initial_basis_spec(config, seed=init_seed, calf_share=calf_share)
        geometry = harness.calibration_geometry()
        if pitch_limits is not None:
            thigh, calf = pitch_limits
            geometry = replace(geometry, thigh_limits=(-thigh, thigh), calf_limits=(-calf, calf))
        params, kappas, iterations = reference_descent(initial, config, geometry)
        result = optimize(initial, config, geometry)
        assert result.iterations == iterations > 0
        assert np.array_equal(result.kappa_history, kappas)
        n = initial.harmonic_count
        assert np.array_equal(result.spec.hip_rate_coeffs, params[:n])
        assert np.array_equal(result.spec.pitch_rate_coeffs, params[n:])


def _single_harmonic_kappa(a, b, config, geometry):
    spec = BasisSpec(hip_rate_coeffs=[a], pitch_rate_coeffs=[b],
                     base_frequency=math.pi, period=2.0)
    return trajectory_loss(spec, config, geometry).kappa


class TestSingleHarmonicFamily:
    def test_grid_search_shows_kappa_near_one_exists(self, cal_geometry):
        # the unconstrained single-harmonic landscape does reach kappa ~ 1,
        # at large amplitudes where the variances equalize
        config = OptimizerConfig()
        best = math.inf
        for a in np.linspace(1.0, 30.0, 30):
            for b in np.linspace(1.0, 30.0, 30):
                best = min(best, _single_harmonic_kappa(a, b, config, cal_geometry))
        assert best <= 1.5

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the kappa <= 1.5 region of the single-harmonic family lies at large "
               "amplitudes outside the joint limits (grid-verified); descent from "
               "amplitudes in [0.5, 2] stops at the constrained optimum near "
               "kappa ~ 6.7 instead")
    def test_single_harmonic_descent_reaches_objective(self, cal_geometry):
        config = OptimizerConfig(kappa_objective=1.5, max_iterations=800, seed=12)
        rng = np.random.default_rng(config.seed)
        initial = BasisSpec(hip_rate_coeffs=[rng.uniform(0.5, 2.0)],
                            pitch_rate_coeffs=[rng.uniform(0.5, 2.0)],
                            base_frequency=math.pi, period=2.0)
        result = optimize(initial, config, cal_geometry)
        assert result.kappa_final <= 1.5

    def test_single_harmonic_descent_progress(self, cal_geometry):
        # realistic behaviour of the same run: monotone descent to the
        # in-limits optimum of the single-harmonic family (kappa ~ 6.7)
        config = OptimizerConfig(kappa_objective=1.5, max_iterations=800, seed=12)
        rng = np.random.default_rng(config.seed)
        initial = BasisSpec(hip_rate_coeffs=[rng.uniform(0.5, 2.0)],
                            pitch_rate_coeffs=[rng.uniform(0.5, 2.0)],
                            base_frequency=math.pi, period=2.0)
        result = optimize(initial, config, cal_geometry)
        assert result.kappa_final <= 7.5
        assert np.all(np.diff(result.kappa_history) < 0.0)
        assert np.all(np.isfinite(result.spec.hip_rate_coeffs))


def _default_matrix_start(foot, seed, base_seed=0):
    """Optimizer config and a2i start of one (foot, seed) of a default matrix."""
    config = harness.default_experiment_config(
        "unused", optimizer=OptimizerConfig(seed=base_seed)).optimizer
    init_seed = harness._child_seed(config.seed, 1, harness._foot_code(foot),
                                    harness._MOTION_CODE[Motion.A2I], seed)
    return initial_basis_spec(config, seed=init_seed), config


class TestLimitBoundRun:
    """FL seed 7 of the default matrix reaches the hip limit on its way down.

    Its steps there lose their component along the limit's outward normal,
    so the descent follows the limit instead of stopping on it (plain
    gradient descent stopped there unconverged at kappa 1.2572), and every
    accepted step still strictly lowers the loss.
    """

    @pytest.fixture(scope="class")
    def result(self):
        initial, config = _default_matrix_start("FL", 7)
        return optimize(initial, config, harness.calibration_geometry())

    def test_every_accepted_step_lowers_the_loss(self, result):
        assert np.all(np.diff(result.kappa_history) < 0.0)

    def test_stops_within_twice_the_fd_iteration_count(self, result):
        assert result.iterations <= 500

    def test_final_kappa(self, result):
        assert result.converged
        assert result.kappa_final < 1.2


def test_stuck_gradient_descent_start_converges():
    # optimizer seed 3, foot FR, matrix seed 1: plain gradient descent
    # stopped there unconverged at kappa 2.364
    initial, config = _default_matrix_start("FR", 1, base_seed=3)
    geometry = harness.calibration_geometry()
    result = optimize(initial, config, geometry)
    assert result.converged and trajectory_loss(result.spec, config, geometry).in_bounds
    assert result.kappa_final < 1.2


@pytest.mark.parametrize("offset_range, seed", [(0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1), (1.0, 2)])
def test_out_of_limit_start_converges_inside_limits(cal_geometry, offset_range, seed):
    # the CLI start at these offset ranges and seeds leaves the limits, and
    # is scaled to 0.95 of the limit it violates; scaled onto the limit
    # itself, the offset-range-1.0 seed-0 start followed the limit face to
    # kappa 1.669
    config = OptimizerConfig(offset_range=offset_range, seed=seed)
    initial = initial_basis_spec(config)
    assert not trajectory_loss(initial, config, cal_geometry).in_bounds
    result = optimize(initial, config, cal_geometry)
    assert result.converged and result.kappa_final < 1.2
    assert np.all(np.diff(result.kappa_history) < 0.0)
    assert trajectory_loss(result.spec, config, cal_geometry).in_bounds


def test_limits_excluding_zero_rejected():
    # every trajectory of the family oscillates about zero, and the Go2
    # calf limits (-2.7, -0.8) exclude it
    config = OptimizerConfig()
    with pytest.raises(ValueError, match="calf limits"):
        optimize(initial_basis_spec(config), config, LegGeometry())


class TestCovarianceSetType:
    def test_invertibility_guard(self):
        require_excited(np.eye(3), "sigma_ii")
        require_excited(np.diag([1.0, 1.0, 1e-11]), "sigma_ii")
        for singular in (np.diag([1.0, 1.0, 1e-13]), np.zeros((3, 3))):
            with pytest.raises(IllConditionedError):
                require_excited(singular, "sigma_ff")
