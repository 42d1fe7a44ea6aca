"""Calibration on an optimized a2i trajectory is unbiased down to the noise floor.

With white IMU noise of per-sample std sigma and a diagonal foot
auto-covariance diag(s), the rotation estimate S_FF^-1 S_FI has a
per-axis error variance of sigma^2 / (4 (N - 1)) * (1/s_j + 1/s_k), where
j and k are the other two axes. An offset error leaks into the rotation,
so a biased offset scan shows up here as an excess over that closed form.
The offset itself is checked against its Cramer-Rao bound,
sigma^2 / sum |d omega / dt|^2 over the foot window (Knapp & Carter 1976).
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from footcalib import (
    NoiseModel,
    OffsetSearch,
    OptimizerConfig,
    calibrate,
    calibration_geometry,
    eval_basis,
    initial_basis_spec,
    optimize,
    period_samples,
    random_ground_truth,
    simulate_imu,
    trajectory_to_foot_velocity,
)
from footcalib.calibrate import foot_side
from footcalib.harness import _child_seed
from footcalib.optimizer import sample_covariance

RATE = 500.0
WINDOW = period_samples(OptimizerConfig().period, RATE)  # one period
SEEDS = range(100)


@pytest.fixture(scope="module")
def fl_a2i_series():
    """Two periods of the FL a2i trajectory of the default matrix, seed 0."""
    config = OptimizerConfig()
    result = optimize(initial_basis_spec(config, seed=_child_seed(config.seed, 1, 0, 1, 0)),
                      config, calibration_geometry())
    grid = np.arange(2 * period_samples(result.spec.period, RATE) + 1) / RATE
    return trajectory_to_foot_velocity(eval_basis(result.spec, grid))


@pytest.mark.parametrize("index, density", [(0, 0.06), (1, 0.3)])
def test_rotation_error_at_noise_floor(fl_a2i_series, index, density):
    search = OffsetSearch(0.25)
    errors = []
    td_errors = []
    for seed in SEEDS:
        truth = random_ground_truth(np.random.default_rng(seed), 0.1, grid_step=1 / RATE)
        noise = NoiseModel(density, seed=1000 * index + seed)
        imu = simulate_imu(fl_a2i_series, truth, noise)
        result = calibrate(imu, fl_a2i_series, search, WINDOW)
        errors.append(Rotation.from_matrix(result.rotation @ truth.rotation.T).as_rotvec())
        td_errors.append(result.time_offset - truth.time_offset)
    errors = np.array(errors)
    td_errors = np.array(td_errors)

    side = foot_side(fl_a2i_series, search.offset_range, WINDOW)
    window = fl_a2i_series.samples[side.i0:side.i1]
    s = np.diag(sample_covariance(window))
    sigma = math.radians(density) * math.sqrt(RATE)
    predicted = np.sqrt(sigma ** 2 / (4 * (WINDOW - 1))
                        * np.array([1 / s[1] + 1 / s[2], 1 / s[0] + 1 / s[2],
                                    1 / s[0] + 1 / s[1]]))
    omega_dot = np.gradient(window, 1 / RATE, axis=0)
    td_crlb = math.sqrt(sigma ** 2 / np.sum(omega_dot ** 2))
    std = errors.std(axis=0, ddof=1)
    sem = std / math.sqrt(len(errors))
    td_std = td_errors.std(ddof=1)
    td_sem = td_std / math.sqrt(len(td_errors))
    detail = (f"std/predicted {np.round(std / predicted, 3)}, "
              f"|mean|/SEM {np.round(np.abs(errors.mean(axis=0)) / sem, 2)}, "
              f"mean |t_d error| {np.mean(np.abs(td_errors)) * RATE:.4f} samples, "
              f"t_d std/CRLB {td_std / td_crlb:.3f}, "
              f"|mean t_d error|/SEM {abs(td_errors.mean()) / td_sem:.2f}")
    assert np.all(std <= 1.3 * predicted), detail
    assert np.all(np.abs(errors.mean(axis=0)) <= 3 * sem), detail
    assert np.mean(np.abs(td_errors)) * RATE <= 0.1, detail
    assert td_std <= 2 * td_crlb, detail
    assert abs(td_errors.mean()) <= 3 * td_sem, detail
