"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The full experiment matrix (4 feet x 4 motions x 3 noise densities x 20
seeds) is executed once and shared; the determinism criterion executes it
a second time.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from footcalib import (
    CalibrationOptions,
    Motion,
    NoiseModel,
    OptimizerConfig,
    calibrate,
    calibration_geometry,
    covariance_set,
    default_experiment_config,
    eval_basis,
    initial_basis_spec,
    optimize,
    period_samples,
    random_ground_truth,
    rotation_error,
    run_matrix,
    simulate_imu,
    trajectory_to_foot_velocity,
)
from footcalib.harness import FOOT_IDS, _child_seed
from footcalib.optimizer import diagonality_ratio
from conftest import brute_force_pair_covariance

RATE = 500.0
PAPER_DENSITIES = (0.006, 0.03, 0.06)


def report(number, name, passed, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def optimized_feet():
    """Per-foot optimizer runs with the default config (criterion 2)."""
    config = OptimizerConfig()
    geometry = calibration_geometry()
    runs = {}
    for index, foot in enumerate(FOOT_IDS):
        seed = _child_seed(config.seed, 1, index, 1, 0)
        started = time.perf_counter()
        result = optimize(initial_basis_spec(config, seed=seed), config, geometry)
        runs[foot] = (result, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def optimized_series(optimized_feet):
    """Two executed periods of the FL optimized trajectory as a foot series."""
    spec = optimized_feet["FL"][0].spec
    grid = np.arange(2 * period_samples(spec.period, RATE) + 1) / RATE
    traj = eval_basis(spec, grid)
    return trajectory_to_foot_velocity(traj)


def a2i_options():
    return CalibrationOptions(offset_range=0.25,
                              window_samples=period_samples(OptimizerConfig().period, RATE))


@pytest.fixture(scope="module")
def full_matrix(tmp_path_factory):
    config = default_experiment_config(tmp_path_factory.mktemp("acceptance-matrix"))
    return config, run_matrix(config)


def test_criterion_1_basis_covariance_diagonality():
    rng = np.random.default_rng(20240501)
    config = OptimizerConfig()
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        spec = initial_basis_spec(config, harmonic_count=n,
                                  seed=int(rng.integers(0, 2 ** 32)))
        worst = max(worst, diagonality_ratio(spec, RATE))
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 10.0
    report(1, "basis covariance diagonality", passed,
           f"worst offdiag/diag {worst:.3e} (tol 1e-9) over 50 specs in {elapsed:.2f}s")


def test_criterion_2_optimizer_target_band(optimized_feet):
    kappas = {foot: run.kappa_final for foot, (run, _) in optimized_feet.items()}
    walls = {foot: wall for foot, (_, wall) in optimized_feet.items()}
    passed = all(k <= 1.6 for k in kappas.values()) and all(w < 60.0 for w in walls.values())
    detail = ", ".join(f"{foot}: kappa={kappas[foot]:.3f} ({walls[foot]:.1f}s)"
                       for foot in FOOT_IDS)
    report(2, "optimizer target band", passed, detail)


def test_criterion_3_noiseless_round_trip(optimized_series):
    worst_re = 0.0
    worst_td = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        truth = random_ground_truth(rng, offset_range=0.1, grid_step=1 / RATE)
        imu = simulate_imu(optimized_series, truth, NoiseModel(0.0, seed=seed))
        result = calibrate(imu, optimized_series, a2i_options())
        worst_re = max(worst_re, rotation_error(result.rotation, truth.euler_deg).degrees)
        worst_td = max(worst_td, abs(result.time_offset - truth.time_offset))
    passed = worst_re <= 1e-4 and worst_td < 0.5 / RATE
    report(3, "noiseless round trip", passed,
           f"worst RE {worst_re:.2e} deg (tol 1e-4), worst |td err| {worst_td:.2e} s "
           f"(0 grid steps) over 20 seeds")


def test_criterion_4_noisy_calibration_accuracy(optimized_series):
    medians = {}
    min_cc = 1.0
    for density in PAPER_DENSITIES:
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            truth = random_ground_truth(rng, offset_range=0.1, grid_step=1 / RATE)
            noise = NoiseModel(density, seed=_child_seed(4, int(density * 1e9), seed))
            imu = simulate_imu(optimized_series, truth, noise)
            result = calibrate(imu, optimized_series, a2i_options())
            errors.append(rotation_error(result.rotation, truth.euler_deg).degrees)
            min_cc = min(min_cc, result.correlation)
        medians[density] = float(np.median(errors))
    passed = all(m <= 10.0 for m in medians.values()) and min_cc >= 0.99
    detail = ", ".join(f"{d}: median RE {m:.4f} deg" for d, m in medians.items())
    report(4, "noisy calibration accuracy", passed,
           f"{detail}; min CC {min_cc:.4f} (need >= 0.99)")


def test_criterion_5_baseline_ordering(full_matrix):
    config, result = full_matrix
    rows = [r for r in result.rows if not r.error]
    expected = len(config.truths) * len(config.motions) * \
        len(config.noise_densities) * len(config.seeds)

    def med(motion, field, density=None):
        values = [getattr(r, field) for r in rows
                  if r.motion is motion and (density is None or r.noise_density == density)]
        return float(np.median(values))

    cn_a2i = med(Motion.A2I, "cn")
    cn_base = {m: med(m, "cn") for m in (Motion.WALK, Motion.SPIN, Motion.WAVE)}
    re_ordering = all(
        med(Motion.A2I, "re_deg", d) < min(med(m, "re_deg", d)
                                           for m in (Motion.WALK, Motion.SPIN, Motion.WAVE))
        for d in PAPER_DENSITIES)
    table_ordering = cn_a2i < med(Motion.WAVE, "cn") < min(med(Motion.WALK, "cn"),
                                                           med(Motion.SPIN, "cn"))
    passed = (len(result.rows) == expected and cn_a2i < 5.0
              and all(v > 20.0 for v in cn_base.values())
              and re_ordering and table_ordering)
    detail = (f"{len(result.rows)}/{expected} rows; median CN a2i={cn_a2i:.2f}, "
              + ", ".join(f"{m.value}={v:.3g}" for m, v in cn_base.items())
              + f"; RE ordering per density: {re_ordering}")
    report(5, "baseline ordering", passed, detail)


def test_criterion_6_time_offset_precision(optimized_series):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        truth = random_ground_truth(rng, offset_range=0.1, grid_step=None)
        noise = NoiseModel(0.03, seed=_child_seed(6, seed))
        imu = simulate_imu(optimized_series, truth, noise)
        result = calibrate(imu, optimized_series, a2i_options())
        worst = max(worst, abs(result.time_offset - truth.time_offset))
    passed = worst <= 0.002
    report(6, "time offset precision", passed,
           f"worst |td err| {worst * 1e3:.3f} ms (tol 2 ms) over 20 seeds, "
           f"offsets up to +-100 ms at density 0.03")


def test_criterion_7_covariance_oracle():
    from footcalib import AngularVelocitySeries, Frame

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 200))
        x = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, 3))
        y = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, 3))
        t = np.arange(n) / RATE
        cov = covariance_set(AngularVelocitySeries(t, x, Frame.FOOT_IMU),
                             AngularVelocitySeries(t, y, Frame.FOOT_KINEMATIC))
        pairs = (
            (cov.sigma_ii, brute_force_pair_covariance(x, x)),
            (cov.sigma_ff, brute_force_pair_covariance(y, y)),
            (cov.sigma_if, brute_force_pair_covariance(x, y)),
            (cov.sigma_fi, brute_force_pair_covariance(y, x)),
        )
        for computed, oracle in pairs:
            scale = max(np.abs(oracle).max(), 1e-300)
            worst = max(worst, np.abs(computed - oracle).max() / scale)
    passed = worst <= 1e-12
    report(7, "covariance oracle", passed,
           f"worst relative deviation {worst:.3e} (tol 1e-12) over 100 pairs")


def test_criterion_8_determinism(full_matrix, tmp_path_factory):
    config, _ = full_matrix
    rerun_dir = tmp_path_factory.mktemp("acceptance-rerun")
    run_matrix(replace(config, output_dir=rerun_dir))

    def report_files(root):
        files = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "timing.csv":
                files[str(path.relative_to(root))] = path.read_bytes()
        return files

    first = report_files(config.output_dir)
    second = report_files(rerun_dir)
    identical = first == second
    mismatched = [name for name in first if first.get(name) != second.get(name)]
    passed = identical and len(first) > 0
    report(8, "determinism", passed,
           f"{len(first)} report files byte-identical across two runs"
           + ("" if identical else f"; mismatches: {mismatched[:5]}"))
