import json
import math

import numpy as np
import pytest

from footcalib import (
    AngularVelocitySeries,
    Frame,
    GroundTruth,
    OptimizerConfig,
    calibration_geometry,
    initial_basis_spec,
    optimize,
)
from footcalib import io as fio
from footcalib.optimizer import eval_basis


@pytest.fixture
def trajectory():
    config = OptimizerConfig()
    spec = initial_basis_spec(config, seed=7)
    grid = np.arange(101) / config.imu_frequency
    return eval_basis(spec, grid)


class TestTrajectoryDump:
    def test_round_trip_is_bit_exact(self, tmp_path, trajectory):
        path = tmp_path / "traj.csv"
        fio.write_trajectory(path, trajectory)
        loaded = fio.read_trajectory(path)
        for name in ("time_grid", "theta_hip", "theta_thigh", "theta_calf",
                     "dtheta_hip", "dtheta_thigh", "dtheta_calf"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(trajectory, name))

    def test_header_written(self, tmp_path, trajectory):
        path = tmp_path / "traj.csv"
        fio.write_trajectory(path, trajectory)
        assert path.read_text().splitlines()[0] == fio.TRAJECTORY_HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("nope\n1,2,3,4,5,6,7\n")
        with pytest.raises(ValueError):
            fio.read_trajectory(path)


class TestMeasurementDump:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        series = AngularVelocitySeries(np.arange(50) / 500.0, rng.normal(size=(50, 3)),
                                       Frame.FOOT_IMU)
        path = tmp_path / "meas.csv"
        fio.write_measurements(path, series)
        loaded = fio.read_measurements(path)
        np.testing.assert_array_equal(loaded.samples, series.samples)
        np.testing.assert_array_equal(loaded.time_grid, series.time_grid)
        assert loaded.frame is Frame.FOOT_IMU

    def test_frame_tag_preserved(self, tmp_path):
        series = AngularVelocitySeries(np.arange(5) / 500.0, np.zeros((5, 3)),
                                       Frame.FOOT_KINEMATIC)
        path = tmp_path / "meas.csv"
        fio.write_measurements(path, series)
        assert ",FootKinematic" in path.read_text()

    def test_mixed_frames_rejected(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(fio.MEASUREMENT_HEADER + "\n0,1,2,3,FootIMU\n0.002,1,2,3,FootKinematic\n")
        with pytest.raises(ValueError):
            fio.read_measurements(path)


class TestJsonDocuments:
    def test_ground_truth_round_trip(self, tmp_path):
        truth = GroundTruth.from_euler_deg(104.0, 17.0, 21.0, time_offset=0.012)
        path = tmp_path / "truth.json"
        fio.write_ground_truth(path, truth)
        loaded = fio.read_ground_truth(path)
        np.testing.assert_allclose(loaded.euler_deg, truth.euler_deg, atol=1e-10)
        assert loaded.time_offset == truth.time_offset

    def test_optimizer_result_schema(self, tmp_path):
        config = OptimizerConfig(max_iterations=5)
        result = optimize(initial_basis_spec(config, seed=2), config, calibration_geometry())
        path = tmp_path / "spec.json"
        fio.write_optimizer_result(path, result)
        doc = json.loads(path.read_text())
        assert set(doc) == {"A", "B", "f", "T", "N", "rho", "kappa_final",
                            "iterations", "converged", "kappa_history"}
        assert doc["N"] == len(doc["A"]) == len(doc["B"])
        assert doc["f"] == pytest.approx(math.pi)
        assert doc["T"] == pytest.approx(2.0)
        assert len(doc["kappa_history"]) >= 1

    def test_offset_scan_file(self, tmp_path):
        scan = np.array([[-0.002, 0.5], [0.0, 0.9], [0.002, 0.7]])
        path = tmp_path / "scan.csv"
        fio.write_offset_scan(path, scan)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_d,r"
        assert len(lines) == 4
