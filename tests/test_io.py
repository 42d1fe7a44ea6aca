import json
import math

import numpy as np
import pytest

from footcalib import (
    AngularVelocitySeries,
    BasisSpec,
    Frame,
    GroundTruth,
    NoiseModel,
    OffsetSearch,
    OptimizerConfig,
    calibrate,
    calibration_geometry,
    initial_basis_spec,
    optimize,
    simulate_imu,
    trajectory_to_foot_velocity,
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

    def test_read_back_dumps_calibrate_like_the_series_in_memory(self, tmp_path):
        # the samples of a parsed table are columns of a wider one; a series
        # stores them contiguously, so BLAS sums them in the order it sums
        # the series held in memory, and calibration reproduces bit for bit
        spec = BasisSpec(hip_rate_coeffs=[1.2, 0.8, 5.3], pitch_rate_coeffs=[3.7, 0.4, 0.3],
                         period=2.0)
        foot = trajectory_to_foot_velocity(eval_basis(spec, np.arange(2001) / 500.0))
        truth = GroundTruth.from_euler_deg(30.0, 45.0, 60.0, time_offset=0.02)
        imu = simulate_imu(foot, truth, NoiseModel(0.006, seed=3))
        fio.write_measurements(tmp_path / "foot.csv", foot)
        fio.write_measurements(tmp_path / "imu.csv", imu)
        read_back = [fio.read_measurements(tmp_path / name) for name in ("imu.csv", "foot.csv")]
        assert all(series.samples.flags.c_contiguous for series in read_back)
        expected = calibrate(imu, foot, OffsetSearch(0.1))
        result = calibrate(*read_back, OffsetSearch(0.1))
        assert result.scan.tobytes() == expected.scan.tobytes()
        assert result.time_offset == expected.time_offset
        assert result.rotation.tobytes() == expected.rotation.tobytes()


MEASUREMENT_ROWS = ["0,1,2,3,FootIMU", "0.002,1,2,3,FootIMU", "0.004,1,2,3,FootIMU"]
TRAJECTORY_ROWS = ["0,1,2,3,4,5,6", "0.002,1,2,3,4,5,6", "0.004,1,2,3,4,5,6"]


def measurement_file(*rows):
    return fio.MEASUREMENT_HEADER + "\n" + "\n".join(rows) + "\n"


def trajectory_file(*rows):
    return fio.TRAJECTORY_HEADER + "\n" + "\n".join(rows) + "\n"


def reference_table(header, matrix, tag=""):
    """The table text spelled out value by value: each float in ``%.17g``."""
    lines = [header] + [",".join([f"{v:.17g}" for v in row] + ([tag] if tag else []))
                        for row in np.asarray(matrix, dtype=float)]
    return "\n".join(lines) + "\n"


class TestTableReader:
    def test_well_formed_tables_load(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(measurement_file(*MEASUREMENT_ROWS))
        assert len(fio.read_measurements(path).time_grid) == 3
        path.write_text(trajectory_file(*TRAJECTORY_ROWS))
        assert len(fio.read_trajectory(path)) == 3

    @pytest.mark.parametrize("reader, text", [
        (fio.read_trajectory, "t,theta_hip\n" + "\n".join(TRAJECTORY_ROWS) + "\n"),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0], "0.002,1,2,3,4,FootIMU",
                                                 MEASUREMENT_ROWS[2])),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "0.002,1,2,3,4,5,6,7",
                                              TRAJECTORY_ROWS[2])),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0], "0.002,1,2,FootIMU",
                                                 MEASUREMENT_ROWS[2])),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0], "0.002,1,2,3",
                                                 MEASUREMENT_ROWS[2])),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "0.002,1,2,3,4,5",
                                              TRAJECTORY_ROWS[2])),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0], "0.002,1,2,3,4,FootIMU",
                                                 "0.004,1,2,FootIMU")),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "0.002,1,2,3,4,5,6,7",
                                              "0.004,1,2,3,4,5")),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0], "", *MEASUREMENT_ROWS[1:])),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "", *TRAJECTORY_ROWS[1:])),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "   ", *TRAJECTORY_ROWS[1:])),
        (fio.read_measurements, measurement_file(MEASUREMENT_ROWS[0] + "\x0c",
                                                 *MEASUREMENT_ROWS[1:])),
        (fio.read_measurements, measurement_file("# a comment", *MEASUREMENT_ROWS)),
        (fio.read_trajectory, trajectory_file(TRAJECTORY_ROWS[0], "# a comment",
                                              *TRAJECTORY_ROWS[1:])),
        (fio.read_measurements, fio.MEASUREMENT_HEADER + "\n"),
        (fio.read_trajectory, fio.TRAJECTORY_HEADER + "\n"),
        (fio.read_measurements, ""),
        (fio.read_measurements, measurement_file(*MEASUREMENT_ROWS[:2], "0.004,1,2,3,FootKinematic")),
        (fio.read_measurements, measurement_file(*MEASUREMENT_ROWS[:2], "0.004,1,2,3,")),
        (fio.read_measurements, measurement_file(*MEASUREMENT_ROWS[:2], "0.004,1,,3,FootIMU")),
    ], ids=["bad-header", "extra-field-tagged", "extra-field", "missing-field-tagged", "missing-tag",
            "missing-field", "extra-and-missing-tagged", "extra-and-missing", "blank-line-tagged",
            "blank-line", "whitespace-line", "form-feed-line-break", "comment-line-tagged",
            "comment-line", "header-only-tagged", "header-only", "empty-file", "mixed-tags",
            "empty-tag", "empty-value"])
    def test_malformed_table_rejected(self, tmp_path, reader, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            reader(path)

    def test_awkward_doubles_round_trip_bit_exact(self, tmp_path):
        awkward = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 0.30000000000000004,
                   -2.2250738585072014e-308, 1 / 3]
        samples = np.array(awkward + awkward[::-1] + awkward[1:] + awkward[:1]).reshape(-1, 3)
        grid = np.arange(len(samples)) * 0.002
        grid[0] = -0.0
        series = AngularVelocitySeries(grid, samples, Frame.FOOT_IMU)
        path = tmp_path / "meas.csv"
        fio.write_measurements(path, series)
        loaded = fio.read_measurements(path)
        assert loaded.samples.tobytes() == samples.tobytes()
        assert loaded.time_grid.tobytes() == grid.tobytes()


class TestTableWriter:
    def test_two_dumps_on_one_grid(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = np.arange(40) / 500.0
        for name, frame in [("a.csv", Frame.FOOT_IMU), ("b.csv", Frame.FOOT_KINEMATIC),
                            ("c.csv", Frame.FOOT_IMU)]:
            samples = rng.normal(size=(40, 3))
            fio.write_measurements(tmp_path / name, AngularVelocitySeries(grid, samples, frame))
            assert (tmp_path / name).read_text() == reference_table(
                fio.MEASUREMENT_HEADER, np.column_stack([grid, samples]), frame.value)

    def test_grids_one_ulp_apart(self, tmp_path):
        samples = np.random.default_rng(12).normal(size=(30, 3))
        grid = np.arange(30) / 500.0
        nudged = grid.copy()
        nudged[17] = np.nextafter(nudged[17], 1.0)
        signed = grid.copy()
        signed[0] = -0.0
        for i, g in enumerate([grid, nudged, grid, signed, nudged]):
            path = tmp_path / f"{i}.csv"
            fio.write_measurements(path, AngularVelocitySeries(g, samples, Frame.FOOT_IMU))
            expected = reference_table(fio.MEASUREMENT_HEADER, np.column_stack([g, samples]),
                                       "FootIMU")
            assert path.read_text() == expected
            assert fio.read_measurements(path).time_grid.tobytes() == g.tobytes()

    def test_scans_and_trajectories_on_one_grid(self, tmp_path, trajectory):
        # scan tables are binary and exact; a dump written after them on a
        # grid of its own is still the reference text
        lags = np.linspace(-0.05, 0.05, 51)
        for i in range(2):
            table = np.stack([lags, np.cos(lags * (i + 1)), np.full_like(lags, np.nan)])
            fio.write_offset_scan(tmp_path / f"scan{i}.npy", table)
            loaded = np.load(tmp_path / f"scan{i}.npy", allow_pickle=False)
            assert loaded.dtype == np.float64 and loaded.tobytes() == table.tobytes()
        fio.write_trajectory(tmp_path / "traj.csv", trajectory)
        assert (tmp_path / "traj.csv").read_text() == reference_table(
            fio.TRAJECTORY_HEADER, np.column_stack([
                trajectory.time_grid, trajectory.theta_hip, trajectory.theta_thigh,
                trajectory.theta_calf, trajectory.dtheta_hip, trajectory.dtheta_thigh,
                trajectory.dtheta_calf]))


class TestJsonDocuments:
    def test_ground_truth_round_trip(self, tmp_path):
        truth = GroundTruth.from_euler_deg(104.0, 17.0, 21.0, time_offset=0.012)
        path = tmp_path / "truth.json"
        fio.write_ground_truth(path, truth)
        loaded = fio.read_ground_truth(path)
        assert loaded.euler_deg.tolist() == [104.0, 17.0, 21.0]
        np.testing.assert_array_equal(loaded.rotation, truth.rotation)
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
        # a block's lag grid, a cell's r values and a failed cell's NaN row
        table = np.array([[-0.002, 0.0, 0.002], [0.5, 0.9, 0.7], [np.nan] * 3])
        path = tmp_path / "FL_walk.npy"
        fio.write_offset_scan(path, table)
        assert [p.name for p in tmp_path.iterdir()] == ["FL_walk.npy"]
        loaded = np.load(path, allow_pickle=False)
        assert loaded.dtype == np.float64 and loaded.shape == (3, 3)
        assert loaded.tobytes() == table.tobytes()
        # the bytes are those of np.save, so identical tables write identical files
        again = tmp_path / "again.npy"
        np.save(again, table, allow_pickle=False)
        assert path.read_bytes() == again.read_bytes()
