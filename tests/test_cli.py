import json

import numpy as np
import pytest

from footcalib import AngularVelocitySeries, Frame, default_experiment_config, period_samples
from footcalib.cli import main
from footcalib.harness import config_to_dict
from footcalib.io import read_measurements, read_rows_csv, read_trajectory, write_measurements


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """optimize -> simulate -> calibrate through the CLI, sharing one directory."""
    out = tmp_path_factory.mktemp("cli")
    assert main(["optimize", "--out", str(out), "--seed", "3"]) == 0
    assert main([
        "simulate", "--out", str(out),
        "--trajectory", str(out / "trajectory.csv"),
        "--euler", "30,45,60", "--t-d", "0.02", "--noise", "0.006", "--seed", "1",
    ]) == 0
    assert main([
        "calibrate", "--out", str(out),
        "--imu", str(out / "imu_measurements.csv"),
        "--foot", str(out / "foot_kinematic.csv"),
        "--t-r", "0.1",
    ]) == 0
    return out


class TestPipeline:
    def test_optimize_outputs(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "basis_spec.json").read_text())
        assert doc["kappa_final"] <= 1.6
        assert (pipeline_dir / "trajectory.csv").exists()

    def test_trajectory_spans_one_closed_period(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "basis_spec.json").read_text())
        n = period_samples(doc["T"], 500.0)
        traj = read_trajectory(pipeline_dir / "trajectory.csv")
        assert len(traj) == n + 1
        assert traj.time_grid[0] == 0.0
        assert traj.time_grid[-1] == doc["T"]

    def test_simulate_outputs(self, pipeline_dir):
        imu = read_measurements(pipeline_dir / "imu_measurements.csv")
        foot = read_measurements(pipeline_dir / "foot_kinematic.csv")
        assert len(imu) == len(foot)
        truth = json.loads((pipeline_dir / "ground_truth.json").read_text())
        np.testing.assert_allclose(truth["euler_deg"], [30.0, 45.0, 60.0], atol=1e-9)

    def test_calibrate_recovers_truth(self, pipeline_dir):
        report = json.loads((pipeline_dir / "calibration_report.json").read_text())
        assert abs(report["t_d_s"] - 0.02) <= 0.002
        np.testing.assert_allclose(report["euler_deg"], [30.0, 45.0, 60.0], atol=1.0)
        assert report["correlation"] >= 0.99
        assert len(report["rotation_matrix"]) == 9
        assert report["scan"]


class TestOptimizeCommand:
    def test_narrow_offset_range_converges(self, tmp_path, capsys):
        # at --t-r 0.05 the start lies inside the limits at kappa ~2217;
        # plain gradient descent stopped there unconverged
        assert main(["optimize", "--out", str(tmp_path), "--t-r", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "converged=True" in captured.out and not captured.err
        doc = json.loads((tmp_path / "basis_spec.json").read_text())
        assert doc["kappa_final"] < 1.2 and doc["converged"] is True

    def test_unconverged_run_warns_on_stderr(self, tmp_path, capsys):
        assert main(["optimize", "--out", str(tmp_path), "--max-iter", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("kappa=")
        assert "iterations=0 converged=False" in captured.out
        warning = captured.err.splitlines()
        assert len(warning) == 1 and warning[0].startswith("warning:")
        assert (tmp_path / "trajectory.csv").exists()
        assert json.loads((tmp_path / "basis_spec.json").read_text())["converged"] is False


@pytest.mark.parametrize("command", ["optimize", "theorem-check"])
def test_partial_period_rejected(tmp_path, capsys, command):
    # 8 * 0.0501 s at 500 Hz is 200.4 samples: the optimized trajectory
    # would not close and no basis covariance would be diagonal
    code = main([command, "--t-r", "0.0501", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError"
    assert "0.4008 s" in error["message"] and "500.0 Hz" in error["message"]
    assert not (tmp_path / "out").exists()


class TestMatrixCommand:
    def test_small_matrix(self, tmp_path):
        out = tmp_path / "matrix"
        code = main(["matrix", "--out", str(out), "--noise", "0.006",
                     "--motion", "a2i", "--seeds", "1"])
        assert code == 0
        rows = read_rows_csv(out / "rows.csv")
        assert len(rows) == 4
        assert all(not r["error"] for r in rows)

    def test_config_with_limits_excluding_zero_rejected(self, tmp_path, capsys):
        # the Go2 calf limits (-2.7, -0.8) fit no a2i trajectory: the
        # config is rejected at load, before any report file is opened
        doc = config_to_dict(default_experiment_config(tmp_path / "unused"))
        doc["geometry"]["calf_limits"] = [-2.7, -0.8]
        (tmp_path / "config.json").write_text(json.dumps(doc))
        out = tmp_path / "matrix"
        code = main(["matrix", "--config", str(tmp_path / "config.json"), "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"seeds": [-1]}, {"seeds": [1.5]}, {"seeds": [True]},
        {"optimizer": {"max_iterations": 2.5}},
    ], ids=["seed-negative", "seed-float", "seed-bool", "max-iterations-float"])
    def test_config_with_non_integer_seed_rejected(self, tmp_path, capsys, doc):
        # rejected at load, before the report files are opened
        (tmp_path / "config.json").write_text(json.dumps(doc))
        out = tmp_path / "matrix"
        code = main(["matrix", "--config", str(tmp_path / "config.json"), "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"
        assert not out.exists()


class TestTheoremCheck:
    def test_suite_passes(self, capsys):
        code = main(["theorem-check", "--count", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 8
        assert "FAIL" not in out


class TestErrorDocument:
    def test_missing_file_produces_json_error(self, capsys, tmp_path):
        code = main(["calibrate", "--imu", str(tmp_path / "nope.csv"),
                     "--foot", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["type"]

    def test_simulate_without_truth_fails(self, capsys, tmp_path, pipeline_dir):
        code = main(["simulate", "--out", str(tmp_path),
                     "--trajectory", str(pipeline_dir / "trajectory.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"

    def test_rank_deficient_dumps_name_the_error(self, capsys, tmp_path):
        t = np.arange(500) / 500.0
        samples = np.zeros((500, 3))
        samples[:, 2] = np.sin(2 * np.pi * t)  # x and y are never excited
        write_measurements(tmp_path / "imu.csv", AngularVelocitySeries(t, samples, Frame.FOOT_IMU))
        write_measurements(tmp_path / "foot.csv",
                           AngularVelocitySeries(t, samples, Frame.FOOT_KINEMATIC))
        code = main(["calibrate", "--imu", str(tmp_path / "imu.csv"),
                     "--foot", str(tmp_path / "foot.csv"), "--t-r", "0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "RankDeficiencyError"

    def test_jittered_time_column_rejected(self, capsys, tmp_path, pipeline_dir):
        lines = (pipeline_dir / "imu_measurements.csv").read_text().splitlines()
        fields = lines[100].split(",")
        fields[0] = repr(float(fields[0]) + 3e-4)
        lines[100] = ",".join(fields)
        (tmp_path / "imu.csv").write_text("\n".join(lines) + "\n")
        code = main(["calibrate", "--imu", str(tmp_path / "imu.csv"),
                     "--foot", str(pipeline_dir / "foot_kinematic.csv"), "--t-r", "0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and "uniform" in error["message"]
        assert not (tmp_path / "out").exists()
