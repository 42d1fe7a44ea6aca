"""File formats: delimited-text dumps and JSON documents.

All numeric text is written with 17 significant digits so round trips
preserve doubles exactly, and files end with a newline. Writers are
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult
from .kinematics import AngularVelocitySeries, Frame, JointTrajectory
from .optimizer import OptimizeResult
from .simulate import GroundTruth, matrix_to_euler_deg

TRAJECTORY_HEADER = "t,theta_hip,theta_thigh,theta_calf,dtheta_hip,dtheta_thigh,dtheta_calf"
MEASUREMENT_HEADER = "t,wx,wy,wz,frame"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_table(path, header: str, matrix, tag: str = "") -> None:
    """Write ``header`` and one line per row of the float matrix: its values
    in ``%.17g``, then ``tag`` as a last field when one is given."""
    data = np.asarray(matrix, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1] + ([tag] if tag else []))
    text = "\n".join([header] + [row] * len(data)) % tuple(data.ravel().tolist())
    Path(path).write_text(text + "\n")


def _read_table(path, header: str, tagged: bool = False) -> tuple[np.ndarray, set[str]]:
    """Float matrix of the rows under ``header``, and the set of their tags
    (the last field) for a tagged table."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: expected {width} columns")
    tags = {row.pop() for row in rows} if tagged else set()
    return np.array(rows, dtype=float).reshape(len(rows), width - 1 if tagged else width), tags


def write_trajectory(path, traj: JointTrajectory) -> None:
    _write_table(path, TRAJECTORY_HEADER, np.column_stack([
        traj.time_grid, traj.theta_hip, traj.theta_thigh, traj.theta_calf,
        traj.dtheta_hip, traj.dtheta_thigh, traj.dtheta_calf]))


def read_trajectory(path) -> JointTrajectory:
    data, _ = _read_table(path, TRAJECTORY_HEADER)
    return JointTrajectory(*data.T)


def write_measurements(path, series: AngularVelocitySeries) -> None:
    _write_table(path, MEASUREMENT_HEADER, np.column_stack([series.time_grid, series.samples]),
                 series.frame.value)


def read_measurements(path) -> AngularVelocitySeries:
    data, frames = _read_table(path, MEASUREMENT_HEADER, tagged=True)
    if len(frames) != 1:
        raise ValueError(f"{path}: expected a single frame tag, got {sorted(frames)}")
    return AngularVelocitySeries(data[:, 0], data[:, 1:], Frame(frames.pop()))


def _dump_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_ground_truth(path, truth: GroundTruth) -> None:
    _dump_json(path, {
        "euler_deg": [float(v) for v in truth.euler_deg],
        "t_d_s": float(truth.time_offset),
    })


def read_ground_truth(path) -> GroundTruth:
    doc = json.loads(Path(path).read_text())
    return GroundTruth.from_euler_deg(*doc["euler_deg"], time_offset=doc["t_d_s"])


def write_optimizer_result(path, result: OptimizeResult) -> None:
    spec = result.spec
    _dump_json(path, {
        "A": [float(v) for v in spec.hip_rate_coeffs],
        "B": [float(v) for v in spec.pitch_rate_coeffs],
        "f": float(spec.base_frequency),
        "T": float(spec.period),
        "N": int(spec.harmonic_count),
        "rho": float(spec.calf_share),
        "kappa_final": float(result.kappa_final),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "kappa_history": [float(v) for v in result.kappa_history],
    })


def write_calibration_report(path, result: CalibrationResult) -> None:
    euler = matrix_to_euler_deg(result.rotation)
    _dump_json(path, {
        "t_d_s": float(result.time_offset),
        "euler_deg": [float(v) for v in euler],
        "rotation_matrix": [float(v) for v in result.rotation.reshape(-1)],
        "correlation": float(result.correlation),
        "condition_number": float(result.condition_number),
        "scan": [[float(t), float(r)] for t, r in result.offset_scan],
    })


ROWS_HEADER = "foot,motion,noise_density,seed,cn,cc,re_deg,td_error_ms,gimbal_flagged,geodesic_deg,error"
TIMING_HEADER = "foot,motion,noise_density,seed,wall_time_s"
SUMMARY_HEADER = "motion,noise_density,rows,median_cn,median_cc,median_re_deg,median_abs_td_error_ms"


def _row_line(row) -> str:
    return ",".join([
        row.foot,
        row.motion.value,
        _fmt(row.noise_density),
        str(row.seed),
        _fmt(row.cn),
        _fmt(row.cc),
        _fmt(row.re_deg),
        _fmt(row.td_error_ms),
        "1" if row.gimbal_flagged else "0",
        _fmt(row.geodesic_deg),
        row.error.replace(",", ";"),
    ])


@contextmanager
def open_rows_writer(path):
    """Incremental report-row writer; yields a callable taking one row."""
    with open(path, "w", newline="\n") as handle:
        handle.write(ROWS_HEADER + "\n")

        def write(row):
            handle.write(_row_line(row) + "\n")
            handle.flush()

        yield write


@contextmanager
def open_timing_writer(path):
    """Wall-time sidecar writer; kept out of rows.csv so reports stay deterministic."""
    with open(path, "w", newline="\n") as handle:
        handle.write(TIMING_HEADER + "\n")

        def write(row):
            handle.write(",".join([
                row.foot, row.motion.value, _fmt(row.noise_density), str(row.seed),
                _fmt(row.wall_time_s),
            ]) + "\n")

        yield write


def read_rows_csv(path) -> list[dict]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != ROWS_HEADER:
        raise ValueError(f"{path}: expected header {ROWS_HEADER!r}")
    names = ROWS_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        record = dict(zip(names, values))
        for key in ("noise_density", "cn", "cc", "re_deg", "td_error_ms", "geodesic_deg"):
            record[key] = float(record[key])
        record["seed"] = int(record["seed"])
        record["gimbal_flagged"] = record["gimbal_flagged"] == "1"
        rows.append(record)
    return rows


def write_summary_csv(path, summary) -> None:
    lines = [SUMMARY_HEADER]
    for cell in summary:
        lines.append(",".join([
            cell.motion.value,
            _fmt(cell.noise_density),
            str(cell.rows),
            _fmt(cell.median_cn),
            _fmt(cell.median_cc),
            _fmt(cell.median_re_deg),
            _fmt(cell.median_abs_td_error_ms),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(path, summary) -> None:
    _dump_json(path, [
        {
            "motion": cell.motion.value,
            "noise_density": cell.noise_density,
            "rows": cell.rows,
            "median_cn": _json_float(cell.median_cn),
            "median_cc": _json_float(cell.median_cc),
            "median_re_deg": _json_float(cell.median_re_deg),
            "median_abs_td_error_ms": _json_float(cell.median_abs_td_error_ms),
        }
        for cell in summary
    ])


def _json_float(value: float):
    return None if math.isnan(value) else float(value)


def write_offset_scan(path, scan: np.ndarray) -> None:
    _write_table(path, "t_d,r", scan)
