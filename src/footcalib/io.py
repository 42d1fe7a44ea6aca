"""File formats: delimited-text dumps, JSON documents and scan arrays.

Numeric text is written with 17 significant digits so round trips
preserve doubles exactly, and text files end with a newline. A matrix
run's offset scans are binary: one float64 ``.npy`` array (the NumPy
format of ``np.save``) per (foot, motion) block, exact without
formatting. Writers are deterministic: identical inputs produce
byte-identical files.

A float table's first column is its time or lag grid. The writer formats
each distinct grid once and keeps the text of the last few grids (keyed on
their bytes), so two dumps on one grid format only their other columns.
Tables are parsed by numpy's C tokenizer (``np.loadtxt``), which rounds
correctly as ``float`` does, so a write-read round trip is bit-exact. It
rejects values that ``float`` alone would take, such as ``1_0``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import lru_cache
from io import StringIO
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


@lru_cache(maxsize=4)
def _grid_text(grid: bytes) -> tuple[str, ...]:
    """``%.17g`` text of each value of a float64 grid given as its bytes."""
    return tuple(["%.17g" % v for v in np.frombuffer(grid).tolist()])


def _write_table(path, header: str, matrix, tag: str = "") -> None:
    """Write ``header`` and one line per row of the float matrix: its values
    in ``%.17g``, then ``tag`` as a last field when one is given."""
    data = np.asarray(matrix, dtype=float)
    rest = ",%.17g" * (data.shape[1] - 1) + ("," + tag if tag else "")
    rows = (rest + "\n").join(_grid_text(data[:, 0].tobytes()) + ("",))
    Path(path).write_text(f"{header}\n{rows}" % tuple(data[:, 1:].ravel().tolist()))


# the line breaks str.splitlines honours besides the "\n" that reading
# text normalizes every line end to; a table holds none of them
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read_table(path, header: str, tagged: bool = False) -> tuple[np.ndarray, str]:
    """Float matrix of the rows under ``header``, and for a tagged table the
    tag (the last field) that every row must carry.

    Each line under the header is one row of the header's field count, and
    the table needs at least one; ``np.loadtxt`` parses the rows once the
    tag column is cut off, and their count must equal the line count, since
    it skips the blank lines that are malformed here.
    """
    head, _, body = (Path(path).read_text().strip() + "\n").partition("\n")
    if head != header:
        raise ValueError(f"{path}: expected header {header!r}")
    if not body:
        raise ValueError(f"{path}: no rows under the header")
    if any(c in body for c in _OTHER_BREAKS):
        raise ValueError(f"{path}: a line break other than \\n")
    lines = body.count("\n")
    width = header.count(",") + 1
    tag = ""
    if tagged:
        tag = body[:body.index("\n")].rsplit(",", 1)[-1]
        end = f",{tag}\n"
        if body.count(end) != lines:
            raise ValueError(f"{path}: expected every row to end in the tag {tag!r} of the first")
        body = body.replace(end, "\n")
        width -= 1
    try:
        data = np.loadtxt(StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # a field that is no number, or a row of another width
        raise ValueError(f"{path}: {exc}") from None
    if data.shape != (lines, width):
        raise ValueError(f"{path}: expected {lines} rows of {width} numbers, got {data.shape}")
    return data, tag


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
    data, frame = _read_table(path, MEASUREMENT_HEADER, tagged=True)
    return AngularVelocitySeries(data[:, 0], data[:, 1:], Frame(frame))


def _dump_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_ground_truth(path, truth: GroundTruth) -> None:
    _dump_json(path, {
        "euler_deg": truth.euler_deg.tolist(),
        "t_d_s": float(truth.time_offset),
    })


TRUTH_KEYS = frozenset({"euler_deg", "t_d_s"})


def check_keys(doc: dict, known: frozenset, where: str,
                        required: frozenset = frozenset()) -> None:
    """Raise ValueError naming every key of ``doc`` outside ``known``, and
    every key of ``required`` that ``doc`` lacks."""
    unknown, missing = sorted(set(doc) - known), sorted(required - set(doc))
    if unknown:
        raise ValueError(f"unknown {where} key {', '.join(map(repr, unknown))}; "
                         f"expected keys are {', '.join(sorted(known))}")
    if missing:
        raise ValueError(f"{where} is missing key {', '.join(map(repr, missing))}")


def read_ground_truth(path) -> GroundTruth:
    """The truth a ``write_ground_truth`` document holds; any other key, or
    a missing one, raises ValueError naming it."""
    doc = json.loads(Path(path).read_text())
    check_keys(doc, TRUTH_KEYS, "ground truth", required=TRUTH_KEYS)
    return GroundTruth(doc["euler_deg"], doc["t_d_s"])


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
        "scan": [[float(t), float(r)] for t, r in result.scan],
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


def write_offset_scan(path, table: np.ndarray) -> None:
    """Write a block's scan table as a ``.npy`` array (``path`` ends in
    ``.npy``), which ``np.load(path, allow_pickle=False)`` reads back bit
    for bit."""
    np.save(path, table, allow_pickle=False)
