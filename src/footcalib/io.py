"""File formats: delimited-text dumps, JSON documents and scan arrays.

Numeric text is written with 17 significant digits so round trips
preserve doubles exactly, and text files end with a newline. A matrix
run's offset scans are binary: one float64 ``.npy`` array (the NumPy
format of ``np.save``) per (foot, motion) block, exact without
formatting. Writers are deterministic: identical inputs produce
byte-identical files.

A dump (a trajectory or a measurement series) is a float table whose
first column is its time grid. The writer formats each distinct grid once
and keeps the text of the last few grids (keyed on their bytes), so two
dumps on one grid format only their other columns. Tables are parsed by
numpy's C tokenizer (``np.loadtxt``), which rounds correctly as ``float``
does, so a write-read round trip is bit-exact. It rejects values that
``float`` alone would take, such as ``1_0``.

The matrix reports name their columns once, in ``ROW_FIELDS``,
``TIMING_FIELDS`` and ``SUMMARY_FIELDS``; a CSV header is its tuple joined
with commas. CSV text is a flag as 1 or 0, a float in ``%.17g``, a motion
as its value, and other text with each comma replaced by ``;``. JSON
documents are strict (RFC 8259): a motion is its value, a non-finite float
``null``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import lru_cache, partial
from io import StringIO
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult
from .kinematics import AngularVelocitySeries, Frame, JointTrajectory
from .optimizer import OptimizeResult
from .simulate import GroundTruth, matrix_to_euler_deg

TRAJECTORY_HEADER = "t,theta_hip,theta_thigh,theta_calf,dtheta_hip,dtheta_thigh,dtheta_calf"
MEASUREMENT_HEADER = "t,wx,wy,wz,frame"


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
    # strict JSON (RFC 8259): a non-finite float raises instead of writing NaN
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _json_value(value):
    """A motion as its value, a non-finite float as None (JSON ``null``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return getattr(value, "value", value)


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
        "kappa_final": _json_value(float(result.kappa_final)),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "kappa_history": [_json_value(float(v)) for v in result.kappa_history],
    })


def write_calibration_report(path, result: CalibrationResult) -> None:
    euler = matrix_to_euler_deg(result.rotation)
    _dump_json(path, {
        "t_d_s": float(result.time_offset),
        "euler_deg": [float(v) for v in euler],
        "rotation_matrix": [float(v) for v in result.rotation.reshape(-1)],
        "correlation": float(result.correlation),
        "condition_number": float(result.condition_number),
        # a lag whose correlation failed has r NaN, written null
        "scan": [[t, _json_value(r)] for t, r in result.scan.tolist()],
    })


# the columns of rows.csv, timing.csv and the summary files, each named once
ROW_FIELDS = ("foot", "motion", "noise_density", "seed", "cn", "cc", "re_deg", "td_error_ms",
              "gimbal_flagged", "geodesic_deg", "error")
TIMING_FIELDS = ROW_FIELDS[:4] + ("wall_time_s",)
SUMMARY_FIELDS = ROW_FIELDS[1:3] + ("rows", "median_cn", "median_cc", "median_re_deg",
                                     "median_abs_td_error_ms")


def _csv_text(value) -> str:
    """CSV text of a report value; a comma in text becomes ';', so it stays one field."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    return str(getattr(value, "value", value)).replace(",", ";")


def _csv_line(record, fields) -> str:
    return ",".join([_csv_text(getattr(record, name)) for name in fields]) + "\n"


@contextmanager
def _open_record_writer(path, fields):
    """Write the ``fields`` header; yield a callable writing and flushing a block of records."""
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(fields) + "\n")

        def write(*records):
            handle.write("".join([_csv_line(record, fields) for record in records]))
            handle.flush()

        yield write


# the wall times go to the timing.csv sidecar, kept out of rows.csv so the
# reports stay deterministic
open_rows_writer = partial(_open_record_writer, fields=ROW_FIELDS)
open_timing_writer = partial(_open_record_writer, fields=TIMING_FIELDS)


def write_summary_csv(path, summary) -> None:
    Path(path).write_text(",".join(SUMMARY_FIELDS) + "\n"
                          + "".join([_csv_line(cell, SUMMARY_FIELDS) for cell in summary]))


def write_summary_json(path, summary) -> None:
    _dump_json(path, [{name: _json_value(getattr(cell, name)) for name in SUMMARY_FIELDS}
                      for cell in summary])


def write_offset_scan(path, table: np.ndarray) -> None:
    """Write a block's scan table as a ``.npy`` array (``path`` ends in
    ``.npy``), which ``np.load(path, allow_pickle=False)`` reads back bit
    for bit."""
    np.save(path, table, allow_pickle=False)
