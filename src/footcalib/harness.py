"""Experiment driver: optimize, simulate and calibrate over a full matrix.

Runs every (foot, motion, noise density, seed) cell of an experiment
configuration, collecting condition number, correlation, rotation error
and time-offset error per cell, and writes deterministic report files.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

# a cell runs the array cores; bench/tracing.py still patches calibrate and simulate_imu here
from .calibrate import FootSide, calibrate, foot_side, project_rotation, scan_offset  # noqa: F401
from .errors import CalibrationError, TrajectoryRejectedError
from .kinematics import JointTrajectory, LegGeometry, trajectory_to_foot_velocity
from .optimizer import (OptimizerConfig, eval_basis, initial_basis_spec, is_count, optimize,
                        period_samples, require_limits_contain_zero)
from .simulate import (GroundTruth, Motion, add_noise, baseline_gait, clean_stream,  # noqa: F401
                       euler_deg_to_matrix, gait_time_grid, matrix_to_euler_deg,
                       random_ground_truth, simulate_imu)
from . import io as fio

FOOT_IDS = ("FL", "FR", "RL", "RR")


# Stable per-token codes for child-seed derivation; row results must not
# depend on the position of a motion/foot/density in the config lists.
_MOTION_CODE = {Motion.A2I: 1, Motion.WALK: 2, Motion.SPIN: 3, Motion.WAVE: 4}
# Largest condition number an a2i trajectory may have to be run at all.
A2I_KAPPA_BAND = 1.6
_FAILED_METRICS = dict(cn=math.nan, cc=math.nan, re_deg=math.nan, td_error_ms=math.nan,
                       gimbal_flagged=False, geodesic_deg=math.nan)


def _foot_code(foot: str) -> int:
    # The 0x01 lead byte keeps names with leading zero bytes apart, so the
    # code is injective on names; custom codes start above 100.
    if foot in FOOT_IDS:
        return FOOT_IDS.index(foot)
    return 100 + int.from_bytes(b"\x01" + foot.encode("utf-8"), "big")


def _density_code(density: float) -> int:
    return int(round(density * 1e9))


def _child_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def calibration_geometry() -> LegGeometry:
    """Leg geometry with posture-relative joint limits.

    Generated calibration trajectories oscillate about zero by
    construction, so experiment limits are expressed as deviations from
    the nominal lifted calibration posture rather than absolute Go2-class
    ranges (whose calf interval does not contain zero).
    """
    return LegGeometry(hip_limits=(-0.84, 0.84), thigh_limits=(-1.5, 1.5),
                       calf_limits=(-1.5, 1.5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment matrix description.

    The motions must be distinct. With the a2i motion, the joint limits
    must contain 0 and the optimizer's period must be a whole number of IMU
    samples (``period_samples``); with a gait, the offset range must be at
    most a quarter of the gaits' span, the most their scan takes. Otherwise
    construction raises ValueError.
    """

    geometry: LegGeometry
    truths: dict[str, GroundTruth]
    noise_densities: tuple[float, ...]
    motions: tuple[Motion, ...]
    optimizer: OptimizerConfig
    seeds: tuple[int, ...]
    output_dir: Path

    def __post_init__(self):
        if not self.truths:
            raise ValueError("need at least one foot")
        if not self.noise_densities:
            raise ValueError("need at least one noise density")
        if not self.motions:
            raise ValueError("need at least one motion")
        if len(set(self.motions)) < len(self.motions):
            raise ValueError(f"motions must be distinct, got {[m.value for m in self.motions]}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not all(0 <= d < math.inf for d in self.noise_densities):
            raise ValueError("noise densities must be finite and >= 0")
        # a shared density code or a repeated seed would give two cells one noise seed
        if len({_density_code(d) for d in self.noise_densities}) < len(self.noise_densities):
            raise ValueError("noise densities must differ when rounded to 1e-9")
        if not all(is_count(s) for s in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, got {list(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct")
        if Motion.A2I in self.motions:
            require_limits_contain_zero(self.geometry)
            period_samples(self.optimizer.period, self.optimizer.imu_frequency)
        if set(self.motions) - {Motion.A2I}:
            span = float(gait_time_grid(self.optimizer.imu_frequency)[-1])
            if self.optimizer.offset_range > span / 4:
                raise ValueError(f"offset range {self.optimizer.offset_range} exceeds a quarter "
                                 f"of the baseline gaits' span {span}")
        for foot, truth in self.truths.items():
            # a foot name is a field of rows.csv and part of a scan file name
            if not (isinstance(foot, str) and re.fullmatch(r"[A-Za-z0-9_-]+", foot)):
                raise ValueError(f"foot name {foot!r} must be one or more ASCII letters, "
                                 "digits, '_' or '-'")
            if abs(truth.time_offset) > self.optimizer.offset_range:
                raise ValueError(
                    f"{foot}: |time offset| {abs(truth.time_offset)} exceeds the "
                    f"search range {self.optimizer.offset_range}"
                )
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def default_truths(base_seed: int = 0,
                   optimizer: OptimizerConfig = OptimizerConfig()) -> dict[str, GroundTruth]:
    """Distinct seeded random mounting truths for the four feet.

    Offsets lie within ±min(0.1 s, the optimizer's offset range), on its
    IMU sample grid.
    """
    offset_range = min(0.1, optimizer.offset_range)
    truths = {}
    for foot in FOOT_IDS:
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, 7, _foot_code(foot)]))
        truths[foot] = random_ground_truth(rng, offset_range,
                                           grid_step=1 / optimizer.imu_frequency)
    return truths


def default_experiment_config(output_dir, base_seed: int = 0,
                              noise_densities=(0.006, 0.03, 0.06),
                              motions=tuple(Motion), seeds=tuple(range(20)),
                              optimizer: OptimizerConfig | None = None) -> ExperimentConfig:
    """The default matrix, and the values ``config_from_dict`` gives missing sections."""
    optimizer = optimizer or OptimizerConfig(seed=base_seed)
    return ExperimentConfig(
        geometry=calibration_geometry(),
        truths=default_truths(base_seed, optimizer),
        noise_densities=tuple(noise_densities),
        motions=tuple(motions),
        optimizer=optimizer,
        seeds=tuple(seeds),
        output_dir=Path(output_dir),
    )


@dataclass(frozen=True)
class RotationError:
    """Rotation calibration error in degrees.

    ``degrees`` is the Euclidean norm of the per-axis intrinsic x-y-z
    Euler-angle differences (wrapped to (-180, 180]); when the Euler
    extraction is within 0.5 deg of gimbal lock the geodesic angle is
    reported instead and the result is flagged.
    """

    degrees: float
    geodesic_degrees: float
    gimbal_flagged: bool


def rotation_error(rotation_estimate, truth_euler_deg) -> RotationError:
    est = np.asarray(rotation_estimate, dtype=float)
    if est.shape != (3, 3) or not (np.abs(est.T @ est - np.eye(3)).max() <= 1e-9
                                   and abs(np.linalg.det(est) - 1.0) <= 1e-9):
        raise ValueError("rotation_estimate must be a proper rotation matrix")
    truth = np.asarray(truth_euler_deg, dtype=float)
    if truth.shape != (3,):
        raise ValueError("truth_euler_deg must be a 3-vector (roll, pitch, yaw) in degrees")
    return RotationError(*_rotation_error(est, truth, euler_deg_to_matrix(truth)))


def _rotation_error(est: np.ndarray, truth: np.ndarray,
                    truth_matrix: np.ndarray) -> tuple[float, float, bool]:
    """The array core of ``rotation_error``: its three fields, from a truth's angles and matrix."""
    est_euler = matrix_to_euler_deg(est)
    per_axis = (est_euler - truth + 180.0) % 360.0 - 180.0  # wrapped to [-180, 180)
    euler_norm = float(np.sqrt(np.sum(per_axis ** 2)))
    cos_angle = np.clip((np.trace(est @ truth_matrix.T) - 1.0) / 2.0, -1.0, 1.0)
    geodesic = float(math.degrees(math.acos(cos_angle)))
    flagged = bool(min(abs(abs(est_euler[1]) - 90.0), abs(abs(truth[1]) - 90.0)) < 0.5)
    return geodesic if flagged else euler_norm, geodesic, flagged


@dataclass(frozen=True)
class ReportRow:
    """One matrix cell result. Failed cells carry the error message and NaN metrics."""

    foot: str
    motion: Motion
    noise_density: float
    seed: int
    cn: float
    cc: float
    re_deg: float
    td_error_ms: float
    gimbal_flagged: bool
    geodesic_deg: float
    wall_time_s: float
    error: str = ""


@dataclass(frozen=True)
class SummaryRow:
    """Median metrics over feet and seeds for one (motion, density) cell."""

    motion: Motion
    noise_density: float
    rows: int
    median_cn: float
    median_cc: float
    median_re_deg: float
    median_abs_td_error_ms: float


@dataclass(frozen=True)
class MatrixResult:
    rows: list[ReportRow]
    summary: list[SummaryRow]
    output_dir: Path


def build_trajectory(config: ExperimentConfig, motion: Motion, foot: str,
                     seed: int) -> JointTrajectory:
    """Trajectory a cell executes: optimizer output for a2i, fixed gait otherwise.

    The a2i motion is optimized once per (foot, seed) and executed for two
    full periods so the calibration window can cover one exact period away
    from the data edges; ``optimize`` keeps it inside the joint limits. An
    optimizer result above the ``A2I_KAPPA_BAND`` condition number raises
    TrajectoryRejectedError instead. Baseline gaits run for
    ``GAIT_DURATION`` at the experiment sample rate.
    """
    opt = config.optimizer
    if motion is Motion.A2I:
        init_seed = _child_seed(opt.seed, 1, _foot_code(foot), _MOTION_CODE[motion], seed)
        result = optimize(initial_basis_spec(opt, seed=init_seed), opt, config.geometry)
        if result.kappa_final > A2I_KAPPA_BAND:
            raise TrajectoryRejectedError(
                f"a2i trajectory for {foot} seed {seed} is out of band: "
                f"kappa {result.kappa_final:.4g} (band {A2I_KAPPA_BAND}), converged={result.converged}")
        n = period_samples(result.spec.period, opt.imu_frequency)
        return eval_basis(result.spec, np.arange(2 * n + 1) / opt.imu_frequency)
    return baseline_gait(motion, opt.imu_frequency)


def _prepare(config: ExperimentConfig, motion: Motion, foot: str,
             seed: int) -> tuple[FootSide | None, str]:
    """The foot side of the trajectory that ``build_trajectory`` gives, or the error text of
    its rejection or of a foot window below the excitation floor."""
    opt = config.optimizer
    # an a2i cell is calibrated on one period, away from the data edges
    window = period_samples(opt.period, opt.imu_frequency) if motion is Motion.A2I else None
    try:
        series = trajectory_to_foot_velocity(build_trajectory(config, motion, foot, seed))
        return foot_side(series, opt.offset_range, window), ""
    except CalibrationError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_cell(config: ExperimentConfig, foot: str, motion: Motion, density: float, seed: int,
             side: FootSide, clean: np.ndarray):
    """One matrix cell on plain arrays, against its trajectory's foot side and its foot's noiseless
    IMU stream: (ReportRow fields without wall time, r per lag of ``side.lags``)."""
    truth = config.truths[foot]
    noise_seed = _child_seed(config.optimizer.seed, 2, _foot_code(foot), _MOTION_CODE[motion],
                             _density_code(density), seed)
    imu = add_noise(clean, density, noise_seed, side.foot.uniform_dt())
    time_offset, rs, sigma_if = scan_offset(side, imu)
    rotation = project_rotation(side.sigma_ff, sigma_if.T)
    degrees, geodesic, flagged = _rotation_error(rotation, truth.euler_deg, truth.rotation)
    metrics = dict(cn=side.kappa, cc=float(np.nanmax(rs)), re_deg=degrees,
                   td_error_ms=(time_offset - truth.time_offset) * 1e3,
                   gimbal_flagged=flagged, geodesic_deg=geodesic)
    return metrics, rs


def _summarize(rows: list[ReportRow], motions, densities) -> list[SummaryRow]:
    """Medians over each (motion, density) group's cells that ran; NaN if none ran."""
    summary = []
    for motion, density in product(motions, densities):
        cells = [(r.cn, r.cc, r.re_deg, abs(r.td_error_ms)) for r in rows
                 if r.motion is motion and r.noise_density == density and not r.error]
        medians = np.median(cells, axis=0).tolist() if cells else [math.nan] * 4
        summary.append(SummaryRow(motion, density, len(cells), *medians))
    return summary


def run_matrix(config: ExperimentConfig) -> MatrixResult:
    """Run the full experiment matrix and write the report files.

    Report files (rows.csv, summary.csv, summary.json and the offset scans)
    are deterministic for a fixed config; wall-clock timings go to a
    separate timing.csv so the reports stay byte-reproducible. Work
    proceeds one trajectory (an a2i seed's, or a gait) at a time: its foot
    side (``calibrate.foot_side``), a gait's once for all feet, and each
    foot's noiseless IMU stream on it are prepared once. Rows are written
    per (foot, motion) block, in report order: foot, motion, density, seed.
    A failed cell records its error without aborting the matrix; a
    trajectory that fails to build (a rejected a2i one) or whose foot
    window is below the excitation floor fails exactly its own cells.

    Each block's scans go to one file, ``scans/{foot}_{motion}.npy``: a
    float64 array of shape (1 + cells, 2n + 1). Row 0 is the block's lag
    grid in seconds, and row 1 + i holds the r values of the block's i-th
    line in rows.csv. A failed cell's row is all NaN; a block whose cells
    all failed writes no file.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "scans").mkdir(exist_ok=True)

    feet = sorted(config.truths)
    motions = sorted(config.motions, key=lambda m: m.value)
    densities = sorted(config.noise_densities)
    seeds = sorted(config.seeds)
    # each cell's place in its block, which is report order
    slots = {cell: i for i, cell in enumerate(product(densities, seeds))}
    gaits = {}  # motion -> _prepare of its gait, for every foot

    rows: list[ReportRow] = []
    with fio.open_rows_writer(out / "rows.csv") as write_row, \
            fio.open_timing_writer(out / "timing.csv") as write_timing:
        for foot in feet:
            for motion in motions:
                block: list[ReportRow | None] = [None] * len(slots)
                scans = None  # allocated at the block's first scan, once its length is known
                # the seeds whose cells run each trajectory: one per a2i seed, all for a gait
                for group in ([[s] for s in seeds] if motion is Motion.A2I else [seeds]):
                    started = time.perf_counter()
                    side, rejected = gaits.get(motion) or _prepare(config, motion, foot, group[0])
                    if motion is not Motion.A2I:
                        gaits[motion] = side, rejected
                    clean = None if rejected else clean_stream(side.foot, config.truths[foot])
                    for density, seed in product(densities, group):
                        metrics, scan, error = _FAILED_METRICS, None, rejected
                        if not rejected:
                            try:
                                metrics, scan = run_cell(config, foot, motion, density, seed,
                                                         side, clean)
                            except CalibrationError as exc:
                                error = f"{type(exc).__name__}: {exc}"
                        slot = slots[density, seed]
                        block[slot] = ReportRow(foot=foot, motion=motion, noise_density=density,
                                                seed=seed, wall_time_s=time.perf_counter() - started,
                                                error=error, **metrics)
                        if scan is not None:
                            if scans is None:
                                scans = np.full((1 + len(slots), len(scan)), math.nan)
                                scans[0] = side.lags * side.foot.uniform_dt()
                            scans[1 + slot] = scan
                        started = time.perf_counter()
                write_row(*block)
                write_timing(*block)
                rows += block
                if scans is not None:
                    fio.write_offset_scan(out / "scans" / f"{foot}_{motion.value}.npy", scans)

    summary = _summarize(rows, motions, densities)
    fio.write_summary_csv(out / "summary.csv", summary)
    fio.write_summary_json(out / "summary.json", summary)
    return MatrixResult(rows=rows, summary=summary, output_dir=out)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "geometry": {name: list(getattr(config.geometry, name)) for name in sorted(_GEOMETRY_KEYS)},
        "truths": {
            foot: {"euler_deg": truth.euler_deg.tolist(),
                   "t_d_s": float(truth.time_offset)}
            for foot, truth in sorted(config.truths.items())
        },
        "noise_densities": list(config.noise_densities),
        "motions": [m.value for m in config.motions],
        "optimizer": asdict(config.optimizer),
        "seeds": list(config.seeds),
        "output_dir": str(config.output_dir),
    }


# the keys config_to_dict writes at the top level, in geometry and in each truth
_CONFIG_KEYS = frozenset({"geometry", "truths", "noise_densities", "motions", "optimizer", "seeds",
                          "output_dir"})
_GEOMETRY_KEYS = frozenset({"hip_limits", "thigh_limits", "calf_limits"})


def config_from_dict(doc: dict, output_dir=None) -> ExperimentConfig:
    """Build a config from a JSON document.

    Missing sections take the values of ``default_experiment_config`` for
    the document's optimizer seed. A key that ``config_to_dict`` does not
    write, at the top level, in ``geometry`` or in a truth, raises
    ValueError naming it, so a misspelt section or field cannot fall back
    to its default unnoticed; so does a geometry limit or a truth's
    ``euler_deg`` that is missing.
    """
    fio.check_keys(doc, _CONFIG_KEYS, "config")
    optimizer = OptimizerConfig(**doc.get("optimizer", {}))
    lists = {name: tuple(doc[name]) for name in ("noise_densities", "seeds") if name in doc}
    if "motions" in doc:
        lists["motions"] = tuple(Motion(m.lower()) for m in doc["motions"])
    config = default_experiment_config(
        output_dir if output_dir is not None else doc.get("output_dir", "matrix-out"),
        base_seed=optimizer.seed, optimizer=optimizer, **lists)
    sections = {}
    if "geometry" in doc:
        g = doc["geometry"]
        fio.check_keys(g, _GEOMETRY_KEYS, "geometry", required=_GEOMETRY_KEYS)
        sections["geometry"] = LegGeometry(**g)
    if "truths" in doc:
        for foot, spec in doc["truths"].items():
            fio.check_keys(spec, fio.TRUTH_KEYS, f"truths.{foot}", required=frozenset({"euler_deg"}))
        sections["truths"] = {foot: GroundTruth(spec["euler_deg"], spec.get("t_d_s", 0.0))
                              for foot, spec in doc["truths"].items()}
    return replace(config, **sections)


def save_config(path, config: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
