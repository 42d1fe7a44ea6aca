"""Experiment driver: optimize, simulate and calibrate over a full matrix.

Runs every (foot, motion, noise density, seed) cell of an experiment
configuration, collecting condition number, correlation, rotation error
and time-offset error per cell, and writes deterministic report files.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .calibrate import OffsetSearch, calibrate, is_proper_rotation
from .errors import CalibrationError, TrajectoryRejectedError
from .kinematics import AngularVelocitySeries, JointTrajectory, LegGeometry, trajectory_to_foot_velocity
from .optimizer import (OptimizerConfig, eval_basis, initial_basis_spec, is_count, optimize,
                        period_samples, require_limits_contain_zero)
from .simulate import (GaitKind, GroundTruth, NoiseModel, baseline_gait, euler_deg_to_matrix,
                       matrix_to_euler_deg, random_ground_truth, simulate_imu)
from . import io as fio

FOOT_IDS = ("FL", "FR", "RL", "RR")


class Motion(Enum):
    """Calibration motion executed for a matrix cell."""

    A2I = "a2i"    # condition-number-optimized calibration motion
    WALK = "walk"
    SPIN = "spin"
    WAVE = "wave"


# Stable per-token codes for child-seed derivation; row results must not
# depend on the position of a motion/foot/density in the config lists.
_MOTION_CODE = {Motion.A2I: 1, Motion.WALK: 2, Motion.SPIN: 3, Motion.WAVE: 4}
_GAIT_FOR_MOTION = {Motion.WALK: GaitKind.WALK, Motion.SPIN: GaitKind.SPIN,
                    Motion.WAVE: GaitKind.WAVE}
# Largest condition number an a2i trajectory may have to be run at all.
A2I_KAPPA_BAND = 1.6


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

    With the a2i motion, the joint limits must contain 0 and the
    optimizer's period must be a whole number of IMU samples
    (``period_samples``), or construction raises ValueError.
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
        for foot, truth in self.truths.items():
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


def _wrap_deg(d: np.ndarray) -> np.ndarray:
    return (d + 180.0) % 360.0 - 180.0


def rotation_error(rotation_estimate, truth_euler_deg) -> RotationError:
    est = np.asarray(rotation_estimate, dtype=float)
    if est.shape != (3, 3) or not is_proper_rotation(est):
        raise ValueError("rotation_estimate must be a proper rotation matrix")
    truth = np.asarray(truth_euler_deg, dtype=float)
    if truth.shape != (3,):
        raise ValueError("truth_euler_deg must be a 3-vector (roll, pitch, yaw) in degrees")

    est_euler = matrix_to_euler_deg(est)
    per_axis = _wrap_deg(est_euler - truth)
    euler_norm = float(np.sqrt(np.sum(per_axis ** 2)))

    truth_matrix = euler_deg_to_matrix(truth)
    relative = est @ truth_matrix.T
    cos_angle = np.clip((np.trace(relative) - 1.0) / 2.0, -1.0, 1.0)
    geodesic = float(math.degrees(math.acos(cos_angle)))

    flagged = min(abs(abs(est_euler[1]) - 90.0), abs(abs(truth[1]) - 90.0)) < 0.5
    return RotationError(degrees=geodesic if flagged else euler_norm,
                         geodesic_degrees=geodesic, gimbal_flagged=flagged)


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
    return baseline_gait(_GAIT_FOR_MOTION[motion], opt.imu_frequency)


def run_cell(config: ExperimentConfig, foot: str, motion: Motion, density: float,
             seed: int, foot_series: AngularVelocitySeries):
    """One matrix cell: simulate, calibrate, compute metrics.

    ``foot_series`` is the foot-end angular velocity of the cell's
    trajectory. Returns (ReportRow fields without wall time, offset scan).
    """
    opt = config.optimizer
    truth = config.truths[foot]
    noise_seed = _child_seed(opt.seed, 2, _foot_code(foot), _MOTION_CODE[motion],
                             _density_code(density), seed)
    imu = simulate_imu(foot_series, truth, NoiseModel(density=density, seed=noise_seed))
    # an a2i cell is calibrated on one period, away from the data edges
    window = period_samples(opt.period, opt.imu_frequency) if motion is Motion.A2I else None
    result = calibrate(imu, foot_series, OffsetSearch(opt.offset_range), window)
    err = rotation_error(result.rotation, truth.euler_deg)
    metrics = dict(
        cn=result.condition_number,
        cc=result.correlation,
        re_deg=err.degrees,
        td_error_ms=(result.time_offset - truth.time_offset) * 1e3,
        gimbal_flagged=err.gimbal_flagged,
        geodesic_deg=err.geodesic_degrees,
    )
    return metrics, result.offset_scan


def _summarize(rows: list[ReportRow], motions, densities) -> list[SummaryRow]:
    summary = []
    for motion in motions:
        for density in densities:
            cells = [r for r in rows
                     if r.motion is motion and r.noise_density == density and not r.error]
            if cells:
                summary.append(SummaryRow(
                    motion=motion, noise_density=density, rows=len(cells),
                    median_cn=float(np.median([r.cn for r in cells])),
                    median_cc=float(np.median([r.cc for r in cells])),
                    median_re_deg=float(np.median([r.re_deg for r in cells])),
                    median_abs_td_error_ms=float(np.median([abs(r.td_error_ms) for r in cells])),
                ))
            else:
                summary.append(SummaryRow(motion=motion, noise_density=density, rows=0,
                                          median_cn=math.nan, median_cc=math.nan,
                                          median_re_deg=math.nan,
                                          median_abs_td_error_ms=math.nan))
    return summary


def run_matrix(config: ExperimentConfig) -> MatrixResult:
    """Run the full experiment matrix and write the report files.

    Report files (rows.csv, summary.csv, summary.json and the per-cell
    offset scans) are deterministic for a fixed config; wall-clock timings
    go to a separate timing.csv so the reports stay byte-reproducible.
    Rows are ordered by foot, motion, density, seed and written as they
    are computed. A failed cell records its error and does not abort the
    matrix. Each trajectory is built and mapped to its foot series once;
    one that fails there (such as a rejected a2i trajectory) fails every
    cell that runs it.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "scans").mkdir(exist_ok=True)

    feet = sorted(config.truths)
    motions = sorted(config.motions, key=lambda m: m.value)
    densities = sorted(config.noise_densities)
    seeds = sorted(config.seeds)

    # foot series per trajectory, or the error that rejected the trajectory
    foot_series_cache: dict = {}
    rows: list[ReportRow] = []
    with fio.open_rows_writer(out / "rows.csv") as write_row, \
            fio.open_timing_writer(out / "timing.csv") as write_timing:
        for foot in feet:
            for motion in motions:
                for density in densities:
                    for seed in seeds:
                        started = time.perf_counter()
                        cache_key = (motion, foot, seed) if motion is Motion.A2I else motion
                        if cache_key not in foot_series_cache:
                            try:
                                foot_series_cache[cache_key] = trajectory_to_foot_velocity(
                                    build_trajectory(config, motion, foot, seed))
                            except CalibrationError as exc:
                                foot_series_cache[cache_key] = exc
                        try:
                            foot_series = foot_series_cache[cache_key]
                            if isinstance(foot_series, CalibrationError):
                                raise foot_series
                            metrics, scan = run_cell(config, foot, motion, density, seed,
                                                     foot_series)
                            error = ""
                        except CalibrationError as exc:
                            metrics = dict(cn=math.nan, cc=math.nan, re_deg=math.nan,
                                           td_error_ms=math.nan, gimbal_flagged=False,
                                           geodesic_deg=math.nan)
                            scan = None
                            error = f"{type(exc).__name__}: {exc}"
                        wall = time.perf_counter() - started
                        row = ReportRow(foot=foot, motion=motion, noise_density=density,
                                        seed=seed, wall_time_s=wall, error=error, **metrics)
                        rows.append(row)
                        write_row(row)
                        write_timing(row)
                        if scan is not None:
                            fio.write_offset_scan(
                                out / "scans" / f"{foot}_{motion.value}_{float(density)!r}_{seed}.csv",
                                scan)

    summary = _summarize(rows, motions, densities)
    fio.write_summary_csv(out / "summary.csv", summary)
    fio.write_summary_json(out / "summary.json", summary)
    return MatrixResult(rows=rows, summary=summary, output_dir=out)


def config_to_dict(config: ExperimentConfig) -> dict:
    geo = config.geometry
    return {
        "geometry": {
            "hip_limits": list(geo.hip_limits),
            "thigh_limits": list(geo.thigh_limits),
            "calf_limits": list(geo.calf_limits),
        },
        "truths": {
            foot: {"euler_deg": [float(v) for v in truth.euler_deg],
                   "t_d_s": float(truth.time_offset)}
            for foot, truth in sorted(config.truths.items())
        },
        "noise_densities": list(config.noise_densities),
        "motions": [m.value for m in config.motions],
        "optimizer": asdict(config.optimizer),
        "seeds": list(config.seeds),
        "output_dir": str(config.output_dir),
    }


def config_from_dict(doc: dict, output_dir=None) -> ExperimentConfig:
    """Build a config from a JSON document.

    Missing sections take the values of ``default_experiment_config`` for
    the document's optimizer seed. A ``geometry.twists`` entry, which older
    documents carry, must be the leg's fixed modified-DH twists
    (0, -pi/2, 0, 0) to 1e-12; the foot velocity map is defined for no
    other set, so any other value raises ValueError here.
    """
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
        if "twists" in g:
            twists = np.asarray(g["twists"], dtype=float)
            if not (twists.shape == (4,)
                    and np.all(np.abs(twists - (0.0, -math.pi / 2, 0.0, 0.0)) <= 1e-12)):
                raise ValueError(f"geometry.twists must be (0, -pi/2, 0, 0), got {g['twists']}")
        sections["geometry"] = LegGeometry(
            hip_limits=tuple(g["hip_limits"]),
            thigh_limits=tuple(g["thigh_limits"]),
            calf_limits=tuple(g["calf_limits"]),
        )
    if "truths" in doc:
        sections["truths"] = {foot: GroundTruth.from_euler_deg(*spec["euler_deg"],
                                                               time_offset=spec.get("t_d_s", 0.0))
                              for foot, spec in doc["truths"].items()}
    return replace(config, **sections)


def save_config(path, config: ExperimentConfig) -> None:
    import json

    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


def load_config(path, output_dir=None) -> ExperimentConfig:
    import json

    return config_from_dict(json.loads(Path(path).read_text()), output_dir=output_dir)
