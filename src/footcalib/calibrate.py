"""Spatial-temporal calibration of a foot IMU against leg kinematics.

The time offset is found by scanning candidate shifts of the IMU stream
and maximizing the trace correlation between the shifted stream and the
kinematic foot-end series; the extrinsic rotation then comes from an
SVD-projected product of the covariance matrices at the winning shift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, RankDeficiencyError
from .kinematics import AngularVelocitySeries, Frame, resample
from .optimizer import condition_number, sample_covariance

_AXES = ("x", "y", "z")
_REFINE_FACTOR = 10  # the fine pass scans at step / _REFINE_FACTOR around the coarse argmax


def is_proper_rotation(matrix: np.ndarray) -> bool:
    """True when a 3x3 matrix is orthogonal with determinant +1, both to 1e-9."""
    return bool(np.abs(matrix.T @ matrix - np.eye(3)).max() <= 1e-9
                and abs(np.linalg.det(matrix) - 1.0) <= 1e-9)


def require_invertible(sigma: np.ndarray, name: str) -> None:
    """Raise if an auto-covariance is singular at the 1e-12 relative SVD floor."""
    s = np.linalg.svd(sigma, compute_uv=False)
    if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
        raise IllConditionedError(
            f"{name} is singular at the 1e-12 relative floor; "
            "the motion is insufficiently excited"
        )


@dataclass(frozen=True)
class CovarianceSet:
    """Auto- and cross-covariances of an IMU/foot angular-velocity pair."""

    sigma_ii: np.ndarray
    sigma_ff: np.ndarray
    sigma_if: np.ndarray

    @property
    def sigma_fi(self) -> np.ndarray:
        """Foot-IMU cross-covariance, exactly the transpose of ``sigma_if``."""
        return self.sigma_if.T


def _require_aligned(imu: AngularVelocitySeries, foot: AngularVelocitySeries) -> None:
    if len(imu) != len(foot):
        raise ValueError(f"length mismatch: {len(imu)} vs {len(foot)}")
    span = max(foot.span, 1e-300)
    if np.abs(imu.time_grid - foot.time_grid).max() > 1e-9 * span:
        raise ValueError("series grids are not aligned")


def covariance_set(imu_shifted: AngularVelocitySeries, foot: AngularVelocitySeries) -> CovarianceSet:
    """Auto- and cross-covariances of an aligned IMU/foot series pair.

    Sample-mean centring with 1/(N-1) normalization; the foot-IMU cross
    matrix is exactly the transpose of the IMU-foot one.
    """
    if len(foot) < 2:
        raise ValueError("need at least 2 samples")
    _require_aligned(imu_shifted, foot)
    return CovarianceSet(sigma_ii=sample_covariance(imu_shifted.samples),
                         sigma_ff=sample_covariance(foot.samples),
                         sigma_if=sample_covariance(imu_shifted.samples, foot.samples))


def _trace_correlation(sigma_ii: np.ndarray, sigma_ff: np.ndarray, sigma_if: np.ndarray) -> float:
    product = np.linalg.solve(sigma_ii, sigma_if) @ np.linalg.solve(sigma_ff, sigma_if.T)
    r_squared = float(np.trace(product)) / 3.0
    if r_squared < -1e-9:
        warnings.warn(f"trace correlation squared is {r_squared}, clamping to 0")
    r = math.sqrt(max(r_squared, 0.0))
    if r > 1.0 + 1e-9:
        warnings.warn(f"trace correlation is {r}, clamping to 1")
    return min(r, 1.0)


def trace_correlation(cov: CovarianceSet) -> float:
    """Trace correlation coefficient of the series pair behind ``cov``.

    r = sqrt(Tr(S_II^-1 S_IF S_FF^-1 S_FI) / 3), clamped to [0, 1]. A
    warning is emitted if the raw value falls outside by more than 1e-9.
    """
    require_invertible(cov.sigma_ii, "sigma_ii")
    require_invertible(cov.sigma_ff, "sigma_ff")
    return _trace_correlation(cov.sigma_ii, cov.sigma_ff, cov.sigma_if)


@dataclass(frozen=True)
class OffsetSearch:
    """Candidate grid for the time-offset scan."""

    offset_range: float        # scan covers ±offset_range seconds
    step: float                # coarse candidate spacing, seconds

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.offset_range < 0:
            raise ValueError("offset_range must be >= 0")


@dataclass(frozen=True)
class OffsetEstimate:
    time_offset: float
    scan: np.ndarray  # rows of (candidate offset, trace correlation); NaN r marks failures
    covariance: CovarianceSet  # of the pair on the scan window, IMU shifted by time_offset


def _paired_window(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
                   offset_range: float, window_samples: int | None) -> tuple[int, int]:
    """Index window on the common grid valid for every candidate shift."""
    _require_aligned(imu, foot)
    dt = foot.uniform_dt()
    margin = int(math.ceil(offset_range / dt - 1e-9))
    i0, i1 = margin, len(foot) - margin
    if i1 - i0 < 2:
        raise ValueError("series too short for the requested offset range")
    if window_samples is not None:
        if window_samples < 2 or window_samples > i1 - i0:
            raise ValueError(
                f"window of {window_samples} samples does not fit the valid span of {i1 - i0}"
            )
        i0 = i0 + (i1 - i0 - window_samples) // 2
        i1 = i0 + window_samples
    return i0, i1


def _scan_correlations(imu: AngularVelocitySeries, t_window: np.ndarray, foot_window: np.ndarray,
                       sigma_ff: np.ndarray, candidates: np.ndarray):
    """Trace correlation of every candidate shift, and its (sigma_ii, sigma_if) pair.

    ``sigma_ff`` belongs to ``foot_window`` and must be invertible. A
    candidate whose shifted IMU window has a singular auto-covariance
    scores NaN.
    """
    rs = np.empty(len(candidates))
    blocks = []
    for idx, tau in enumerate(candidates):
        shifted = resample(imu.time_grid, imu.samples, t_window + tau)
        sigma_ii = sample_covariance(shifted)
        sigma_if = sample_covariance(shifted, foot_window)
        blocks.append((sigma_ii, sigma_if))
        try:
            require_invertible(sigma_ii, "sigma_ii")
            rs[idx] = _trace_correlation(sigma_ii, sigma_ff, sigma_if)
        except IllConditionedError:
            rs[idx] = np.nan
    return rs, blocks


def _argmax_smallest_offset(candidates: np.ndarray, rs: np.ndarray) -> int:
    best = -1
    for idx in range(len(candidates)):
        if np.isnan(rs[idx]):
            continue
        if best < 0 or rs[idx] > rs[best] or (
                rs[idx] == rs[best] and abs(candidates[idx]) < abs(candidates[best])):
            best = idx
    if best < 0:
        raise IllConditionedError("every offset candidate failed; the pair carries no usable excitation")
    return best


def estimate_time_offset(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
                         search: OffsetSearch,
                         window_samples: int | None = None) -> OffsetEstimate:
    """Offset maximizing the trace correlation over a candidate grid.

    All candidates are scored on one fixed window so the scan is unbiased.
    A second pass at step/10 runs around the coarse argmax (clipped to the
    scan range); the estimate is the best candidate of both passes, ties
    going to the smallest |offset|.
    """
    if search.offset_range > foot.span / 4:
        raise ValueError(
            f"offset range {search.offset_range} exceeds a quarter of the series span {foot.span}"
        )
    i0, i1 = _paired_window(imu, foot, search.offset_range, window_samples)
    t_window = foot.time_grid[i0:i1]
    foot_window = foot.samples[i0:i1]
    sigma_ff = sample_covariance(foot_window)
    require_invertible(sigma_ff, "sigma_ff")

    n_steps = int(math.floor(search.offset_range / search.step + 1e-9))
    coarse = np.arange(-n_steps, n_steps + 1) * search.step
    rs, blocks = _scan_correlations(imu, t_window, foot_window, sigma_ff, coarse)
    fine = coarse[_argmax_smallest_offset(coarse, rs)] + np.arange(
        -(_REFINE_FACTOR - 1), _REFINE_FACTOR) * (search.step / _REFINE_FACTOR)
    fine = fine[np.abs(fine) <= search.offset_range + 1e-12]
    fine_rs, fine_blocks = _scan_correlations(imu, t_window, foot_window, sigma_ff, fine)

    offsets = np.concatenate([coarse, fine])
    values = np.concatenate([rs, fine_rs])
    best = _argmax_smallest_offset(offsets, values)
    sigma_ii, sigma_if = (blocks + fine_blocks)[best]
    order = np.argsort(offsets, kind="stable")
    return OffsetEstimate(time_offset=float(offsets[best]),
                          scan=np.column_stack([offsets[order], values[order]]),
                          covariance=CovarianceSet(sigma_ii, sigma_ff, sigma_if))


def estimate_rotation(cov: CovarianceSet) -> np.ndarray:
    """Extrinsic rotation from the covariance set of an aligned pair.

    Decomposes S_FF^-1 S_FI with an SVD and projects onto the special
    orthogonal group. The result is the matrix R minimizing
    sum ||R w_imu - w_foot||^2 over the pair; for noiseless
    rotation-related streams it reproduces the mounting rotation exactly.
    """
    s_ff = cov.sigma_ff
    sv = np.linalg.svd(s_ff, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        weak = np.linalg.svd(s_ff)[0][:, -1]
        axis = _AXES[int(np.argmax(np.abs(weak)))]
        if sv[1] < 1e-12 * sv[0]:
            raise RankDeficiencyError(
                f"foot covariance has two vanishing singular values; "
                f"weakest excitation along {axis}", axis=axis)
        raise IllConditionedError(
            f"foot covariance is singular; insufficient excitation along {axis}")
    m = np.linalg.solve(s_ff, cov.sigma_fi)
    u, _, vt = np.linalg.svd(m)
    d = np.diag([1.0, 1.0, float(np.linalg.det(u @ vt))])
    rotation = u @ d @ vt
    if not is_proper_rotation(rotation):
        raise IllConditionedError("rotation estimate failed the orthogonality check")
    return rotation


@dataclass(frozen=True)
class CalibrationOptions:
    """Settings for the combined offset + rotation calibration.

    The offset scan steps at the grid spacing of the foot series.
    """

    offset_range: float = 0.25
    window_samples: int | None = None  # analysis window; None = full valid span


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated extrinsics plus the diagnostics behind them."""

    rotation: np.ndarray
    time_offset: float
    correlation: float
    condition_number: float
    offset_scan: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not is_proper_rotation(r):
            raise ValueError("rotation must be orthogonal with determinant +1 to 1e-9")
        scan = np.asarray(self.offset_scan, dtype=float)
        if scan.ndim != 2 or scan.shape[1] != 2:
            raise ValueError("offset_scan must have shape (n, 2)")
        best = np.nanmax(scan[:, 1]) if np.any(np.isfinite(scan[:, 1])) else np.nan
        if not (np.isfinite(best) and abs(self.correlation - best) <= 1e-12):
            raise ValueError("correlation must equal the maximum over the offset scan")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "offset_scan", scan)


def calibrate(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
              options: CalibrationOptions | None = None) -> CalibrationResult:
    """Full spatial-temporal calibration of an IMU/foot series pair.

    Runs the offset scan and estimates the extrinsic rotation from the
    covariance set the scan found at the winning offset, on the same
    analysis window.
    """
    options = options or CalibrationOptions()
    if imu.frame is not Frame.FOOT_IMU or foot.frame is not Frame.FOOT_KINEMATIC:
        raise ValueError(
            f"expected (FootIMU, FootKinematic) series, got ({imu.frame}, {foot.frame})"
        )
    search = OffsetSearch(offset_range=options.offset_range, step=foot.uniform_dt())
    estimate = estimate_time_offset(imu, foot, search, window_samples=options.window_samples)
    cov = estimate.covariance
    return CalibrationResult(
        rotation=estimate_rotation(cov),
        time_offset=estimate.time_offset,
        correlation=float(np.nanmax(estimate.scan[:, 1])),
        condition_number=condition_number(cov.sigma_ff),
        offset_scan=estimate.scan,
    )
