"""Spatial-temporal calibration of a foot IMU against leg kinematics.

The time offset is found by sliding the IMU stream over the kinematic
foot-end series one sample at a time, scoring each integer lag by the
trace correlation, and refining the best lag to a fraction of a sample
with a parabola through its two neighbours. Every lag is scored in one
pass: the cross-covariances of all lags come from nine ``np.correlate``
calls and the IMU auto-covariances from windowed prefix sums, and the
per-lag 3x3 algebra is batched. The extrinsic rotation then comes from
an SVD-projected product of the covariance matrices at the refined
offset.
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


def is_proper_rotation(matrix: np.ndarray) -> bool:
    """True when a 3x3 matrix is orthogonal with determinant +1, both to 1e-9."""
    return bool(np.abs(matrix.T @ matrix - np.eye(3)).max() <= 1e-9
                and abs(np.linalg.det(matrix) - 1.0) <= 1e-9)


def _singular(sigma: np.ndarray) -> np.ndarray:
    """Per stacked symmetric 3x3 matrix: smallest singular value below 1e-12 of the largest, or all zero.

    The singular values of a symmetric matrix are its absolute eigenvalues,
    which ``eigvalsh`` computes more cheaply than an SVD.
    """
    s = np.abs(np.linalg.eigvalsh(sigma))
    largest = s.max(axis=-1)
    return (largest == 0.0) | (s.min(axis=-1) < 1e-12 * largest)


def require_invertible(sigma: np.ndarray, name: str) -> None:
    """Raise if an auto-covariance is singular at the 1e-12 relative singular-value floor."""
    if _singular(sigma):
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


def _trace_correlation(sigma_ii: np.ndarray, sigma_ff: np.ndarray, sigma_if: np.ndarray) -> np.ndarray:
    """Clamped trace correlations of stacked (L, 3, 3) ``sigma_ii``/``sigma_if`` with one ``sigma_ff``.

    Each clamp warns at most once per call, naming the most extreme raw value.
    """
    product = np.linalg.solve(sigma_ii, sigma_if) @ np.linalg.solve(sigma_ff, sigma_if.swapaxes(-1, -2))
    r_squared = np.trace(product, axis1=-2, axis2=-1) / 3.0
    if r_squared.size and r_squared.min() < -1e-9:
        warnings.warn(f"trace correlation squared is {r_squared.min()}, clamping to 0")
    r = np.sqrt(np.maximum(r_squared, 0.0))
    if r.size and r.max() > 1.0 + 1e-9:
        warnings.warn(f"trace correlation is {r.max()}, clamping to 1")
    return np.minimum(r, 1.0)


def trace_correlation(cov: CovarianceSet) -> float:
    """Trace correlation coefficient of the series pair behind ``cov``.

    r = sqrt(Tr(S_II^-1 S_IF S_FF^-1 S_FI) / 3), clamped to [0, 1]. A
    warning is emitted if the raw value falls outside by more than 1e-9.
    """
    require_invertible(cov.sigma_ii, "sigma_ii")
    require_invertible(cov.sigma_ff, "sigma_ff")
    return float(_trace_correlation(cov.sigma_ii[None], cov.sigma_ff, cov.sigma_if[None])[0])


@dataclass(frozen=True)
class OffsetSearch:
    """Range of the time-offset scan; the candidates are the integer sample lags inside it."""

    offset_range: float        # scan covers ±offset_range seconds

    def __post_init__(self):
        if not 0 <= self.offset_range < math.inf:
            raise ValueError("offset_range must be finite and >= 0")


@dataclass(frozen=True)
class OffsetEstimate:
    time_offset: float
    scan: np.ndarray  # rows of (integer-lag offset, trace correlation); NaN r marks failures
    covariance: CovarianceSet  # of the pair on the scan window, IMU resampled at time_offset


def _paired_window(imu: AngularVelocitySeries, foot: AngularVelocitySeries, dt: float,
                   offset_range: float, window_samples: int | None) -> tuple[int, int]:
    """Index window on the common grid, of spacing ``dt``, valid for every candidate shift."""
    _require_aligned(imu, foot)
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


def _lag_correlations(imu_samples: np.ndarray, i0: int, i1: int, foot_window: np.ndarray,
                      sigma_ff: np.ndarray, n: int) -> np.ndarray:
    """Trace correlation of the IMU slice ``[i0 + k, i1 + k)`` with ``foot_window`` per lag k in [-n, n].

    All 2n+1 lags are scored in one pass over the IMU block
    ``[i0 - n, i1 + n)``, centred once on its own mean so that the prefix
    sums below carry no DC level into their cancellation. With W the window
    length and x the centred block:

    - S_IF(k) is ``np.correlate`` of each IMU column with each column of
      the centred foot window, nine calls that return every lag at once.
      Only the foot side needs centring, because it sums to zero.
    - S_II(k) = (S2 - S1 S1^T / W) / (W - 1), where S1 and S2 are the
      windowed sums of x and of the six distinct products x_a x_b, taken
      as differences of their running sums.

    ``sigma_ff`` belongs to ``foot_window`` and must be invertible. A lag
    whose S_II(k) is singular at the 1e-12 relative floor scores NaN.
    """
    width = i1 - i0
    block = imu_samples[i0 - n:i1 + n]
    block = np.ascontiguousarray((block - block.mean(axis=0)).T)
    foot_centred = np.ascontiguousarray((foot_window - foot_window.mean(axis=0)).T)
    lag_count = 2 * n + 1

    sigma_if = np.empty((lag_count, 3, 3))
    for a in range(3):
        for b in range(3):
            sigma_if[:, a, b] = np.correlate(block[a], foot_centred[b], "valid")
    sigma_if /= width - 1

    rows, cols = np.triu_indices(3)
    running = np.zeros((9, block.shape[1] + 1))
    np.cumsum(block, axis=1, out=running[:3, 1:])
    np.cumsum(block[rows] * block[cols], axis=1, out=running[3:, 1:])
    sums = running[:, width:] - running[:, :lag_count]
    upper = (sums[3:] - sums[rows] * sums[cols] / width) / (width - 1)
    sigma_ii = np.empty((lag_count, 3, 3))
    sigma_ii[:, rows, cols] = upper.T
    sigma_ii[:, cols, rows] = upper.T

    rs = np.full(lag_count, np.nan)
    usable = ~_singular(sigma_ii)
    rs[usable] = _trace_correlation(sigma_ii[usable], sigma_ff, sigma_if[usable])
    return rs


def _parabolic_peak(rs: np.ndarray, best: int) -> float:
    """Vertex of the parabola through ``rs[best]`` and its two neighbours, in lags from ``best``.

    Zero when ``best`` is at a scan edge, a neighbour is NaN or the three
    points are not strictly concave. Otherwise ``rs[best]`` is the largest
    of the three, so the vertex lies within half a lag.
    """
    if best == 0 or best == len(rs) - 1:
        return 0.0
    r_minus, r_zero, r_plus = rs[best - 1:best + 2]
    curvature = r_minus - 2.0 * r_zero + r_plus
    if not curvature < 0.0:  # also false for a NaN neighbour
        return 0.0
    return float((r_minus - r_plus) / (2.0 * curvature))


def estimate_time_offset(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
                         search: OffsetSearch,
                         window_samples: int | None = None) -> OffsetEstimate:
    """Offset maximizing the trace correlation, to a fraction of a sample.

    Every integer lag k within ``search.offset_range`` is scored on one
    fixed foot window against the IMU samples k places later, so no
    candidate interpolates the noisy IMU stream. The best lag (ties going
    to the smallest |k|) is refined by the vertex of the parabola through
    it and its two neighbours; at a scan edge it is kept as it is. The
    scan holds the integer-lag rows only, and the covariance set comes
    from the IMU window resampled once, at the refined offset.
    """
    if search.offset_range > foot.span / 4:
        raise ValueError(
            f"offset range {search.offset_range} exceeds a quarter of the series span {foot.span}"
        )
    dt = foot.uniform_dt()
    i0, i1 = _paired_window(imu, foot, dt, search.offset_range, window_samples)
    foot_window = foot.samples[i0:i1]
    sigma_ff = sample_covariance(foot_window)
    require_invertible(sigma_ff, "sigma_ff")

    n = int(math.floor(search.offset_range / dt + 1e-9))
    lags = np.arange(-n, n + 1)
    rs = _lag_correlations(imu.samples, i0, i1, foot_window, sigma_ff, n)
    if np.isnan(rs).all():
        raise IllConditionedError("every offset candidate failed; the pair carries no usable excitation")
    ties = np.flatnonzero(rs == np.nanmax(rs))
    best = int(ties[np.argmin(np.abs(lags[ties]))])
    time_offset = float((lags[best] + _parabolic_peak(rs, best)) * dt)

    shifted = resample(imu.time_grid, imu.samples, foot.time_grid[i0:i1] + time_offset)
    return OffsetEstimate(time_offset=time_offset,
                          scan=np.column_stack([lags * dt, rs]),
                          covariance=CovarianceSet(sample_covariance(shifted), sigma_ff,
                                                   sample_covariance(shifted, foot_window)))


def estimate_rotation(cov: CovarianceSet) -> np.ndarray:
    """Extrinsic rotation from the covariance set of an aligned pair.

    Projects the unconstrained least-squares map S_FF^-1 S_FI onto the
    special orthogonal group through its SVD. For noiseless
    rotation-related streams that map is the mounting rotation itself, so
    the result reproduces it exactly and minimizes
    sum ||R w_imu - w_foot||^2; with noise it is in general not the
    rotation minimizing that residual.
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

    The offset scan steps one sample of the foot series at a time.
    """

    offset_range: float = 0.25
    window_samples: int | None = None  # analysis window; None = full valid span


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated extrinsics plus the diagnostics behind them."""

    rotation: np.ndarray
    time_offset: float
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
        if not np.any(np.isfinite(scan[:, 1])):
            raise ValueError("offset_scan must hold at least one finite correlation")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "offset_scan", scan)

    @property
    def correlation(self) -> float:
        """Trace correlation at the scan maximum, ignoring failed (NaN) lags."""
        return float(np.nanmax(self.offset_scan[:, 1]))


def calibrate(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
              options: CalibrationOptions | None = None) -> CalibrationResult:
    """Full spatial-temporal calibration of an IMU/foot series pair.

    Runs the offset scan and estimates the extrinsic rotation from the
    covariance set at the refined offset, on the same analysis window.
    """
    options = options or CalibrationOptions()
    if imu.frame is not Frame.FOOT_IMU or foot.frame is not Frame.FOOT_KINEMATIC:
        raise ValueError(
            f"expected (FootIMU, FootKinematic) series, got ({imu.frame}, {foot.frame})"
        )
    search = OffsetSearch(offset_range=options.offset_range)
    estimate = estimate_time_offset(imu, foot, search, window_samples=options.window_samples)
    cov = estimate.covariance
    return CalibrationResult(
        rotation=estimate_rotation(cov),
        time_offset=estimate.time_offset,
        condition_number=condition_number(cov.sigma_ff),
        offset_scan=estimate.scan,
    )
