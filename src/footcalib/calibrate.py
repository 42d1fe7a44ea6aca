"""Spatial-temporal calibration of a foot IMU against leg kinematics.

The time offset maximizes the trace correlation over the integer sample
lags; a parabola through the best lag and its two neighbours refines it
to a fraction of a sample. One pass scores every lag (``_lag_correlations``):
the cross-covariances of all lags are one generalized cross-correlation
(Knapp & Carter, 1976), and each lag is scored in closed form by Cholesky
whitening. ``foot_side`` computes the foot side of the scan once per foot
series, and ``scan_offset`` scans any IMU stream against it. The extrinsic
rotation is the SVD projection of S_FF^-1 S_FI at the refined offset, with
the scan's own S_IF: linear interpolation is linear in the IMU samples and
the foot window is centred, so at a fraction f past lag k
S_IF(k + f) = (1 - f) S_IF(k) + f S_IF(k + 1), and no window is resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, RankDeficiencyError
from .kinematics import AngularVelocitySeries, Frame
from .optimizer import OptimizerConfig, _kappa, column_means, sample_covariance

_AXES = ("x", "y", "z")
# the six distinct entries of a symmetric 3x3 matrix, in the order 00 01 02 11 12 22
_ROWS, _COLS = np.triu_indices(3)


def _singular(sigma: np.ndarray) -> np.ndarray:
    """Per stacked symmetric 3x3 matrix: smallest singular value below 1e-12 of the largest, or all zero.

    This is the ``require_excited`` floor for the per-lag S_II stack, where
    a singular lag scores NaN instead of raising. The singular values of a
    symmetric matrix are its absolute eigenvalues, which ``eigvalsh``
    computes more cheaply than an SVD.
    """
    s = np.abs(np.linalg.eigvalsh(sigma))
    largest = s.max(axis=-1)
    return (largest == 0.0) | (s.min(axis=-1) < 1e-12 * largest)


def require_excited(sigma: np.ndarray, name: str) -> None:
    """Raise unless a 3x3 auto-covariance clears the 1e-12 relative singular-value floor.

    Two or more singular values below the floor raise RankDeficiencyError,
    one raises IllConditionedError; both name the axis the weakest singular
    vector lies closest to.
    """
    u, sv, _ = np.linalg.svd(sigma)
    vanishing = int(np.sum(sv < 1e-12 * sv[0])) if sv[0] > 0.0 else 3
    if vanishing == 0:
        return
    axis = _AXES[int(np.argmax(np.abs(u[:, -1])))]
    if vanishing >= 2:
        raise RankDeficiencyError(
            f"{name} has {vanishing} vanishing singular values; weakest excitation along {axis}",
            axis=axis)
    raise IllConditionedError(
        f"{name} is singular at the 1e-12 relative floor; insufficient excitation along {axis}")


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
    if np.abs(imu.time_grid - foot.time_grid).max() > 1e-9 * foot.span:
        raise ValueError("series grids are not aligned")


def covariance_set(imu_shifted: AngularVelocitySeries, foot: AngularVelocitySeries) -> CovarianceSet:
    """Auto- and cross-covariances of an aligned IMU/foot series pair.

    Sample-mean centring with 1/(N-1) normalization; the foot-IMU cross
    matrix is exactly the transpose of the IMU-foot one.
    """
    _require_aligned(imu_shifted, foot)
    return CovarianceSet(sigma_ii=sample_covariance(imu_shifted.samples),
                         sigma_ff=sample_covariance(foot.samples),
                         sigma_if=sample_covariance(imu_shifted.samples, foot.samples))


def _cholesky(upper: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed-form lower Cholesky factors (l00, l10, l20, l11, l21, l22) of stacked symmetric 3x3 matrices.

    ``upper`` holds the six distinct entries (00 01 02 11 12 22) of each
    matrix as rows. A diagonal entry is the root of its pivot, so it is
    positive exactly where the pivot is; a zero or negative pivot leaves a
    zero or NaN there, and inf or NaN below it. Call under
    ``np.errstate`` when the stack may hold such matrices.
    """
    s00, s01, s02, s11, s12, s22 = upper
    l00 = np.sqrt(s00)
    l10 = s01 / l00
    l20 = s02 / l00
    l11 = np.sqrt(s11 - l10 * l10)
    l21 = (s12 - l20 * l10) / l11
    l22 = np.sqrt(s22 - l20 * l20 - l21 * l21)
    return l00, l10, l20, l11, l21, l22


def _usable(upper: np.ndarray, diagonal: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """``~_singular`` of the stack whose distinct entries are ``upper``, with Cholesky ``diagonal``.

    For a positive definite 3x3 matrix with eigenvalues l1 <= l2 <= l3,
    det = l1 l2 l3 and e2 = l1 l2 + l1 l3 + l2 l3 >= l2 l3, the sum of the
    principal 2x2 minors, so l1 >= det/e2; and l3 <= tr. A matrix with
    det/(e2 tr) above 1e-9 therefore clears the 1e-12 relative floor with
    three orders of magnitude to spare for rounding. e2 is floored at
    1e-4 tr^2, which only weakens the bound: where the two smaller
    eigenvalues sit at rounding level, the computed e2 can come out far
    below its true value and would clear a singular matrix. The
    determinant is the squared product of the Cholesky diagonal, which is
    positive only when every pivot is, so one comparison also checks
    positive definiteness. Only the matrices that fail this screen go to
    ``_singular``.
    """
    l00, l11, l22 = diagonal
    s00, s01, s02, s11, s12, s22 = upper
    trace = s00 + s11 + s22
    minors = s00 * s11 - s01 * s01 + s00 * s22 - s02 * s02 + s11 * s22 - s12 * s12
    usable = np.square(l00 * l11 * l22) > 1e-9 * trace * np.maximum(minors, 1e-4 * trace * trace)
    doubtful = np.flatnonzero(~usable)
    if doubtful.size:
        sigma = np.empty((doubtful.size, 3, 3))
        sigma[:, _ROWS, _COLS] = sigma[:, _COLS, _ROWS] = upper[:, doubtful].T
        usable[doubtful] = ~_singular(sigma)
    return usable


def _trace_correlations(upper_ii: np.ndarray, whitened_if: np.ndarray) -> np.ndarray:
    """Trace correlations of L stacked IMU covariances against one foot covariance.

    ``upper_ii`` is (6, L), the distinct entries of each S_II;
    ``whitened_if`` is (3, 3, L), S_IF L_F^-T with the stack index last,
    where S_FF = L_F L_F^T is the positive definite foot covariance. With
    S_II = L_I L_I^T, Tr(S_II^-1 S_IF S_FF^-1 S_FI) = ||L_I^-1 S_IF
    L_F^-T||_F^2, so r^2 is that squared Frobenius norm over 3, and
    L_I^-1 is applied by forward substitution over the stack. An S_II
    that ``_usable`` rejects scores NaN, and so does one that clears the
    floor but is indefinite, which a covariance can be only by rounding
    far below the floor. A root above 1, which only rounding can produce,
    is clamped to 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        l00, l10, l20, l11, l21, l22 = _cholesky(upper_ii)
        z0 = whitened_if[0] / l00
        z1 = (whitened_if[1] - l10 * z0) / l11
        z2 = (whitened_if[2] - l20 * z0 - l21 * z1) / l22
        r = np.sqrt((np.square(z0) + np.square(z1) + np.square(z2)).sum(axis=0) / 3.0)
    r[~_usable(upper_ii, (l00, l11, l22))] = np.nan
    return np.minimum(r, 1.0)


def trace_correlation(cov: CovarianceSet) -> float:
    """Trace correlation coefficient of the series pair behind ``cov``.

    r = sqrt(Tr(S_II^-1 S_IF S_FF^-1 S_FI) / 3), clamped to at most 1,
    scored by the whitening kernel of the offset scan.
    """
    require_excited(cov.sigma_ii, "sigma_ii")
    require_excited(cov.sigma_ff, "sigma_ff")
    whitened_if = cov.sigma_if @ np.linalg.inv(np.linalg.cholesky(cov.sigma_ff)).T
    return float(_trace_correlations(cov.sigma_ii[_ROWS, _COLS][:, None], whitened_if[:, :, None])[0])


@dataclass(frozen=True)
class OffsetSearch:
    """Range of the time-offset scan; the candidates are the integer sample lags inside it."""

    offset_range: float        # scan covers ±offset_range seconds

    def __post_init__(self):
        if not 0 <= self.offset_range < math.inf:
            raise ValueError("offset_range must be finite and >= 0")


@dataclass(frozen=True)
class OffsetEstimate:
    """Refined offset of ``estimate_time_offset``, its scan (a finite r, or it raises instead) and the
    window's covariances there: S_IF(k + f) = (1 - f) S_IF(k) + f S_IF(k + 1), as interpolated."""

    time_offset: float
    scan: np.ndarray  # rows of (integer-lag offset, trace correlation); NaN r marks failures
    sigma_ff: np.ndarray  # read-only
    sigma_if: np.ndarray
    condition_number: float  # of sigma_ff
    sigma_fi = CovarianceSet.sigma_fi

    @property
    def correlation(self) -> float:
        """Trace correlation at the scan maximum, ignoring failed (NaN) lags."""
        return float(np.nanmax(self.scan[:, 1]))


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at least ``n`` (n >= 1), a length the real FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over the 3^b 5^c below the best length so far
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


@dataclass(frozen=True)
class FootSide:
    """The part of the offset scan that depends only on the foot series; its arrays are read-only."""

    foot: AngularVelocitySeries
    i0: int                # the foot window [i0, i1) of W samples; the scan reads the IMU
    i1: int                # block [i0 - n, i1 + n)
    lags: np.ndarray       # the integer lags -n .. n
    fft_length: int        # of the scan's real FFT, at least W + 2n
    sigma_ff: np.ndarray   # L_F L_F^T
    cholesky_t: np.ndarray  # L_F^T, which turns a whitened cross-covariance back into S_IF
    kappa: float           # the condition number of sigma_ff
    spectrum: np.ndarray   # conjugate spectrum of the centred window whitened by L_F^-1, over W - 1


def foot_side(foot: AngularVelocitySeries, offset_range: float,
              window_samples: int | None) -> FootSide:
    """Foot side of a scan over ±``offset_range`` on ``window_samples`` (None: the full valid span).

    The window is centred in the span valid for every lag. A range above a quarter of the span,
    or a window that does not fit, raises ValueError; S_FF below the ``require_excited`` floor
    raises the error that names its weak axis.
    """
    if offset_range > foot.span / 4:
        raise ValueError(f"offset range {offset_range} exceeds a quarter of the series span {foot.span}")
    dt = foot.uniform_dt()
    n = int(math.floor(offset_range / dt + 1e-9))
    margin = int(math.ceil(offset_range / dt - 1e-9))
    i0, i1 = margin, len(foot) - margin
    if i1 - i0 < 2:
        raise ValueError("series too short for the requested offset range")
    if window_samples is not None:
        if window_samples < 2 or window_samples > i1 - i0:
            raise ValueError(f"window of {window_samples} samples does not fit the valid span "
                             f"of {i1 - i0}")
        i0 += (i1 - i0 - window_samples) // 2
        i1 = i0 + window_samples
    window = foot.samples[i0:i1]
    sigma_ff = sample_covariance(window)
    require_excited(sigma_ff, "sigma_ff")
    cholesky = np.linalg.cholesky(sigma_ff)
    whitened = np.linalg.inv(cholesky) @ (window - column_means(window)).T
    fft_length = _fft_length(i1 - i0 + 2 * n)
    side = FootSide(foot, i0, i1, np.arange(-n, n + 1), fft_length, sigma_ff, cholesky.T,
                    _kappa(sigma_ff), np.conj(np.fft.rfft(whitened, fft_length)) / (i1 - i0 - 1))
    for array in (side.lags, sigma_ff, side.cholesky_t, side.spectrum):
        array.flags.writeable = False
    return side


def _lag_correlations(imu_samples: np.ndarray, side: FootSide) -> tuple[np.ndarray, np.ndarray]:
    """Per lag k, r of the IMU slice ``[i0 + k, i1 + k)`` with the foot window, and S_IF(k) L_F^-T.

    All 2n+1 lags are scored in one pass over the IMU block
    ``[i0 - n, i1 + n)``, centred once on its own mean so that the windowed
    sums below carry no DC level into their cancellation. With W the
    window length and x the centred block:

    - S_IF(k) L_F^-T, the whitened cross-covariance, is the inverse real
      FFT of the block's spectrum times the side's spectrum: one forward
      transform of three rows, and one inverse transform of three rows per
      IMU axis. Outputs 0 .. 2n are the lags -n .. n. The zero padding to
      ``side.fft_length`` keeps them free of wrap-around, since no product of a
      block sample with a window sample reaches past W + 2n. The foot
      window is centred, so the IMU mean would cancel here anyway.
    - S_II(k) = (S2 - S1 S1^T / W) / (W - 1), where S1 and S2 are the
      windowed sums of x and of the six distinct products x_a x_b: the
      sums over the first window, then a running sum of the samples that
      enter the window minus those that leave it.
    - Each lag is scored by ``_trace_correlations``: each S_II(k) is
      factored in closed form from its six entries, and r^2 is the
      squared norm of the cross-covariance whitened on both sides over 3.

    No temporary holds more than three rows of the transform, and none
    holds a running sum over the whole block. That keeps the scratch
    memory of a scan small enough for the allocator to reuse it from one
    call to the next; nine-row transforms next to whole-block running
    sums were handed back to the system after each scan and page-faulted
    in again by the next.

    A lag whose S_II(k) is singular at the 1e-12 relative floor scores
    NaN; the determinant screen of ``_usable`` clears most lags, and only
    the rest reach the eigenvalue check of ``_singular``.
    """
    i0, i1, lag_count, fft_length = side.i0, side.i1, len(side.lags), side.fft_length
    width, n = i1 - i0, lag_count // 2
    block = imu_samples[i0 - n:i1 + n]
    block = np.ascontiguousarray((block - column_means(block)).T)

    spectrum = np.fft.rfft(block, fft_length)
    whitened_if = np.empty((3, 3, lag_count))
    for a in range(3):
        whitened_if[a] = np.fft.irfft(spectrum[a] * side.spectrum, fft_length)[:, :lag_count]

    steps = np.empty((9, lag_count))
    head = block[:, :width]
    steps[:3, 0] = head.sum(axis=1)
    steps[3:, 0] = (head @ head.T)[_ROWS, _COLS]
    entering, leaving = block[:, width:], block[:, :lag_count - 1]
    steps[:3, 1:] = entering - leaving
    steps[3:, 1:] = entering[_ROWS] * entering[_COLS] - leaving[_ROWS] * leaving[_COLS]
    sums = np.cumsum(steps, axis=1)
    upper_ii = (sums[3:] - sums[_ROWS] * sums[_COLS] / width) / (width - 1)
    return _trace_correlations(upper_ii, whitened_if), whitened_if


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


def scan_offset(side: FootSide, imu_samples: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``estimate_time_offset`` on IMU samples on the grid of ``side.foot``: the refined offset, r per
    lag of ``side.lags``, and S_IF there. With k the floor of the refined lag (the parabola's shift
    can be negative) and 0 <= f < 1 the rest, the IMU window interpolated there is (1 - f) times its
    slice at k plus f times that at k + 1, and the foot window is centred, so S_IF(k + f) =
    (1 - f) S_IF(k) + f S_IF(k + 1) exactly: the scan's own, times L_F^T."""
    rs, whitened_if = _lag_correlations(imu_samples, side)
    if np.isnan(rs).all():
        raise IllConditionedError("every offset candidate failed; the pair carries no usable excitation")
    ties = np.flatnonzero(rs == np.nanmax(rs))
    best = int(ties[np.argmin(np.abs(side.lags[ties]))])
    fraction = _parabolic_peak(rs, best)
    time_offset = float((side.lags[best] + fraction) * side.foot.uniform_dt())
    k, f = best + math.floor(fraction), fraction - math.floor(fraction)
    whitened = whitened_if[:, :, k]
    if f:  # else lag k alone: a scan edge, a NaN neighbour or a single lag leave f = 0
        whitened = (1.0 - f) * whitened + f * whitened_if[:, :, k + 1]
    return time_offset, rs, whitened @ side.cholesky_t


def estimate_time_offset(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
                         search: OffsetSearch,
                         window_samples: int | None = None) -> OffsetEstimate:
    """Offset maximizing the trace correlation, to a fraction of a sample.

    Every integer lag k within ``search.offset_range`` is scored on one
    fixed foot window against the IMU samples k places later, so no
    candidate interpolates the noisy IMU stream. The best lag (ties going
    to the smallest |k|) is refined by the vertex of the parabola through
    it and its two neighbours; at a scan edge it is kept as it is. The
    scan holds the integer-lag rows only, and S_IF at the refined offset
    interpolates the scan's cross-covariances of the two lags around it.
    """
    _require_aligned(imu, foot)
    side, dt = foot_side(foot, search.offset_range, window_samples), foot.uniform_dt()
    time_offset, rs, sigma_if = scan_offset(side, imu.samples)
    return OffsetEstimate(time_offset, np.column_stack([side.lags * dt, rs]), side.sigma_ff,
                          sigma_if, side.kappa)


def project_rotation(sigma_ff: np.ndarray, sigma_fi: np.ndarray) -> np.ndarray:
    """The array core of ``estimate_rotation``: S_FF^-1 S_FI projected onto SO(3)."""
    u, _, vt = np.linalg.svd(np.linalg.solve(sigma_ff, sigma_fi))
    return u @ np.diag([1.0, 1.0, float(np.linalg.det(u @ vt))]) @ vt


def estimate_rotation(cov: CovarianceSet | OffsetEstimate) -> np.ndarray:
    """Extrinsic rotation from the S_FF and S_FI of an aligned pair.

    Projects the unconstrained least-squares map S_FF^-1 S_FI onto the
    special orthogonal group through its SVD. For noiseless
    rotation-related streams that map is the mounting rotation itself, so
    the result reproduces it exactly and minimizes
    sum ||R w_imu - w_foot||^2; with noise it is in general not the
    rotation minimizing that residual. The projection u diag(1, 1, det)
    v^T is a proper rotation by construction, and a non-finite map makes
    the SVD raise. A foot covariance below the ``require_excited`` floor
    raises the error that names its weak axis.
    """
    require_excited(cov.sigma_ff, "sigma_ff")
    return project_rotation(cov.sigma_ff, cov.sigma_fi)


@dataclass(frozen=True)
class CalibrationResult(OffsetEstimate):
    """An offset estimate and the extrinsic rotation ``estimate_rotation``
    gives at its covariances; built by ``calibrate``."""

    rotation: np.ndarray


def calibrate(imu: AngularVelocitySeries, foot: AngularVelocitySeries,
              search: OffsetSearch = OffsetSearch(OptimizerConfig.offset_range),
              window_samples: int | None = None) -> CalibrationResult:
    """Full spatial-temporal calibration of an IMU/foot series pair.

    Runs the offset scan of ``estimate_time_offset`` over ``search`` on the
    analysis window of ``window_samples`` (None: the full valid span), and
    estimates the extrinsic rotation from the covariances at the refined
    offset on that window. A foot motion that leaves two axes unexcited
    raises RankDeficiencyError naming the weakest one.
    """
    if imu.frame is not Frame.FOOT_IMU or foot.frame is not Frame.FOOT_KINEMATIC:
        raise ValueError(
            f"expected (FootIMU, FootKinematic) series, got ({imu.frame}, {foot.frame})"
        )
    estimate = estimate_time_offset(imu, foot, search, window_samples=window_samples)
    return CalibrationResult(**vars(estimate), rotation=estimate_rotation(estimate))
