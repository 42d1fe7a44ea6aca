"""Condition-number trajectory generation for calibration motions.

Joint rates are built from a harmonic family: the hip rate is a sine
series and the combined thigh+calf rate a cosine series, both over odd
multiples of a base frequency. Over an integer number of periods this
family makes the foot angular-velocity covariance diagonal, and a
projected quasi-Newton descent on the harmonic amplitudes drives its
condition number toward 1 while the joint limits keep the motion
executable.

Odd multiples matter: a family over consecutive integer multiples couples
the x and z velocity components (the time average of wx*wz picks up
matched harmonics between the hip-rate derivative and cos(thigh+calf))
and the covariance is then far from diagonal. Restricting to odd
multiples removes every matched pair and the off-diagonals vanish to
machine precision.

The loss inside the descent runs on plain arrays over read-only sin/cos
basis tables that are built once per period and grid; input is
validated where it enters (``BasisSpec``, ``OptimizerConfig``,
``period_samples``), not in every loss call or candidate. The joint
limits are checked on every IMU sample of the period. The foot velocity,
its covariance, the condition number and its gradient are evaluated on
the kappa grid, a uniform grid over the period with fewer points
(``kappa_samples``): the integrands are periodic and analytic, so the
uniform rule converges geometrically, and the rule's point count puts
its aliasing error below rounding. ``OptimizeResult.kappa_final`` and
``kappa_history`` are kappa-grid values. The
descent (``optimize``) builds BFGS inverse-Hessian updates from the
analytic gradient of that loss (the derivative of the covariance's
extreme eigenvalues). Every joint angle is linear in the amplitudes, so a
limit that an extreme sample reaches is a linear constraint: the search
direction drops its component along the outward normal of each active
limit, and only candidates inside the limits are accepted; a start
outside them is first scaled into them. A step is taken only when it
strictly lowers the loss. Each candidate is evaluated once: the gradient
and the limit normals read the evaluation its loss report carries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .kinematics import JointTrajectory, LegGeometry, trajectory_to_foot_velocity

JOINTS = ("hip", "thigh", "calf")


def period_samples(period: float, imu_frequency: float) -> int:
    """Number of IMU samples in ``period`` s at ``imu_frequency`` Hz.

    The odd-harmonic covariance is diagonal only over a whole number of
    samples per period, so this raises ValueError unless period *
    imu_frequency is a whole number, to 1e-9 relative, of at least 2.
    """
    samples = period * imu_frequency
    n = round(samples)
    if not (n >= 2 and abs(samples - n) <= 1e-9 * samples):
        raise ValueError(f"a period of {period!r} s at {imu_frequency!r} Hz is {samples!r} "
                         "samples, not a whole number of at least 2")
    return n


@dataclass(frozen=True)
class BasisSpec:
    """Harmonic amplitudes defining one calibration trajectory.

    ``hip_rate_coeffs[k]`` is the sine amplitude of the hip rate and
    ``pitch_rate_coeffs[k]`` the cosine amplitude of the combined
    thigh+calf rate, both at angular frequency (2k+1) * base_frequency.
    The base frequency is 2*pi/period, so every harmonic runs a whole
    number of cycles per period, as the diagonal covariance needs.
    ``calf_share`` splits the combined rate between calf (share) and thigh
    (remainder).
    """

    hip_rate_coeffs: np.ndarray    # rad/s
    pitch_rate_coeffs: np.ndarray  # rad/s
    period: float                  # s
    calf_share: float = 0.0

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.hip_rate_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.pitch_rate_coeffs, dtype=float))
        if a.ndim != 1 or b.ndim != 1 or len(a) != len(b) or len(a) < 1:
            raise ValueError("coefficient arrays must be equal-length 1-d with at least one harmonic")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        if not 0 < self.period < math.inf:
            raise ValueError("period must be finite and positive")
        if not 0.0 <= self.calf_share <= 1.0:
            raise ValueError(f"calf_share must be in [0, 1], got {self.calf_share}")
        object.__setattr__(self, "hip_rate_coeffs", a)
        object.__setattr__(self, "pitch_rate_coeffs", b)

    @property
    def harmonic_count(self) -> int:
        return len(self.hip_rate_coeffs)

    @property
    def base_frequency(self) -> float:
        """2*pi/period rad/s."""
        return 2.0 * math.pi / self.period

    @property
    def angular_frequencies(self) -> np.ndarray:
        return _angular_frequencies(self.harmonic_count, self.period)


@functools.lru_cache(maxsize=16)
def _angular_frequencies(harmonic_count: int, period: float) -> np.ndarray:
    """Read-only odd multiples 1, 3, 5, ... of the base frequency 2*pi/period."""
    w = (2 * np.arange(1, harmonic_count + 1) - 1) * (2.0 * math.pi / period)
    w.flags.writeable = False
    return w


def _with_amplitudes(spec: BasisSpec, params: np.ndarray) -> BasisSpec:
    """``spec`` with the stacked (hip, pitch) amplitudes ``params``, built
    without ``BasisSpec``'s checks: the descent's candidates are steps from
    a checked start along finite directions, and need not repeat them."""
    n = spec.harmonic_count
    candidate = object.__new__(BasisSpec)
    candidate.__dict__.update(vars(spec), hip_rate_coeffs=params[:n], pitch_rate_coeffs=params[n:])
    return candidate


def is_count(value) -> bool:
    """True for a non-negative integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the projected quasi-Newton trajectory generator.

    ``step_size`` scales the initial inverse Hessian, H0 = step_size * I,
    and is the first step of the gradient fallback. ``imu_frequency`` and
    ``offset_range`` fix the time base (``period``).
    """

    kappa_objective: float = 1.2
    max_iterations: int = 5000
    step_size: float = 0.02
    imu_frequency: float = 500.0  # Hz
    offset_range: float = 0.25    # s
    seed: int = 0

    def __post_init__(self):
        if not 1.0 <= self.kappa_objective < math.inf:
            raise ValueError("kappa_objective must be finite and >= 1")
        for name in ("max_iterations", "seed"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a non-negative integer, got {getattr(self, name)!r}")
        for name in ("step_size", "imu_frequency", "offset_range"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def period(self) -> float:
        """Fundamental period 8*t_r in s: its base frequency pi/(4*t_r) rad/s
        supports an unambiguous offset search over ±t_r."""
        return 8.0 * self.offset_range


def initial_basis_spec(config: OptimizerConfig, harmonic_count: int = 3,
                       calf_share: float = 0.0, seed: int | None = None) -> BasisSpec:
    """Seeded random starting point with amplitudes drawn from U[0.5, 1.5].

    Raises ValueError unless the config's period is a whole number of
    samples (``period_samples``).
    """
    period_samples(config.period, config.imu_frequency)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return BasisSpec(
        hip_rate_coeffs=rng.uniform(0.5, 1.5, harmonic_count),
        pitch_rate_coeffs=rng.uniform(0.5, 1.5, harmonic_count),
        period=config.period,
        calf_share=calf_share,
    )


def eval_basis(spec: BasisSpec, time_grid) -> JointTrajectory:
    """Evaluate the harmonic family as joint angles and rates on a time grid.

    Rates are the defining series; angles are their exact antiderivatives
    (hip: -sum A_k/w_k * cos(w_k t); thigh+calf: sum B_k/w_k * sin(w_k t)),
    so every joint oscillates about zero.
    """
    t = np.asarray(time_grid, dtype=float)
    w = spec.angular_frequencies
    phase = np.outer(w, t)
    sin_ph, cos_ph = np.sin(phase), np.cos(phase)
    rate_sum = spec.pitch_rate_coeffs @ cos_ph
    angle_sum = (spec.pitch_rate_coeffs / w) @ sin_ph
    rho = spec.calf_share
    return JointTrajectory(t, -(spec.hip_rate_coeffs / w) @ cos_ph, (1.0 - rho) * angle_sum,
                           rho * angle_sum, spec.hip_rate_coeffs @ sin_ph, (1.0 - rho) * rate_sum,
                           rho * rate_sum)


@functools.lru_cache(maxsize=64)
def _period_basis(harmonic_count: int, period: float,
                  sample_rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only uniform one-period grid at ``sample_rate`` Hz and the sin
    and cos basis rows on it.

    The grid is half-open, t = 0 .. T - 1/rate: covariance evaluation
    must leave out the duplicated endpoint sample, because including t=T
    counts the first phase twice, which biases the sample means by O(1/N)
    and lifts the covariance off-diagonals far above machine precision.
    """
    grid = np.arange(period_samples(period, sample_rate)) / sample_rate
    phase = np.outer(_angular_frequencies(harmonic_count, period), grid)
    arrays = (grid, np.sin(phase), np.cos(phase))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def kappa_samples(harmonic_count: int, phi_bound: float, imu_samples: int) -> int:
    """Points M of the kappa grid: the uniform one-period grid on which
    ``trajectory_loss`` and ``loss_gradient`` evaluate the foot velocity,
    its covariance, kappa and the gradient of a spec of K =
    ``harmonic_count`` harmonics whose thigh+calf angle phi stays within
    +-``phi_bound``.

    The covariance entries are period means of products of the hip and
    pitch rates, trigonometric polynomials of degree F = 2K - 1, with sin
    or cos of phi or 2 phi. An M-point uniform rule is exact for every
    frequency below M and aliases the coefficients at multiples of M onto
    the mean (Trefethen & Weideman, SIAM Review 56, 2014). By the
    Jacobi-Anger expansion, exp(2i phi) for phi = b sin(F t) has the
    coefficient J_n(2b) at frequency nF, with abs(J_n(2b)) <= b^n / n!
    (DLMF 10.14.4), and abs(b) <= ``phi_bound`` for the top harmonic. So
    M = (n + 2) F, with n the smallest order at which phi_bound^n / n! is
    below the double epsilon, leaves every aliased coefficient below it,
    the rate factors shifting frequencies by up to 2F. That bound is for
    phi in the top harmonic alone; for phi spread over several harmonics
    the rule is checked against the IMU-grid kappa, not proved. M is
    rounded up to even, on which the grid keeps the half-period symmetry
    that cancels the covariance off-diagonals, and capped at
    ``imu_samples``, where the kappa grid is the IMU grid.
    """
    top = 2 * harmonic_count - 1
    order, term = 0, 1.0
    while term > _EPSILON and (order + 2) * top < imu_samples:
        order += 1
        term *= phi_bound / order
    return min(imu_samples, -(-(order + 2) * top // 2) * 2)


_EPSILON = 2.0 ** -52  # the double epsilon


def column_means(a: np.ndarray) -> np.ndarray:
    """Means of the columns of an (N, k) array, as one BLAS vector-matrix product.

    ``a.mean(axis=0)`` on a row-major (N, 3) array is a strided reduction
    about ten times slower than this product.
    """
    return np.full(len(a), 1.0 / len(a)) @ a


def sample_covariance(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Mean-centred, 1/(N-1) covariance of the columns of ``a`` with those of ``b``.

    The means come from ``column_means``. ``b`` defaults to ``a``; the
    auto-covariance then multiplies one centred array by its own
    transpose, which BLAS evaluates as an exactly symmetric product.
    """
    a_centred = a - column_means(a)
    b_centred = a_centred if b is None else b - column_means(b)
    return a_centred.T @ b_centred / (len(a) - 1)


def diagonality_ratio(spec: BasisSpec, imu_frequency: float) -> float:
    """Largest off-diagonal over largest diagonal entry of the one-period foot covariance.

    The odd-harmonic basis family is built so that this ratio vanishes to
    machine precision.
    """
    traj = eval_basis(spec, np.arange(period_samples(spec.period, imu_frequency)) / imu_frequency)
    sigma = sample_covariance(trajectory_to_foot_velocity(traj).samples)
    off = max(abs(sigma[0, 1]), abs(sigma[0, 2]), abs(sigma[1, 2]))
    return off / sigma.diagonal().max()


def condition_number(matrix) -> float:
    """Ratio of extreme singular values of a symmetric PSD 3x3 matrix.

    Returns +inf when the smallest singular value is below 1e-15 of the
    largest (or the matrix is zero).
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite values")
    if np.abs(m - m.T).max() > 1e-9 * np.abs(m).max():
        raise ValueError("matrix is asymmetric beyond 1e-9 relative tolerance")
    return _kappa(m)


def _kappa(sigma: np.ndarray) -> float:
    """``condition_number`` of a covariance built in this module, which is
    symmetric by construction, without the checks on its input."""
    s = np.linalg.svd(sigma, compute_uv=False)
    if s[0] == 0.0 or s[-1] < 1e-15 * s[0]:
        return math.inf
    return float(s[0] / s[-1])


class _Evaluation(NamedTuple):
    """One evaluation of a spec over a period (``_evaluate``)."""

    imu_sin: np.ndarray    # basis rows on the IMU grid
    imu_cos: np.ndarray
    theta_hip: np.ndarray  # hip angle on the IMU grid
    angle_sum: np.ndarray  # thigh+calf angle before the calf split, on the IMU grid
    ranges: tuple          # (min, max) of the hip, thigh and calf angles on the IMU grid
    grid: np.ndarray       # the kappa grid
    sin_ph: np.ndarray     # basis rows on the kappa grid
    cos_ph: np.ndarray
    dtheta_hip: np.ndarray  # hip rate on the kappa grid
    sin_phi: np.ndarray    # sin and cos of the thigh+calf angle on the kappa grid
    cos_phi: np.ndarray
    centred: np.ndarray    # centred foot velocity on the kappa grid
    sigma: np.ndarray      # its covariance


def _evaluate(spec: BasisSpec, imu_frequency: float) -> _Evaluation:
    """The joint angles of ``spec`` on the IMU grid, which the limits read,
    and its foot velocity and covariance on the kappa grid
    (``kappa_samples``), which kappa and its gradient read."""
    harmonics, period = spec.harmonic_count, spec.period
    a, b, rho = spec.hip_rate_coeffs, spec.pitch_rate_coeffs, spec.calf_share
    hip_scale, pitch_scale = a / spec.angular_frequencies, b / spec.angular_frequencies
    _, imu_sin, imu_cos = _period_basis(harmonics, period, imu_frequency)
    # the angles of eval_basis, by the same float operations. The thigh and
    # calf angles are 1 - rho and rho times the angle sum, and rounding is
    # monotone, so a non-negative factor maps the sum's extremes onto theirs
    theta_hip = -hip_scale @ imu_cos
    angle_sum = pitch_scale @ imu_sin
    low, high = angle_sum.min(), angle_sum.max()
    ranges = ((theta_hip.min(), theta_hip.max()), ((1.0 - rho) * low, (1.0 - rho) * high),
              (rho * low, rho * high))
    # the angle sum's largest magnitude over the IMU samples bounds phi for the rule
    n = len(angle_sum)
    m = kappa_samples(harmonics, max(-low, high), n)
    grid, sin_ph, cos_ph = _period_basis(harmonics, period, imu_frequency if m == n else m / period)
    # the same float operations, in the same order, as eval_basis followed
    # by trajectory_to_foot_velocity and sample_covariance on the kappa
    # grid, so kappa equals the checked path's there
    dtheta_hip = a @ sin_ph
    rate_sum = b @ cos_ph
    angles = pitch_scale @ sin_ph
    phi = (1.0 - rho) * angles + rho * angles
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    omega = np.empty((m, 3))
    np.multiply(-dtheta_hip, sin_phi, out=omega[:, 0])
    np.multiply(-dtheta_hip, cos_phi, out=omega[:, 1])
    np.add((1.0 - rho) * rate_sum, rho * rate_sum, out=omega[:, 2])
    centred = omega - column_means(omega)
    sigma = centred.T @ centred / (m - 1)
    return _Evaluation(imu_sin, imu_cos, theta_hip, angle_sum, ranges,
                       grid, sin_ph, cos_ph, dtheta_hip, sin_phi, cos_phi, centred, sigma)


@dataclass(frozen=True)
class LossReport:
    """Condition number (the loss) of a spec, whether its joints stay inside
    their limits, and the evaluation ``loss_gradient`` reads."""

    kappa: float
    in_bounds: bool
    _terms: _Evaluation | None = field(default=None, compare=False, repr=False)


def trajectory_loss(spec: BasisSpec, config: OptimizerConfig, geometry: LegGeometry) -> LossReport:
    """Condition number of the foot velocity covariance over one period, on
    the kappa grid (``kappa_samples``), and whether every joint stays inside
    its ``geometry`` limits at every IMU sample of the period."""
    evaluation = _evaluate(spec, config.imu_frequency)
    in_bounds = all(lower <= low and high <= upper for (lower, upper), (low, high)
                    in zip(map(geometry.limits, JOINTS), evaluation.ranges))
    return LossReport(kappa=_kappa(evaluation.sigma), in_bounds=in_bounds, _terms=evaluation)


@dataclass(frozen=True)
class OptimizeResult:
    """Last, and best, iterate of the descent; it keeps every joint inside its limits."""

    spec: BasisSpec
    kappa_history: np.ndarray
    kappa_final: float
    iterations: int
    converged: bool   # condition number met the objective


def loss_gradient(spec: BasisSpec, config: OptimizerConfig,
                  report: LossReport | None = None) -> np.ndarray:
    """Analytic gradient of the condition number over the stacked (hip, pitch) amplitudes.

    Pass the ``trajectory_loss`` report of ``spec`` when it is at hand, and
    the gradient reads its evaluation instead of evaluating again.

    With u_max and u_min the extreme unit eigenvectors of the covariance
    Sigma = w_c^T w_c / (M-1) of the centred foot velocity w_c on the kappa
    grid, each eigenvalue moves as d(lambda) = 2/(M-1) * sum_t (w_c u)_t (dw u)_t
    (Magnus & Neudecker, Matrix Differential Calculus, ch. 8), and
    d(kappa) = (d(lambda_max) lambda_min - lambda_max d(lambda_min)) / lambda_min^2.
    With phi the thigh+calf angle and h the hip rate,
    dw/dA_k = (-sin phi, -cos phi, 0) sin(w_k t) and
    dw/dB_k = (-h cos phi, h sin phi, 0) sin(w_k t)/w_k + (0, 0, cos(w_k t)).
    The eigenpairs come from ``eigh``, while the loss keeps
    ``condition_number``'s SVD, so that kappa equals the checked path's.
    Where kappa is infinite the gradient is NaN.
    """
    ev = _evaluate(spec, config.imu_frequency) if report is None else report._terms
    lam, vec = np.linalg.eigh(ev.sigma)
    lam_min, lam_max = lam[0], lam[-1]
    if not lam_min > 1e-15 * lam_max:
        return np.full(2 * spec.harmonic_count, math.nan)
    u = vec[:, [-1, 0]]   # u_max, u_min
    weights = np.array([lam_min, -lam_max]) * (2.0 / ((len(ev.centred) - 1) * lam_min ** 2))
    # v_t = sum over the two eigenvalues of weight (w_c u)_t u: the gradient is
    # sum_t v_t . dw_t, in one pass over the (M, 3) samples
    v = ev.centred @ ((u * weights) @ u.T)
    hip_part = -(ev.sin_phi * v[:, 0] + ev.cos_phi * v[:, 1])
    phi_part = ev.dtheta_hip * (ev.sin_phi * v[:, 1] - ev.cos_phi * v[:, 0])
    return np.concatenate([ev.sin_ph @ hip_part,
                           (ev.sin_ph @ phi_part) / spec.angular_frequencies + ev.cos_ph @ v[:, 2]])


def _angle_gradient(spec: BasisSpec, evaluation: _Evaluation, joint: str, extreme) -> np.ndarray:
    """d(theta_joint)/d(A, B) at the IMU sample that ``extreme`` (``np.argmax``
    or ``np.argmin``) picks from the joint's angles: the normal of a joint
    limit that the angle at that sample reaches, since every angle is linear
    in (A, B)."""
    w = spec.angular_frequencies
    zeros = np.zeros(spec.harmonic_count)
    if joint == "hip":    # theta_hip = -sum A_k/w_k cos(w_k t)
        return np.concatenate([-evaluation.imu_cos[:, extreme(evaluation.theta_hip)] / w, zeros])
    # thigh and calf split sum B_k/w_k sin(w_k t); the sample is picked from
    # the split angle itself, as eval_basis returns it
    share = spec.calf_share if joint == "calf" else 1.0 - spec.calf_share
    return np.concatenate([zeros, share * evaluation.imu_sin[:, extreme(share * evaluation.angle_sum)] / w])


_ACTIVE_MARGIN = 1e-3               # rad: a joint this close to a limit has that limit active
_ARMIJO_C1 = 1e-4                   # sufficient-decrease constant of the quasi-Newton step
_MIN_QUASI_NEWTON_STEP = 2.0 ** -6  # below this the quasi-Newton step gives way to the gradient
# share of a violated limit that a start outside the limits is scaled to; near 1 the
# descent can follow the limit face into a constrained minimum above the objective
_SCALE_IN = 0.95


def require_limits_contain_zero(geometry: LegGeometry) -> None:
    """Raise ValueError unless every joint's limit interval strictly contains 0,
    about which every trajectory of the harmonic family oscillates."""
    for joint in JOINTS:
        lower, upper = geometry.limits(joint)
        if not lower < 0.0 < upper:
            raise ValueError(f"{joint} limits {(lower, upper)} exclude 0, the centre of every "
                             "trajectory of the harmonic family")


def _scaled_into_limits(spec: BasisSpec, geometry: LegGeometry, evaluation: _Evaluation) -> BasisSpec:
    """``spec`` with A scaled by the hip's factor and B by the smaller of the
    thigh's and calf's, each min(1, ``_SCALE_IN`` * limit / extreme angle) over
    the limits it violates: inside the limits, since the angles are linear
    in A and B and every limit interval contains 0."""
    factors = []
    for joint, (low, high) in zip(JOINTS, evaluation.ranges):
        lower, upper = geometry.limits(joint)
        factor = _SCALE_IN * upper / high if high > upper else 1.0
        factors.append(min(factor, _SCALE_IN * lower / low) if low < lower else factor)
    return replace(spec, hip_rate_coeffs=factors[0] * spec.hip_rate_coeffs,
                   pitch_rate_coeffs=min(factors[1:]) * spec.pitch_rate_coeffs)


def _outward_normals(spec: BasisSpec, geometry: LegGeometry, evaluation: _Evaluation) -> list[np.ndarray]:
    """Outward normals of the active joint-limit constraints, at most one per
    joint: the limit that a joint's extreme angle on the IMU grid is within
    ``_ACTIVE_MARGIN`` of, or the nearer limit when both are."""
    normals = []
    for joint, (low, high) in zip(JOINTS, evaluation.ranges):
        lower, upper = geometry.limits(joint)
        upper_slack, lower_slack = upper - high, low - lower
        if upper_slack <= min(lower_slack, _ACTIVE_MARGIN):
            normals.append(_angle_gradient(spec, evaluation, joint, np.argmax))
        elif lower_slack <= _ACTIVE_MARGIN:
            normals.append(-_angle_gradient(spec, evaluation, joint, np.argmin))
    return normals


def _project(direction: np.ndarray, normals: list[np.ndarray]) -> np.ndarray:
    """``direction`` without its components along the outward normals it
    points along (gradient projection; Rosen, J. SIAM 8, 1960).

    Gram-Schmidt orthonormalizes those normals; one that is zero or already
    in the span of the others (the thigh and calf normals are parallel)
    adds nothing.
    """
    basis = []
    for normal in normals:
        if not direction @ normal > 0.0:
            continue
        v = normal
        for q in basis:
            v = v - (v @ q) * q
        norm = math.sqrt(v @ v)
        if norm > 1e-12 * math.sqrt(normal @ normal):
            basis.append(v / norm)
    for q in basis:
        direction = direction - (direction @ q) * q
    return direction


def _bfgs_update(inverse_hessian: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of the inverse Hessian for the step ``s`` and gradient
    change ``y`` (Nocedal & Wright, Numerical Optimization, eq. 6.17);
    unchanged when the pair shows no positive curvature."""
    sy = s @ y
    if not sy > 0.0:
        return inverse_hessian
    hy = inverse_hessian @ y
    return (inverse_hessian + ((sy + y @ hy) / sy ** 2) * np.outer(s, s)
            - (np.outer(hy, s) + np.outer(s, hy)) / sy)


def _halvings(first: float, floor: float):
    """first, first/2, first/4, ... while at least ``floor`` times first."""
    step = first
    while step >= floor * first:
        yield step
        step *= 0.5


def optimize(initial: BasisSpec, config: OptimizerConfig, geometry: LegGeometry) -> OptimizeResult:
    """Run projected BFGS descent on the harmonic amplitudes.

    Raises ValueError when a joint's limits exclude 0
    (``require_limits_contain_zero``); a start outside the limits is first
    scaled into them (``_scaled_into_limits``). Per iteration: stop when the
    condition number is below the objective; otherwise pair the analytic
    gradient (``loss_gradient``, read from the current iterate's loss
    report) with the previous one to update the inverse Hessian H, which
    starts as ``step_size`` times the identity. The quasi-Newton direction
    -H g loses its components along the outward normals of the active joint
    limits (``_outward_normals``) and is tried at unit step, halving to 2^-6
    until the Armijo condition holds. When no such step is accepted, H
    resets and the iteration falls back to the projected gradient step
    ``step_size`` * -g, halving to 1e-15 of it. Only a candidate inside the
    limits whose condition number is finite and strictly lower is accepted,
    and the run stops when neither step is. So ``kappa_history`` strictly
    decreases, every iterate is inside the limits, and the last is the best.
    """
    require_limits_contain_zero(geometry)
    report = trajectory_loss(initial, config, geometry)
    if not report.in_bounds:
        initial = _scaled_into_limits(initial, geometry, report._terms)
        report = trajectory_loss(initial, config, geometry)
    params = np.concatenate([initial.hip_rate_coeffs, initial.pitch_rate_coeffs])

    def line_search(direction: np.ndarray, steps, slope: float):
        """First accepted (params, spec, report) along ``direction``, or None.
        A zero ``slope`` leaves only the strict-decrease test."""
        for step in steps:
            candidate = params + step * direction
            cand_spec = _with_amplitudes(initial, candidate)
            cand_report = trajectory_loss(cand_spec, config, geometry)
            if (math.isfinite(cand_report.kappa) and cand_report.kappa < report.kappa
                    and cand_report.kappa <= report.kappa + _ARMIJO_C1 * step * slope
                    and cand_report.in_bounds):
                return candidate, cand_spec, cand_report
        return None

    spec = initial
    kappa_history = [report.kappa]
    converged = report.kappa < config.kappa_objective
    iterations = 0
    initial_hessian = config.step_size * np.eye(len(params))
    inverse_hessian = initial_hessian
    previous = None  # (params, gradient) of the previous iterate

    while not converged and iterations < config.max_iterations:
        iterations += 1
        grad = loss_gradient(spec, config, report)
        if not np.all(np.isfinite(grad)):
            break  # no finite descent direction
        if previous is not None:
            inverse_hessian = _bfgs_update(inverse_hessian, params - previous[0], grad - previous[1])
        previous = params, grad
        normals = _outward_normals(spec, geometry, report._terms)

        direction = _project(-(inverse_hessian @ grad), normals)
        accepted = line_search(direction, _halvings(1.0, _MIN_QUASI_NEWTON_STEP), grad @ direction)
        if accepted is None:
            inverse_hessian = initial_hessian
            accepted = line_search(_project(-grad, normals),
                                   _halvings(config.step_size, 1e-15), 0.0)
        if accepted is None:
            break  # no descent direction left at any step size
        params, spec, report = accepted

        kappa_history.append(report.kappa)
        converged = report.kappa < config.kappa_objective

    return OptimizeResult(
        spec=spec,
        kappa_history=np.asarray(kappa_history),
        kappa_final=report.kappa,
        iterations=iterations,
        converged=converged,
    )
