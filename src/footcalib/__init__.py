"""Anti-noise spatial-temporal calibration laboratory for foot-mounted IMUs.

The package simulates the full calibration loop for a legged robot's
foot IMU: generate a condition-number-optimized leg trajectory, derive
the foot-end angular velocity through forward kinematics, synthesize
noisy IMU measurements against a known ground truth, and recover the
extrinsic rotation and time offset by correlation analysis.
"""

from .calibrate import (
    CalibrationOptions,
    CalibrationResult,
    CovarianceSet,
    OffsetEstimate,
    OffsetSearch,
    calibrate,
    covariance_set,
    estimate_rotation,
    estimate_time_offset,
    trace_correlation,
)
from .errors import (
    CalibrationError,
    IllConditionedError,
    RankDeficiencyError,
    TrajectoryRejectedError,
)
from .harness import (
    ExperimentConfig,
    Motion,
    ReportRow,
    RotationError,
    SummaryRow,
    calibration_geometry,
    default_experiment_config,
    rotation_error,
    run_matrix,
)
from .kinematics import (
    AngularVelocitySeries,
    Frame,
    JointTrajectory,
    LegGeometry,
    trajectory_to_foot_velocity,
)
from .optimizer import (
    BasisSpec,
    LossReport,
    OptimizeResult,
    OptimizerConfig,
    condition_number,
    eval_basis,
    initial_basis_spec,
    loss_gradient,
    optimize,
    period_samples,
    trajectory_loss,
)
from .simulate import (
    GaitKind,
    GroundTruth,
    NoiseModel,
    baseline_gait,
    random_ground_truth,
    simulate_imu,
)

__version__ = "0.1.0"
