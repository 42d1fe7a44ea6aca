"""Command-line driver for the calibration laboratory.

Subcommands:
  optimize       generate a condition-number-optimized calibration trajectory
  simulate       synthesize foot-IMU measurements from a trajectory and a truth
  calibrate      recover rotation and time offset from two measurement dumps
  matrix         run a full experiment matrix from a config document
  theorem-check  covariance diagonality property suite for the basis family

On failure a machine-readable JSON error document is printed to stderr
and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import harness, io
from .calibrate import OffsetSearch, calibrate
from .kinematics import trajectory_to_foot_velocity
from .optimizer import (
    OptimizerConfig,
    diagonality_ratio,
    eval_basis,
    initial_basis_spec,
    optimize,
    period_samples,
)
from .simulate import GroundTruth, NoiseModel, simulate_imu


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def _add_common(parser, out_default=Path(".")):
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--out", type=Path, default=out_default, help="output directory")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse leaves no state in it."""
    parser = argparse.ArgumentParser(prog="footcalib", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = OptimizerConfig()

    p = sub.add_parser("optimize", help="generate an optimized calibration trajectory")
    _add_common(p)
    p.add_argument("--t-r", type=float, default=defaults.offset_range,
                   help="sensor time-offset range [s]")
    p.add_argument("--imu-freq", type=float, default=defaults.imu_frequency,
                   help="IMU sample rate [Hz]")
    p.add_argument("--harmonics", type=int, default=3)
    p.add_argument("--kappa-obj", type=float, default=defaults.kappa_objective)
    p.add_argument("--max-iter", type=int, default=defaults.max_iterations)
    p.add_argument("--step-size", type=float, default=defaults.step_size)

    p = sub.add_parser("simulate", help="synthesize foot-IMU measurements")
    _add_common(p)
    p.add_argument("--trajectory", type=Path, required=True, help="trajectory dump (csv)")
    p.add_argument("--truth", type=Path, help="ground-truth document (json)")
    p.add_argument("--euler", type=_parse_floats, help="truth Euler angles gx,by,az [deg]")
    p.add_argument("--t-d", type=float, default=0.0, help="truth time offset [s]")
    p.add_argument("--noise", type=float, default=0.0, help="gyro noise density [deg/s/sqrt(Hz)]")

    p = sub.add_parser("calibrate", help="calibrate from two measurement dumps")
    _add_common(p)
    p.add_argument("--imu", type=Path, required=True, help="foot-IMU measurement dump (csv)")
    p.add_argument("--foot", type=Path, required=True, help="kinematic measurement dump (csv)")
    p.add_argument("--t-r", type=float, default=defaults.offset_range,
                   help="offset search range [s]")

    p = sub.add_parser("matrix", help="run a full experiment matrix")
    _add_common(p, out_default=None)  # no --out: the config's output_dir, else .
    p.add_argument("--config", type=Path, help="experiment config document (json)")
    p.add_argument("--noise", type=_parse_floats, help="override noise densities, e.g. 0.006,0.03")
    p.add_argument("--motion", type=str, help="override motions, e.g. a2i,walk")
    p.add_argument("--seeds", type=int, default=None, help="override: use seeds 0..N-1")

    p = sub.add_parser("theorem-check", help="covariance diagonality property suite")
    _add_common(p)
    p.add_argument("--count", type=int, default=50, help="number of random basis specs")
    p.add_argument("--t-r", type=float, default=defaults.offset_range)
    p.add_argument("--imu-freq", type=float, default=defaults.imu_frequency)
    p.add_argument("--max-harmonics", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative off-diagonal tolerance")
    return parser


def _cmd_optimize(args) -> int:
    config = OptimizerConfig(kappa_objective=args.kappa_obj, max_iterations=args.max_iter,
                             step_size=args.step_size, imu_frequency=args.imu_freq,
                             offset_range=args.t_r, seed=args.seed)
    result = optimize(initial_basis_spec(config, harmonic_count=args.harmonics),
                      config, harness.calibration_geometry())
    args.out.mkdir(parents=True, exist_ok=True)
    io.write_optimizer_result(args.out / "basis_spec.json", result)
    # one closed period, t = 0 .. T, so the trajectory returns to its start
    n = period_samples(config.period, config.imu_frequency)
    grid = np.arange(n + 1) / config.imu_frequency
    io.write_trajectory(args.out / "trajectory.csv", eval_basis(result.spec, grid))
    print(f"kappa={result.kappa_final:.6g} iterations={result.iterations} "
          f"converged={result.converged} -> {args.out / 'trajectory.csv'}")
    if not result.converged:
        print(f"warning: the optimizer stopped unconverged at kappa {result.kappa_final:.6g} "
              f"(objective {config.kappa_objective:g})", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    traj = io.read_trajectory(args.trajectory)
    if args.truth:
        truth = io.read_ground_truth(args.truth)
    elif args.euler:
        truth = GroundTruth(args.euler, args.t_d)
    else:
        raise ValueError("provide --truth or --euler")
    foot = trajectory_to_foot_velocity(traj)
    imu = simulate_imu(foot, truth, NoiseModel(density=args.noise, seed=args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    io.write_measurements(args.out / "foot_kinematic.csv", foot)
    io.write_measurements(args.out / "imu_measurements.csv", imu)
    io.write_ground_truth(args.out / "ground_truth.json", truth)
    print(f"wrote {len(imu)} samples -> {args.out / 'imu_measurements.csv'}")
    return 0


def _cmd_calibrate(args) -> int:
    imu = io.read_measurements(args.imu)
    foot = io.read_measurements(args.foot)
    result = calibrate(imu, foot, OffsetSearch(args.t_r))
    args.out.mkdir(parents=True, exist_ok=True)
    io.write_calibration_report(args.out / "calibration_report.json", result)
    print(f"t_d={result.time_offset * 1e3:.3f} ms  r={result.correlation:.4f}  "
          f"kappa={result.condition_number:.4g} -> {args.out / 'calibration_report.json'}")
    return 0


def _cmd_matrix(args) -> int:
    doc = (json.loads(args.config.read_text()) if args.config
           else {"optimizer": {"seed": args.seed}, "output_dir": "."})
    # an empty override is kept, for ExperimentConfig to reject
    if args.noise is not None:
        doc["noise_densities"] = args.noise
    if args.motion is not None:
        doc["motions"] = [m.strip() for m in args.motion.split(",")]
    if args.seeds is not None:
        doc["seeds"] = range(args.seeds)
    result = harness.run_matrix(harness.config_from_dict(doc, output_dir=args.out))
    failed = sum(1 for r in result.rows if r.error)
    print(f"{len(result.rows)} rows ({failed} failed) -> {result.output_dir}")
    return 0


def _cmd_theorem_check(args) -> int:
    for flag, value in (("--count", args.count), ("--max-harmonics", args.max_harmonics)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    rng = np.random.default_rng(args.seed)
    config = OptimizerConfig(imu_frequency=args.imu_freq, offset_range=args.t_r)
    worst = 0.0
    failures = 0
    for index in range(args.count):
        n = int(rng.integers(1, args.max_harmonics + 1))
        spec = initial_basis_spec(config, harmonic_count=n,
                                  seed=int(rng.integers(0, 2 ** 32)))
        ratio = diagonality_ratio(spec, args.imu_freq)
        worst = max(worst, ratio)
        status = "PASS" if ratio <= args.tolerance else "FAIL"
        failures += status == "FAIL"
        print(f"spec {index:3d} (N={n}): offdiag/diag={ratio:.3e} {status}")
    print(f"worst ratio {worst:.3e} over {args.count} specs; "
          f"{'all diagonal' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "matrix": _cmd_matrix,
    "theorem-check": _cmd_theorem_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # surface every failure as a machine-readable document
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
