import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from footcalib import (
    BasisSpec,
    ExperimentConfig,
    GaitKind,
    GroundTruth,
    Motion,
    NoiseModel,
    OffsetSearch,
    OptimizerConfig,
    baseline_gait,
    default_experiment_config,
    harness,
    rotation_error,
    run_matrix,
)
from footcalib.harness import (
    A2I_KAPPA_BAND,
    calibration_geometry,
    config_from_dict,
    config_to_dict,
    default_truths,
    load_config,
    save_config,
)
from footcalib.io import read_rows_csv


class TestRotationError:
    def test_exact_estimate_is_zero(self):
        truth = np.array([12.0, -30.0, 55.0])
        estimate = Rotation.from_euler("XYZ", truth, degrees=True).as_matrix()
        assert rotation_error(estimate, truth).degrees == pytest.approx(0.0, abs=1e-9)

    def test_single_axis_yaw(self):
        estimate = Rotation.from_euler("XYZ", [0.0, 0.0, 10.0], degrees=True).as_matrix()
        result = rotation_error(estimate, [0.0, 0.0, 0.0])
        assert result.degrees == pytest.approx(10.0, abs=1e-9)
        assert not result.gimbal_flagged

    def test_matches_componentwise_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            truth = np.array([rng.uniform(-170, 170), rng.uniform(-70, 70),
                              rng.uniform(-170, 170)])
            est_euler = truth + rng.uniform(-20, 20, 3)
            estimate = Rotation.from_euler("XYZ", est_euler, degrees=True).as_matrix()
            # independent recomputation: min distance on the angle circle
            extracted = Rotation.from_matrix(estimate).as_euler("XYZ", degrees=True)
            diffs = np.abs(extracted - truth) % 360.0
            diffs = np.minimum(diffs, 360.0 - diffs)
            expected = math.sqrt(float(np.sum(diffs ** 2)))
            assert rotation_error(estimate, truth).degrees == pytest.approx(expected, abs=1e-9)

    def test_differences_wrap_across_180(self):
        truth = np.array([0.0, 0.0, 179.0])
        estimate = Rotation.from_euler("XYZ", [0.0, 0.0, -179.0], degrees=True).as_matrix()
        assert rotation_error(estimate, truth).degrees == pytest.approx(2.0, abs=1e-6)

    def test_gimbal_lock_falls_back_to_geodesic(self):
        truth = np.array([10.0, 89.8, -20.0])
        estimate = Rotation.from_euler("XYZ", [11.0, 89.9, -21.0], degrees=True).as_matrix()
        result = rotation_error(estimate, truth)
        assert result.gimbal_flagged
        assert result.degrees == result.geodesic_degrees

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            rotation_error(np.eye(3) * 2.0, [0.0, 0.0, 0.0])


class TestConfig:
    def test_default_truths_are_distinct_and_in_range(self):
        truths = default_truths(base_seed=0)
        assert set(truths) == {"FL", "FR", "RL", "RR"}
        eulers = [tuple(t.euler_deg.round(6)) for t in truths.values()]
        assert len(set(eulers)) == 4
        for truth in truths.values():
            assert abs(truth.time_offset) <= 0.1

    def test_default_truths_stay_in_a_narrow_search_range(self, tmp_path):
        # the offsets were drawn within ±0.1 s whatever the search range, so
        # a narrower one rejected the defaults: "|time offset| 0.086 exceeds
        # the search range 0.05"
        config = config_from_dict({"optimizer": {"offset_range": 0.05}, "motions": ["walk"]},
                                  output_dir=tmp_path / "out")
        for truth in config.truths.values():
            assert abs(truth.time_offset) <= 0.05
            samples = truth.time_offset * 500.0
            assert samples == pytest.approx(round(samples), abs=1e-9)

    def test_a2i_partial_period_rejected(self, tmp_path):
        # 8 * 0.0501 s at 500 Hz is 200.4 samples: the a2i trajectory cannot
        # close, and its covariance is not diagonal
        optimizer = OptimizerConfig(offset_range=0.0501)
        fields = dict(geometry=calibration_geometry(),
                      truths={"FL": GroundTruth(rotation=np.eye(3), time_offset=0.0)},
                      noise_densities=(0.006,), optimizer=optimizer, seeds=(0,),
                      output_dir=tmp_path / "out")
        with pytest.raises(ValueError, match="not a whole number"):
            ExperimentConfig(motions=(Motion.A2I, Motion.WALK), **fields)
        # the gaits have no whole-period requirement
        assert ExperimentConfig(motions=(Motion.WALK,), **fields).optimizer is optimizer

    def test_calibration_geometry_contains_zero_posture(self):
        geometry = calibration_geometry()
        for joint in ("hip", "thigh", "calf"):
            lo, hi = geometry.limits(joint)
            assert lo < 0.0 < hi

    def test_round_trip_through_json(self, tmp_path):
        config = default_experiment_config(tmp_path / "out", seeds=(0, 1))
        path = tmp_path / "config.json"
        save_config(path, config)
        loaded = load_config(path)
        original = config_to_dict(config)
        recovered = config_to_dict(loaded)
        # the Euler view of a rotation matrix is ULP-lossy; everything else
        # must survive the round trip exactly
        for foot, spec in original["truths"].items():
            np.testing.assert_allclose(recovered["truths"][foot]["euler_deg"],
                                       spec["euler_deg"], atol=1e-10)
            assert recovered["truths"][foot]["t_d_s"] == spec["t_d_s"]
        for key in set(original) - {"truths"}:
            assert recovered[key] == original[key]

    def test_dict_defaults(self, tmp_path):
        config = config_from_dict({"seeds": [3], "motions": ["a2i"]},
                                  output_dir=tmp_path / "out")
        assert config.seeds == (3,)
        assert config.motions == (Motion.A2I,)
        assert len(config.truths) == 4

    def test_dict_defaults_are_the_default_config(self, tmp_path):
        out = tmp_path / "out"
        assert config_to_dict(config_from_dict({"optimizer": {"seed": 3}}, out)) == \
            config_to_dict(default_experiment_config(out, base_seed=3))

    @pytest.mark.parametrize("doc, field", [
        ({"seeds": [-1]}, "seeds"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"optimizer": {"seed": -1}}, "seed"),
        ({"optimizer": {"seed": 2.5}}, "seed"),
        ({"optimizer": {"max_iterations": 2.5}}, "max_iterations"),
    ], ids=["seed-negative", "seed-float", "seed-bool", "optimizer-seed-negative",
            "optimizer-seed-float", "max-iterations-float"])
    def test_non_integer_seed_rejected(self, tmp_path, doc, field):
        # numpy's SeedSequence takes non-negative integers only, and a bool
        # or a float count would run under another value than the one written
        with pytest.raises(ValueError, match=f"^{field} must"):
            config_from_dict(doc, output_dir=tmp_path / "out")

    @pytest.mark.parametrize("key", ["fd_epsilon", "penalty_hip", "penalty_thigh", "penalty_calf"])
    def test_removed_optimizer_key_rejected(self, tmp_path, key):
        # the loss gradient is analytic and the descent keeps the joints
        # inside their limits, so a document that still sets the old
        # finite-difference step or a penalty weight is stale and must not
        # load silently
        with pytest.raises(TypeError, match=key):
            config_from_dict({"optimizer": {key: 1e-6}}, output_dir=tmp_path / "out")

    def test_a2i_limits_excluding_zero_rejected(self, tmp_path):
        # no trajectory of the harmonic family fits the Go2 calf limits
        # (-2.7, -0.8); the gait motions do not use the limits
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        doc["geometry"]["calf_limits"] = [-2.7, -0.8]
        with pytest.raises(ValueError, match="calf limits"):
            config_from_dict(doc)
        doc["motions"] = ["walk", "spin", "wave"]
        assert config_from_dict(doc).geometry.calf_limits == (-2.7, -0.8)

    def test_nonstandard_twists_rejected(self, tmp_path):
        # the foot velocity map holds for the leg's twists (0, -pi/2, 0, 0) only
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        for twists in ([0.0, -math.pi / 3, 0.0, 0.0], [0.0, -math.pi / 2, 0.0, math.nan],
                       [0.0, -math.pi / 2, 0.0]):
            doc["geometry"]["twists"] = twists
            with pytest.raises(ValueError, match="twists"):
                config_from_dict(doc)

    def test_standard_legacy_twists_load(self, tmp_path):
        config = default_experiment_config(tmp_path / "out")
        doc = config_to_dict(config)
        assert "twists" not in doc["geometry"]
        doc["geometry"]["twists"] = [0.0, -math.pi / 2, 0.0, 0.0]
        assert config_from_dict(doc).geometry == config.geometry

    def test_validation_errors(self, tmp_path):
        config = default_experiment_config(tmp_path / "out")
        with pytest.raises(ValueError):
            replace(config, motions=())
        with pytest.raises(ValueError):
            replace(config, noise_densities=(-0.1,))
        bad_truths = dict(config.truths)
        bad_truths["FL"] = replace(bad_truths["FL"], time_offset=0.5)
        with pytest.raises(ValueError):
            replace(config, truths=bad_truths)

    @pytest.mark.parametrize("densities, seeds", [
        ((0.006, 0.0060000000001), (0, 1)),
        ((0.006, 0.0060000000004), (0, 1)),
        ((0.006, 0.03, 0.006), (0, 1)),
        ((0.006,), (0, 1, 0)),
    ], ids=["density-1e-10", "density-4e-10", "density-repeated", "seed-repeated"])
    def test_shared_noise_seeds_rejected(self, tmp_path, densities, seeds):
        # two cells whose densities round to one density code, or that repeat
        # a seed, would draw the same noise
        config = default_experiment_config(tmp_path / "out")
        with pytest.raises(ValueError):
            replace(config, noise_densities=densities, seeds=seeds)
        with pytest.raises(ValueError):
            config_from_dict({"noise_densities": list(densities), "seeds": list(seeds)})


@pytest.mark.parametrize("build", [
    lambda: NoiseModel(density=math.nan),
    lambda: NoiseModel(density=math.inf),
    lambda: baseline_gait(GaitKind.WALK, math.nan),
    lambda: OptimizerConfig(kappa_objective=math.nan),
    lambda: OptimizerConfig(kappa_objective=math.inf),
    lambda: OptimizerConfig(max_iterations=math.nan),
    lambda: OptimizerConfig(step_size=math.nan),
    lambda: OptimizerConfig(step_size=math.inf),
    lambda: OptimizerConfig(imu_frequency=math.inf),
    lambda: OptimizerConfig(offset_range=math.nan),
    lambda: OptimizerConfig(offset_range=math.inf),
    lambda: config_from_dict({"noise_densities": [0.006, math.nan]}),
    lambda: config_from_dict({"noise_densities": [math.inf]}),
    lambda: GroundTruth(rotation=np.full((3, 3), math.nan), time_offset=0.0),
    lambda: OffsetSearch(offset_range=math.nan),
    lambda: BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0],
                      base_frequency=math.inf, period=2.0),
], ids=["density-nan", "density-inf", "sample-rate-nan", "kappa-nan", "kappa-inf",
        "max-iterations-nan", "step-nan", "step-inf",
        "imu-frequency-inf", "offset-range-nan", "offset-range-inf", "matrix-density-nan",
        "matrix-density-inf", "rotation-nan", "search-range-nan", "base-frequency-inf"])
def test_nonfinite_input_rejected(build):
    # a NaN fails every comparison, so each check must be written to pass
    # only finite values
    with pytest.raises(ValueError):
        build()


def small_config(out_dir, motions=(Motion.A2I, Motion.WALK), densities=(0.006,),
                 seeds=(0,)):
    return default_experiment_config(out_dir, noise_densities=densities,
                                     motions=motions, seeds=seeds)


def report_bytes(out_dir):
    payload = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "timing.csv":
            payload[str(path.relative_to(out_dir))] = path.read_bytes()
    return payload


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    config = small_config(out)
    return config, run_matrix(config)


class TestRunMatrix:

    def test_row_count_bookkeeping(self, small_run):
        config, result = small_run
        expected = len(config.truths) * len(config.motions) * \
            len(config.noise_densities) * len(config.seeds)
        assert len(result.rows) == expected

    def test_rows_are_sorted(self, small_run):
        _, result = small_run
        keys = [(r.foot, r.motion.value, r.noise_density, r.seed) for r in result.rows]
        assert keys == sorted(keys)

    def test_a2i_beats_walk(self, small_run):
        _, result = small_run
        a2i = [r for r in result.rows if r.motion is Motion.A2I]
        walk = [r for r in result.rows if r.motion is Motion.WALK]
        assert max(r.cn for r in a2i) < 5.0
        assert min(r.cn for r in walk) > 20.0
        assert np.median([r.re_deg for r in a2i]) < np.median([r.re_deg for r in walk])

    def test_report_files_written(self, small_run):
        config, result = small_run
        out = config.output_dir
        assert (out / "rows.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "timing.csv").exists()
        scans = list((out / "scans").glob("*.csv"))
        assert len(scans) == len([r for r in result.rows if not r.error])

    def test_close_densities_get_their_own_scan_files(self, tmp_path):
        # both densities print as 0.00600012 with six significant digits
        config = small_config(tmp_path / "close", motions=(Motion.WALK,),
                              densities=(0.006000123, 0.006000124))
        rows = run_matrix(config).rows
        scans = list((config.output_dir / "scans").glob("*.csv"))
        assert len(rows) == 8
        assert len(scans) == len([r for r in rows if not r.error]) == 8

    def test_summary_matches_recomputation_from_rows(self, small_run):
        config, result = small_run
        raw = read_rows_csv(config.output_dir / "rows.csv")
        for cell in result.summary:
            values = [r for r in raw
                      if r["motion"] == cell.motion.value
                      and r["noise_density"] == cell.noise_density and not r["error"]]
            assert cell.rows == len(values)
            assert cell.median_cn == pytest.approx(
                float(np.median([v["cn"] for v in values])), rel=1e-12)
            assert cell.median_re_deg == pytest.approx(
                float(np.median([v["re_deg"] for v in values])), rel=1e-12)

    def test_row_independence_when_motion_removed(self, small_run, tmp_path):
        config, result = small_run
        solo = replace(config, motions=(Motion.A2I,), output_dir=tmp_path / "solo")
        solo_result = run_matrix(solo)
        full_a2i = [r for r in result.rows if r.motion is Motion.A2I]
        for row, solo_row in zip(full_a2i, solo_result.rows):
            assert row.foot == solo_row.foot and row.seed == solo_row.seed
            assert row.cn == solo_row.cn
            assert row.cc == solo_row.cc
            assert row.re_deg == solo_row.re_deg
            assert row.td_error_ms == solo_row.td_error_ms

    def test_reports_are_deterministic(self, small_run, tmp_path):
        config, _ = small_run
        rerun = replace(config, output_dir=tmp_path / "again")
        run_matrix(rerun)
        first = report_bytes(config.output_dir)
        second = report_bytes(rerun.output_dir)
        assert first == second

    def test_noiseless_a2i_round_trip(self, tmp_path):
        config = small_config(tmp_path / "clean", motions=(Motion.A2I,),
                              densities=(0.0,), seeds=(1,))
        result = run_matrix(config)
        assert len(result.rows) == 4
        for row in result.rows:
            assert not row.error
            assert row.re_deg <= 1e-4
            sample_ms = 1e3 / config.optimizer.imu_frequency
            assert abs(row.td_error_ms) <= 1e-9 * sample_ms

    def test_custom_feet_get_distinct_seeds(self, tmp_path):
        # "AB" and "BA" have the same character sum; with one truth for both,
        # only the seeds derived from the foot name can tell their rows apart
        truth = default_truths()["FL"]
        config = replace(small_config(tmp_path / "feet"), truths={"AB": truth, "BA": truth})
        rows = run_matrix(config).rows
        assert not any(r.error for r in rows)
        ab = [(r.motion, r.cn, r.cc, r.re_deg) for r in rows if r.foot == "AB"]
        ba = [(r.motion, r.cn, r.cc, r.re_deg) for r in rows if r.foot == "BA"]
        assert len(ab) == len(ba) == 2
        for first, second in zip(ab, ba):
            assert first != second

    def test_out_of_band_a2i_trajectory_becomes_error_rows(self, tmp_path, monkeypatch):
        # a start without pitch motion has a singular foot covariance, so
        # the optimizer stops at it with kappa infinite: above the band the
        # matrix accepts
        results = []
        optimize = harness.optimize

        def pitchless_optimize(initial, config, geometry):
            flat = replace(initial, pitch_rate_coeffs=np.zeros(initial.harmonic_count))
            results.append(optimize(flat, config, geometry))
            return results[-1]

        monkeypatch.setattr(harness, "optimize", pitchless_optimize)
        config = default_experiment_config(tmp_path / "band", noise_densities=(0.006, 0.03),
                                           motions=(Motion.A2I,), seeds=(1,),
                                           optimizer=OptimizerConfig(seed=3))
        config = replace(config, truths={"FR": config.truths["FR"]})
        rows = run_matrix(config).rows
        assert len(results) == 1
        assert results[0].kappa_final > A2I_KAPPA_BAND
        assert len(rows) == 2
        for row in rows:
            assert row.error.startswith("TrajectoryRejectedError")
            assert math.isnan(row.cn)
        assert not list((config.output_dir / "scans").glob("*.csv"))

    def test_summary_json_is_valid(self, small_run):
        config, _ = small_run
        doc = json.loads((config.output_dir / "summary.json").read_text())
        assert {cell["motion"] for cell in doc} == {"a2i", "walk"}
