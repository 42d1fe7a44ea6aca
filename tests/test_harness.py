import csv
import json
import math
import re
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from footcalib import (
    BasisSpec,
    CalibrationError,
    ExperimentConfig,
    GroundTruth,
    Motion,
    NoiseModel,
    OffsetSearch,
    OptimizerConfig,
    baseline_gait,
    OffsetSearch,
    calibrate,
    default_experiment_config,
    harness,
    period_samples,
    rotation_error,
    run_matrix,
    simulate_imu,
    trajectory_to_foot_velocity,
)
from footcalib import io as fio
from footcalib.calibrate import foot_side, project_rotation, scan_offset
from footcalib.simulate import add_noise, clean_stream
from footcalib.harness import (
    A2I_KAPPA_BAND,
    _child_seed,
    _density_code,
    _foot_code,
    _MOTION_CODE,
    calibration_geometry,
    config_from_dict,
    config_to_dict,
    default_truths,
    save_config,
)
from conftest import read_rows


class TestRotationError:
    def test_exact_estimate_is_zero(self):
        truth = np.array([12.0, -30.0, 55.0])
        estimate = Rotation.from_euler("XYZ", truth, degrees=True).as_matrix()
        assert rotation_error(estimate, truth).degrees == pytest.approx(0.0, abs=1e-9)

    def test_single_axis_yaw(self):
        estimate = Rotation.from_euler("XYZ", [0.0, 0.0, 10.0], degrees=True).as_matrix()
        result = rotation_error(estimate, [0.0, 0.0, 0.0])
        assert result.degrees == pytest.approx(10.0, abs=1e-9)
        assert type(result.gimbal_flagged) is bool and not result.gimbal_flagged

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
        assert type(result.gimbal_flagged) is bool and result.gimbal_flagged
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

    @pytest.mark.parametrize("foot", ["", "F,L", "x\ny", "a/b", "../x", "F L", "F\u00e9"],
                             ids=["empty", "comma", "newline", "slash", "parent", "space",
                                  "non-ascii"])
    def test_foot_name_must_be_a_plain_token(self, tmp_path, foot):
        # a comma or a line break splits rows.csv into other fields or lines,
        # and a slash puts a scan file in another directory or none
        truth = default_truths()["FL"]
        config = small_config(tmp_path / "out")
        with pytest.raises(ValueError, match=re.escape(f"foot name {foot!r}")):
            replace(config, truths={"FL": truth, foot: truth})
        doc = config_to_dict(config)
        doc["truths"][foot] = doc["truths"]["FL"]
        with pytest.raises(ValueError, match="foot name"):
            config_from_dict(doc)
        assert set(replace(config, truths={"F_l-2": truth}).truths) == {"F_l-2"}

    def test_a2i_partial_period_rejected(self, tmp_path):
        # 8 * 0.0501 s at 500 Hz is 200.4 samples: the a2i trajectory cannot
        # close, and its covariance is not diagonal
        optimizer = OptimizerConfig(offset_range=0.0501)
        fields = dict(geometry=calibration_geometry(),
                      truths={"FL": GroundTruth.from_euler_deg(0.0, 0.0, 0.0)},
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
        loaded = config_from_dict(json.loads(path.read_text()))
        # a truth is its Euler angles, so it survives the round trip exactly
        assert config_to_dict(loaded) == config_to_dict(config)
        for foot, truth in config.truths.items():
            np.testing.assert_array_equal(loaded.truths[foot].rotation, truth.rotation)

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

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # a misspelt section must not fall back to the default matrix
        with pytest.raises(ValueError, match="'noise_density', 'sedes'"):
            config_from_dict({"sedes": [1], "noise_density": [0.5]}, output_dir=tmp_path / "out")
        # every key config_to_dict writes loads
        config = default_experiment_config(tmp_path / "out", seeds=(4,))
        assert config_from_dict(config_to_dict(config)).seeds == (4,)

    def test_unknown_key_inside_a_section_rejected(self, tmp_path):
        # a misspelt field must not load its default: td_s would have left
        # FL's time offset at 0.0, and hip_limt would have been dropped
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        doc["truths"]["FL"] = {"euler_deg": [10, 20, 30], "td_s": 0.05}
        with pytest.raises(ValueError, match="truths.FL key 'td_s'"):
            config_from_dict(doc)
        # twists, which older documents carry, is no longer a geometry key
        for key in ("hip_limt", "twists"):
            doc = config_to_dict(default_experiment_config(tmp_path / "out"))
            doc["geometry"][key] = [-0.5, 0.5]
            with pytest.raises(ValueError, match=f"geometry key '{key}'"):
                config_from_dict(doc)

    def test_missing_key_inside_a_section_rejected(self, tmp_path):
        # each used to fail with a bare KeyError
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        del doc["geometry"]["calf_limits"]
        with pytest.raises(ValueError, match="geometry is missing key 'calf_limits'"):
            config_from_dict(doc)
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        doc["truths"]["FL"] = {"t_d_s": 0.05}
        with pytest.raises(ValueError, match="truths.FL is missing key 'euler_deg'"):
            config_from_dict(doc)
        # a truth's time offset defaults to 0
        doc["truths"]["FL"] = {"euler_deg": [10, 20, 30]}
        assert config_from_dict(doc).truths["FL"].time_offset == 0.0

    @pytest.mark.parametrize("limits", [[-0.8, 0.0, 0.8], 0.8, ["a", "b"]],
                             ids=["three-values", "number", "strings"])
    def test_malformed_limit_rejected_by_name(self, tmp_path, limits):
        # each used to fail with a bare unpacking or type error
        doc = config_to_dict(default_experiment_config(tmp_path / "out"))
        doc["geometry"]["hip_limits"] = limits
        with pytest.raises(ValueError, match="hip_limits must be a pair"):
            config_from_dict(doc)

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

    def test_repeated_motion_rejected(self, tmp_path):
        # a repeated motion would run each of its cells twice under one noise
        # seed, count them twice in the summary and overwrite its scan files
        config = default_experiment_config(tmp_path / "out")
        with pytest.raises(ValueError, match="motions must be distinct"):
            replace(config, motions=(Motion.WALK, Motion.SPIN, Motion.WALK))
        with pytest.raises(ValueError, match="motions must be distinct"):
            config_from_dict({"motions": ["walk", "WALK"]})

    def test_gait_offset_range_above_a_quarter_of_the_span_rejected(self):
        # a gait's foot series spans 4 s, and its scan takes a range of at
        # most a quarter of that: a larger one fails when the config is
        # built, not in the first gait block after the a2i cells have run
        doc = {"optimizer": {"offset_range": 1.1}, "motions": ["a2i", "walk"], "seeds": [0],
               "noise_densities": [0.006]}
        with pytest.raises(ValueError, match="quarter of the baseline gaits' span 4.0"):
            config_from_dict(doc)
        doc["motions"] = ["a2i"]  # an a2i trajectory spans 16 times the range
        assert config_from_dict(doc).motions == (Motion.A2I,)
        doc["optimizer"]["offset_range"], doc["motions"] = 1.0, ["wave"]
        assert config_from_dict(doc).optimizer.offset_range == 1.0

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
    lambda: baseline_gait(Motion.WALK, math.nan),
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
    lambda: GroundTruth.from_euler_deg(0.0, math.nan, 0.0),
    lambda: OffsetSearch(offset_range=math.nan),
    lambda: BasisSpec(hip_rate_coeffs=[1.0], pitch_rate_coeffs=[1.0], period=math.inf),
], ids=["density-nan", "density-inf", "sample-rate-nan", "kappa-nan", "kappa-inf",
        "max-iterations-nan", "step-nan", "step-inf",
        "imu-frequency-inf", "offset-range-nan", "offset-range-inf", "matrix-density-nan",
        "matrix-density-inf", "rotation-nan", "search-range-nan", "period-inf"])
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


def pitchless_calls(monkeypatch, numbers):
    """Patch ``harness.optimize`` so that its calls numbered in ``numbers``
    (from 1) start without pitch motion, whose singular foot covariance
    gives kappa infinite, above the band; returns the starts it was given."""
    calls = []
    optimize = harness.optimize

    def patched(initial, config, geometry):
        calls.append(initial)
        if len(calls) in numbers:
            initial = replace(initial, pitch_rate_coeffs=np.zeros(initial.harmonic_count))
        return optimize(initial, config, geometry)

    monkeypatch.setattr(harness, "optimize", patched)
    return calls


def fr_a2i_config(out_dir, seeds):
    """An a2i-only matrix of foot FR at two densities."""
    config = default_experiment_config(out_dir, noise_densities=(0.006, 0.03),
                                       motions=(Motion.A2I,), seeds=seeds,
                                       optimizer=OptimizerConfig(seed=3))
    return replace(config, truths={"FR": config.truths["FR"]})


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
        # one scan array per (foot, motion) block, a row per cell after the lag grid
        scans = {p.name: np.load(p, allow_pickle=False) for p in (out / "scans").iterdir()}
        blocks = {(r.foot, r.motion.value) for r in result.rows}
        assert set(scans) == {f"{foot}_{motion}.npy" for foot, motion in blocks}
        for foot, motion in blocks:
            cells = [r for r in result.rows if (r.foot, r.motion.value) == (foot, motion)]
            table = scans[f"{foot}_{motion}.npy"]
            assert table.shape[0] == 1 + len(cells)
            assert [bool(np.isnan(r).all()) for r in table[1:]] == [bool(c.error) for c in cells]

    def test_close_densities_get_their_own_scan_files(self, tmp_path):
        # both densities print as 0.00600012 with six significant digits
        config = small_config(tmp_path / "close", motions=(Motion.WALK,),
                              densities=(0.006000123, 0.006000124))
        rows = run_matrix(config).rows
        scans = [np.load(p, allow_pickle=False) for p in (config.output_dir / "scans").iterdir()]
        assert len(rows) == 8 and not any(r.error for r in rows)
        assert [table.shape[0] for table in scans] == [3] * 4
        r_rows = {table[i].tobytes() for table in scans for i in (1, 2)}
        assert len(r_rows) == 8 and not any(np.isnan(table).any() for table in scans)

    def test_summary_matches_recomputation_from_rows(self, small_run):
        config, result = small_run
        raw = read_rows(config.output_dir / "rows.csv")
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

    def test_saved_config_reproduces_the_run_byte_for_byte(self, small_run, tmp_path):
        # a truth is saved as its Euler angles, the one fact it holds, so the
        # reloaded config has the same rotations and writes the same reports
        config, _ = small_run
        save_config(tmp_path / "config.json", config)
        loaded = config_from_dict(json.loads((tmp_path / "config.json").read_text()),
                                  output_dir=tmp_path / "loaded")
        run_matrix(loaded)
        assert report_bytes(loaded.output_dir) == report_bytes(config.output_dir)

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
        assert not list((config.output_dir / "scans").iterdir())

    def test_rejected_trajectory_fails_only_its_own_cells(self, tmp_path, monkeypatch):
        # the second of three a2i trajectories starts without pitch motion
        # and is rejected; the other two run all of their cells
        calls = pitchless_calls(monkeypatch, {2})
        config = fr_a2i_config(tmp_path / "band", seeds=(1, 2, 3))
        rows = run_matrix(config).rows
        assert len(calls) == 3
        assert [(r.noise_density, r.seed) for r in rows] == [
            (d, s) for d in (0.006, 0.03) for s in (1, 2, 3)]
        assert [r.seed for r in rows if r.error] == [2, 2]
        assert all(r.error.startswith("TrajectoryRejectedError") for r in rows if r.seed == 2)
        assert [p.name for p in (config.output_dir / "scans").iterdir()] == ["FR_a2i.npy"]

    def test_block_scan_file_pairs_its_rows_with_rows_csv(self, tmp_path, monkeypatch):
        # a single-seed block whose trajectory is rejected writes no file;
        # in the three-seed block, the third trajectory built is rejected
        pitchless_calls(monkeypatch, {1, 3})
        solo = fr_a2i_config(tmp_path / "solo", seeds=(2,))
        assert all(r.error for r in run_matrix(solo).rows)
        assert not list((solo.output_dir / "scans").iterdir())

        config = fr_a2i_config(tmp_path / "block", seeds=(1, 2, 3))
        run_matrix(config)
        rows = read_rows(config.output_dir / "rows.csv")
        table = np.load(config.output_dir / "scans" / "FR_a2i.npy", allow_pickle=False)
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.shape[0] == 1 + 6 == 1 + len(rows)
        assert [bool(np.isnan(r).all()) for r in table[1:]] == [bool(r["error"]) for r in rows]
        for seed in (1, 3):
            side, _ = harness._prepare(config, Motion.A2I, "FR", seed)
            clean = clean_stream(side.foot, config.truths["FR"])
            for density in (0.006, 0.03):
                rs = harness.run_cell(config, "FR", Motion.A2I, density, seed, side, clean)[1]
                i = [(r["noise_density"], int(r["seed"])) for r in rows].index((density, seed))
                assert table[0].tobytes() == (side.lags * side.foot.uniform_dt()).tobytes()
                assert table[1 + i].tobytes() == rs.tobytes()

    def test_foot_side_built_once_per_trajectory(self, tmp_path, monkeypatch):
        # each a2i trajectory's side serves its three densities, and a gait's
        # serves every foot and seed, whatever the seed count
        built = []

        def counted_foot_side(*args):
            built.append(foot_side(*args))
            return built[-1]

        monkeypatch.setattr(harness, "foot_side", counted_foot_side)
        config = default_experiment_config(tmp_path / "many", motions=(Motion.A2I, Motion.WALK),
                                           seeds=tuple(range(25)))
        config = replace(config, truths={f: config.truths[f] for f in ("FL", "RR")})
        rows = run_matrix(config).rows
        assert len(rows) == 300 and not any(r.error for r in rows)
        assert len(built) == 2 * 25 + 1

    def test_gaits_built_once_per_run(self, tmp_path, monkeypatch):
        kinds = []

        def counted_gait(kind, sample_rate):
            kinds.append(kind)
            return baseline_gait(kind, sample_rate)

        monkeypatch.setattr(harness, "baseline_gait", counted_gait)
        config = small_config(tmp_path / "gaits", motions=(Motion.WALK, Motion.SPIN, Motion.WAVE))
        rows = run_matrix(config).rows
        assert len(rows) == 12 and not any(r.error for r in rows)
        assert sorted(kind.value for kind in kinds) == ["spin", "walk", "wave"]

    @pytest.mark.parametrize("motion", list(Motion), ids=lambda m: m.value)
    def test_cell_core_matches_public_path(self, motion):
        # a cell on plain arrays gives what simulate_imu, calibrate and
        # rotation_error give on the same trajectory, bit for bit
        config = default_experiment_config("unused", seeds=(0, 5))
        opt = config.optimizer
        window = period_samples(opt.period, opt.imu_frequency) if motion is Motion.A2I else None
        for foot, seed in product(("FL", "RR"), config.seeds):
            truth = config.truths[foot]
            series = trajectory_to_foot_velocity(harness.build_trajectory(config, motion, foot,
                                                                          seed))
            side, dt = foot_side(series, opt.offset_range, window), series.uniform_dt()
            clean = clean_stream(series, truth)
            for density in config.noise_densities:
                noise_seed = _child_seed(opt.seed, 2, _foot_code(foot), _MOTION_CODE[motion],
                                         _density_code(density), seed)
                result = calibrate(simulate_imu(series, truth, NoiseModel(density, noise_seed)),
                                   series, OffsetSearch(opt.offset_range), window)
                err = rotation_error(result.rotation, truth.euler_deg)
                time_offset, rs, sigma_if = scan_offset(side, add_noise(clean, density,
                                                                       noise_seed, dt))
                assert time_offset == result.time_offset
                assert (side.lags * dt).tobytes() == result.scan[:, 0].tobytes()
                assert rs.tobytes() == result.scan[:, 1].tobytes()
                rotation = project_rotation(side.sigma_ff, sigma_if.T)
                assert rotation.tobytes() == result.rotation.tobytes()
                metrics, cell_rs = harness.run_cell(config, foot, motion, density, seed, side,
                                                    clean)
                assert cell_rs.tobytes() == rs.tobytes()
                assert metrics == dict(cn=result.condition_number, cc=result.correlation,
                                       re_deg=err.degrees,
                                       td_error_ms=(result.time_offset - truth.time_offset) * 1e3,
                                       gimbal_flagged=err.gimbal_flagged,
                                       geodesic_deg=err.geodesic_degrees)

    def test_window_below_the_floor_fails_each_cell_with_the_calibrate_error(
            self, tmp_path, monkeypatch):
        # a walk without hip motion excites the z axis alone, so its foot
        # side raises once, and each of its cells reports what calibrate
        # raises on that trajectory
        def hipless(kind, sample_rate):
            gait = baseline_gait(kind, sample_rate)
            return replace(gait, dtheta_hip=np.zeros_like(gait.dtheta_hip))

        monkeypatch.setattr(harness, "baseline_gait", hipless)
        config = small_config(tmp_path / "floor", motions=(Motion.WALK,), densities=(0.006, 0.03))
        rows = run_matrix(config).rows
        series = trajectory_to_foot_velocity(hipless(Motion.WALK, config.optimizer.imu_frequency))
        assert len(rows) == 8
        for row in rows:
            imu = simulate_imu(series, config.truths[row.foot], NoiseModel(row.noise_density))
            with pytest.raises(CalibrationError) as excinfo:
                calibrate(imu, series, OffsetSearch(config.optimizer.offset_range))
            assert row.error == f"{type(excinfo.value).__name__}: {excinfo.value}"
            assert row.error.startswith("RankDeficiencyError: sigma_ff has 2 vanishing")
        assert not list((config.output_dir / "scans").iterdir())

    def test_one_foot_series_alive_per_cell(self, tmp_path, monkeypatch):
        # each trajectory's foot series is released once the next replaces
        # it, so one is alive whatever the seed count
        series, alive = [], []
        to_foot, run_cell = harness.trajectory_to_foot_velocity, harness.run_cell

        def tracked_foot_velocity(trajectory):
            result = to_foot(trajectory)
            series.append(weakref.ref(result))
            return result

        def counted_run_cell(*args):
            alive.append(sum(ref() is not None for ref in series))
            return run_cell(*args)

        monkeypatch.setattr(harness, "trajectory_to_foot_velocity", tracked_foot_velocity)
        monkeypatch.setattr(harness, "run_cell", counted_run_cell)
        config = small_config(tmp_path / "alive", motions=(Motion.A2I,), seeds=(0, 1, 2, 3))
        config = replace(config, truths={"FL": config.truths["FL"]})
        run_matrix(config)
        assert len(series) == 4 and len(alive) == 4
        assert max(alive) == 1

    def test_summary_json_is_valid(self, small_run):
        config, _ = small_run
        doc = json.loads((config.output_dir / "summary.json").read_text())
        assert {cell["motion"] for cell in doc} == {"a2i", "walk"}

    def test_report_headers_are_the_field_tuples(self, small_run):
        config, _ = small_run
        for name, fields in (("rows.csv", fio.ROW_FIELDS), ("timing.csv", fio.TIMING_FIELDS),
                             ("summary.csv", fio.SUMMARY_FIELDS)):
            header = (config.output_dir / name).read_text().split("\n", 1)[0]
            assert header == ",".join(fields), name

    def test_summary_json_and_csv_hold_the_same_records(self, tmp_path, monkeypatch):
        # every a2i trajectory starts without pitch motion and is rejected,
        # so both a2i groups have zero rows and NaN medians
        pitchless_calls(monkeypatch, {1, 2})
        config = replace(fr_a2i_config(tmp_path / "summary", seeds=(1, 2)),
                         motions=(Motion.A2I, Motion.WALK))
        summary = run_matrix(config).summary
        assert [cell.rows for cell in summary] == [0, 0, 2, 2]
        with open(config.output_dir / "summary.csv", newline="") as handle:
            reader = csv.DictReader(handle)
            assert tuple(reader.fieldnames) == fio.SUMMARY_FIELDS
            lines = list(reader)
        records = json.loads((config.output_dir / "summary.json").read_text(),
                             parse_constant=lambda token: pytest.fail(f"JSON token {token}"))
        assert len(records) == len(lines) == len(summary)
        for record, line in zip(records, lines):
            assert set(record) == set(fio.SUMMARY_FIELDS)
            assert record["motion"] == line["motion"]
            for name in fio.SUMMARY_FIELDS[1:]:
                if record[name] is None:
                    assert math.isnan(float(line[name])), name
                else:
                    assert record[name] == float(line[name]), name
        assert [r["median_cn"] for r in records[:2]] == [None, None]
