"""The benchmark's workloads, driven only through ``harness.run_matrix`` and ``cli.main``.

Every input is derived from the workload seed: group ``j`` of a matrix
workload and round trip ``i`` of the CLI workload draw their mounting
truth, noise seeds and matrix seed from ``SeedSequence([seed, code, j])``,
so an item is the same whatever else the run does. The package receives
only the generated config, truths and argv.

Each item is checked as it completes; ``Workload.finish`` adds the
checks that need every item of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as text_io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DENSITIES = (0.006, 0.03, 0.06)   # the three reference gyro noise densities
MATRIX_OFFSET_RANGE = 0.1         # truth time offsets in a matrix cell, s
CLI_T_R = 0.05                    # calibrate --t-r of a round trip, s
CLI_OFFSET_RANGE = 0.04           # truth time offsets of a round trip, s
SAMPLE_PERIOD = 1 / 500.0         # default IMU sample period, s

# Acceptance tolerances for an a2i cell (criteria 2, 4 and 6).
A2I_MAX_CN = 1.6
A2I_MAX_TD_ERR_MS = 2.0
A2I_MIN_CC = 0.99
# A gait's median condition number must sit this far above the a2i band.
GAIT_MIN_MEDIAN_CN = 20.0


def _footcalib(name=""):
    return importlib.import_module("footcalib" + (f".{name}" if name else ""))


@dataclass
class ItemResult:
    """One completed item: a matrix group or a CLI round trip."""

    items: int                  # completed cells or round trips
    failed: int                 # error rows or failed round trips
    seconds: float              # wall time of the entry-point calls
    digest: str                 # sha256 over the item's report files
    td_abs_err_ms: list[float] = field(default_factory=list)
    re_deg: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    gait_cn: dict[str, list[float]] = field(default_factory=dict)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _truth_draw(rng, offset_range):
    """Euler angles (deg) away from gimbal lock and a continuous time offset (s)."""
    euler = (float(rng.uniform(-180, 180)), float(rng.uniform(-80, 80)),
             float(rng.uniform(-180, 180)))
    return euler, float(rng.uniform(-offset_range, offset_range))


class MatrixWorkload:
    """``run_matrix`` on one (foot, matrix seed) group per item, all three densities.

    Group ``j`` runs foot ``FOOT_IDS[j % 4]`` with matrix seed ``j // 4``
    and a mounting truth of its own drawn from the workload seed. With
    ``optimizer_seed`` None the workload seed is also the optimizer base
    seed, from which the harness derives the noise seeds.

    ``matrix-a2i`` fixes the optimizer base seed at the package default 0,
    so its groups are those of the default experiment matrix and every
    workload seed runs the same optimizations: the optimizer's iteration
    count varies from 45 to 300 with its initial amplitudes, and with
    seed-drawn amplitudes the a2i throughput spread by 0.17 (quartile
    distance over median) across five seeds of 18 groups each, on a
    2-vCPU VM with Python 3.11 and numpy 2.4.
    """

    def __init__(self, name: str, code: int, motions: tuple[str, ...],
                 optimizer_seed: int | None = None):
        self.name = name
        self.code = code
        self.motions = motions
        self.optimizer_seed = optimizer_seed

    def prepare(self, work: Path) -> None:
        """Nothing to build ahead: every group config is made from the seed."""

    def item(self, seed: int, index: int, work: Path) -> ItemResult:
        fc = _footcalib()
        harness = _footcalib("harness")
        foot = harness.FOOT_IDS[index % len(harness.FOOT_IDS)]
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.code, index]))
        euler, t_d = _truth_draw(rng, MATRIX_OFFSET_RANGE)
        out = work / "matrix"
        config = fc.ExperimentConfig(
            geometry=harness.calibration_geometry(),
            truths={foot: fc.GroundTruth.from_euler_deg(*euler, time_offset=t_d)},
            noise_densities=DENSITIES,
            motions=tuple(fc.Motion(m) for m in self.motions),
            optimizer=fc.OptimizerConfig(
                seed=seed if self.optimizer_seed is None else self.optimizer_seed),
            seeds=(index // len(harness.FOOT_IDS),),
            output_dir=out,
        )
        started = time.perf_counter()
        result = harness.run_matrix(config)
        seconds = time.perf_counter() - started

        expected = len(DENSITIES) * len(self.motions)
        rows = result.rows
        res = ItemResult(items=0, failed=0, seconds=seconds,
                         digest=_digest(out / f for f in ("rows.csv", "summary.csv",
                                                          "summary.json")))
        if len(rows) != expected:
            res.violations.append(f"group {index}: {len(rows)} of {expected} rows")
        for r in rows:
            cell = f"{r.foot} {r.motion.value} seed {r.seed} density {r.noise_density}"
            if r.error:
                res.failed += 1
                if r.motion.value == "a2i":
                    res.violations.append(f"{cell}: {r.error}")
                continue
            res.td_abs_err_ms.append(abs(r.td_error_ms))
            res.re_deg.append(r.re_deg)
            if r.motion.value != "a2i":
                continue
            if not (abs(r.td_error_ms) <= A2I_MAX_TD_ERR_MS and r.cc >= A2I_MIN_CC):
                res.violations.append(f"{cell}: td_err={r.td_error_ms:.4g} ms cc={r.cc:.6f}")
            if not r.cn <= A2I_MAX_CN:
                res.violations.append(f"{cell}: cn={r.cn:.4g} above the a2i band {A2I_MAX_CN}")
        res.items = len(rows) - res.failed
        res.gait_cn = {m: [r.cn for r in rows if r.motion.value == m and not r.error]
                       for m in self.motions if m != "a2i"}
        return res

    def finish(self, results: list[ItemResult]) -> list[str]:
        """Baseline ordering of criterion 5 over every gait row of the run."""
        gaits = [m for m in self.motions if m != "a2i"]
        medians = {m: statistics.median(cn for res in results for cn in res.gait_cn[m])
                   for m in gaits}
        violations = [f"median cn of {m} is {v:.4g}, not above {GAIT_MIN_MEDIAN_CN}"
                      for m, v in medians.items() if not v > GAIT_MIN_MEDIAN_CN]
        if {"walk", "spin", "wave"} <= set(medians) and not \
                medians["wave"] < min(medians["walk"], medians["spin"]):
            violations.append(f"gait ordering wave < walk, spin broken: {medians}")
        return violations


class CliRoundTrip:
    """In-process ``cli.main simulate`` then ``cli.main calibrate`` on CSV dumps.

    ``prepare`` runs ``cli.main optimize`` once. Its seed is fixed, so the
    set-up work is the same for every workload seed; round trip ``i``
    draws its truth, noise density and noise seed from the workload seed.
    A narrow ``--t-r`` keeps the offset scan short, so the text writers
    and readers of ``io`` take a large share of each round trip.
    """

    name = "cli-roundtrip"
    code = 3

    def prepare(self, work: Path) -> None:
        cli = _footcalib("cli")
        with contextlib.redirect_stdout(text_io.StringIO()):
            code = cli.main(["optimize", "--out", str(work / "prepared"), "--seed", "0"])
        if code != 0:
            raise RuntimeError(f"cli optimize exited {code}")

    def item(self, seed: int, index: int, work: Path) -> ItemResult:
        cli = _footcalib("cli")
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.code, index]))
        euler, t_d = _truth_draw(rng, CLI_OFFSET_RANGE)
        density = DENSITIES[index % len(DENSITIES)]
        noise_seed = int(rng.integers(2 ** 31))
        out = work / "roundtrip"
        simulate = ["simulate", "--out", str(out),
                    "--trajectory", str(work / "prepared" / "trajectory.csv"),
                    "--euler=" + ",".join(repr(v) for v in euler), f"--t-d={t_d!r}",
                    "--noise", repr(density), "--seed", str(noise_seed)]
        calibrate = ["calibrate", "--out", str(out),
                     "--imu", str(out / "imu_measurements.csv"),
                     "--foot", str(out / "foot_kinematic.csv"), "--t-r", repr(CLI_T_R)]
        stderr = text_io.StringIO()
        with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(stderr):
            started = time.perf_counter()
            codes = (cli.main(simulate), cli.main(calibrate))
            seconds = time.perf_counter() - started

        failed = int(codes != (0, 0))
        res = ItemResult(items=1 - failed, failed=failed, seconds=seconds, digest="")
        if res.failed:
            res.violations.append(f"round trip {index}: exit codes {codes} {stderr.getvalue()}")
            return res
        files = [out / "imu_measurements.csv", out / "foot_kinematic.csv",
                 out / "calibration_report.json"]
        res.digest = _digest(files)
        report = json.loads(files[-1].read_text())
        err_ms = abs(report["t_d_s"] - t_d) * 1e3
        rotation = np.asarray(report["rotation_matrix"]).reshape(3, 3)
        res.td_abs_err_ms.append(err_ms)
        res.re_deg.append(_footcalib().rotation_error(rotation, euler).degrees)
        if not err_ms <= SAMPLE_PERIOD * 1e3:
            res.violations.append(f"round trip {index}: |t_d err| {err_ms:.4g} ms > one sample")
        return res

    def finish(self, results: list[ItemResult]) -> list[str]:
        return []


WORKLOADS = {
    "matrix-a2i": MatrixWorkload("matrix-a2i", 1, ("a2i",), optimizer_seed=0),
    "matrix-gaits": MatrixWorkload("matrix-gaits", 2, ("walk", "spin", "wave")),
    "cli-roundtrip": CliRoundTrip(),
}

# Items in one cycle: a run repeats whole cycles, and each pass of a traced
# run is one cycle, so exact counts repeat. A matrix-a2i cycle is the
# default matrix's seed 0 for all four feet. Cycles are short enough that a
# 10 s run repeats every item two to five times on a 2-vCPU VM, and a
# cli-roundtrip cycle still has five samples beyond its 90th percentile.
CYCLE = {"matrix-a2i": 4, "matrix-gaits": 4, "cli-roundtrip": 50}


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile; NaN for no values."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else math.nan
