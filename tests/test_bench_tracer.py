"""The benchmark's span tracer resolves every call site it patches.

``bench/tracing.py`` wraps package functions by module attribute name. A
refactor that renames or drops one of them would make the traced
benchmark fail; this test makes the suite fail instead. A refactor that
keeps a name but stops calling it, or changes the signature a hook reads,
fails the traced CLI round trip below.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from footcalib import BasisSpec, OptimizerConfig, calibration_geometry, cli, eval_basis
from footcalib import io as fio

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _site_attributes(tracing):
    """(module, attribute) of every site the tracer patches."""
    sites = [(f"footcalib.{site}", name.split(".", 1)[1])
             for name, names in tracing.CALL_SITES.items() for site in names]
    sites += [("footcalib.io", attr) for attr in tracing.ROW_WRITERS.values()]
    return [(importlib.import_module(module), attr) for module, attr in sites]


def test_install_patches_and_uninstall_restores_every_site(tracing):
    sites = _site_attributes(tracing)
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        # optimize reaches the loss and its gradient through module
        # globals: one gradient per iteration, and a loss for the start
        # and for each candidate step
        optimizer = importlib.import_module("footcalib.optimizer")
        spec = BasisSpec([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], 2.0)
        optimizer.optimize(spec, OptimizerConfig(max_iterations=1), calibration_geometry())
        table = tracer.span_table()
        assert table["optimizer.loss_gradient"]["calls"] == 1
        assert table["optimizer.trajectory_loss"]["calls"] >= 1
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_cli_round_trip_reaches_every_calibration_span(tracing, tmp_path, capsys):
    # the spans that the benchmark's cli-roundtrip workload reports on each
    # record a call, and the estimate_time_offset hook, which reads that
    # function's positional (imu, foot, search, window_samples), counts lags
    spec = BasisSpec([1.2, 0.8, 5.3], [3.7, 0.4, 0.3], 2.0)
    fio.write_trajectory(tmp_path / "trajectory.csv", eval_basis(spec, np.arange(2001) / 500.0))
    out = str(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--trajectory", str(tmp_path / "trajectory.csv"),
                         "--euler=30,45,60", "--t-d", "0.02", "--noise", "0.006",
                         "--out", out]) == 0
        assert cli.main(["calibrate", "--imu", str(tmp_path / "imu_measurements.csv"),
                         "--foot", str(tmp_path / "foot_kinematic.csv"), "--t-r", "0.1",
                         "--out", out]) == 0
    finally:
        tracer.uninstall()
    table = tracer.span_table()
    silent = [name for name in ("calibrate.calibrate", "calibrate.estimate_time_offset",
                                "calibrate.estimate_rotation", "simulate.simulate_imu",
                                "io.read_measurements") if not table[name]["calls"] > 0]
    assert not silent
    assert tracer.counts["calibrate.candidates"] > 0
