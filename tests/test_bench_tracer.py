"""The benchmark's span tracer resolves every call site it patches.

``bench/tracing.py`` wraps package functions by module attribute name. A
refactor that renames or drops one of them would make the traced
benchmark fail; this test makes the suite fail instead.
"""

import importlib
from pathlib import Path

import pytest

from footcalib import BasisSpec, OptimizerConfig, calibration_geometry

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
