"""footcalib benchmark: three workloads through the package's public entry points.

Run from the root of a checkout:

    python3 bench/run.py --workload matrix-a2i --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it runs items of the workload until ``--seconds`` have
passed and prints the end-to-end metrics; with ``--trace 1`` it runs a
fixed list of items in alternating untraced and traced passes and prints
the per-layer metrics. The metric names and units are those of
``BENCHMARK.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
failed correctness check prints it with ``correct`` false and no metrics
and exits 1.

``footcalib`` is imported from ``src/`` of the checkout, never from an
installed copy, and BLAS/OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import CYCLE, WORKLOADS, percentile  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def _load_package():
    """Import footcalib from the checkout's src/ and prove that copy was loaded."""
    if not (SRC / "footcalib" / "__init__.py").is_file():
        sys.exit(f"bench: no src/footcalib in {ROOT}; run from the root of a footcalib checkout")
    sys.path.insert(0, str(SRC))
    import footcalib

    loaded = Path(footcalib.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"bench: footcalib was imported from {loaded}, not from {SRC}")
    return footcalib


def _metric_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _environment(footcalib) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_pinned": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "footcalib_file": os.path.relpath(footcalib.__file__, ROOT),
    }


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _setup_times(name: str, seed: int, work: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and prepare the workload.

    The first prepares into ``work`` itself, the rest into their own
    directories; what they prepare must match byte for byte.
    """
    times, digests = [], set()
    for k in range(repeats):
        target = work if k == 0 else work / f"setup-{k}"
        started = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--prepare", str(target), "--workload", name,
                        "--seed", str(seed)], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        digests.add(_tree_digest(target / "prepared"))
    if len(digests) != 1:
        raise SystemExit("bench: set-up output differs between runs")
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, work: Path):
    """Cycles of the workload's item list until ``seconds`` have passed.

    Every item runs in at least two cycles, and each repeat must write the
    same report bytes. Other work on the machine only ever slows a call
    down, so each item is timed by its fastest repeat in the run and the
    metrics are taken over those times.
    """
    setup = _setup_times(workload.name, seed, work, SETUP_REPEATS)
    cycle = CYCLE[workload.name]
    cycles = []
    started = time.perf_counter()
    while len(cycles) < 2 or time.perf_counter() < started + seconds:
        cycles.append([workload.item(seed, i, work) for i in range(cycle)])
    elapsed = time.perf_counter() - started

    everything = [res for results in cycles for res in results]
    violations = [v for res in everything for v in res.violations]
    violations += workload.finish(everything)
    if any(res.digest != cycles[0][i].digest for results in cycles
           for i, res in enumerate(results)):
        violations.append("report files of an item differ between two runs of one seed")
    items = sum(res.items for res in everything)
    failed = sum(res.failed for res in everything)
    print(f"{workload.name}: {len(cycles)} cycles of {cycle} entry-point rounds, {items} completed "
          f"items in {elapsed:.3f} s; each round timed by its fastest of {len(cycles)} repeats; "
          f"set-up runs {', '.join(f'{t:.3f}' for t in setup)} s")

    fastest = [min(results[i].seconds for results in cycles) for i in range(cycle)]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(res.items for res in cycles[0]) / sum(fastest),
        "roundtrip_ms_p50": percentile(fastest, 50) * 1e3,
        "roundtrip_ms_p90": percentile(fastest, 90) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, items + failed, failed, violations


def run_traced(workload, seed: int, work: Path):
    """Alternating untraced and traced passes over a fixed item list."""
    workload.prepare(work)
    count = CYCLE[workload.name]
    walls = {False: [], True: []}
    tracers = []
    passes = []
    for traced in (False, True, False, True):
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            started = time.perf_counter()
            results = [workload.item(seed, i, work) for i in range(count)]
            walls[traced].append(time.perf_counter() - started)
        finally:
            if tracer:
                tracer.uninstall()
                tracers.append(tracer)
        passes.append(results)

    violations = [v for results in passes for res in results for v in res.violations]
    violations += workload.finish(passes[0])
    digests = [[res.digest for res in results] for results in passes]
    if any(d != digests[0] for d in digests):
        violations.append("report files differ between passes over the same items")
    tables = [t.span_table() for t in tracers]
    exact = [({n: row["calls"] for n, row in table.items()}, dict(t.counts))
             for table, t in zip(tables, tracers)]
    if exact[0] != exact[1]:
        violations.append(f"exact counts differ between traced passes: {exact[0]} vs {exact[1]}")

    metrics = {}
    for name in tables[0]:
        metrics[f"{name}.calls"] = tables[0][name]["calls"]
        for key in ("busy_s", "self_s"):
            metrics[f"{name}.{key}"] = statistics.mean(table[name][key] for table in tables)
    counts = tracers[0].counts
    runs = counts.get("optimizer.runs", 0)
    metrics["optimizer.iterations"] = counts.get("optimizer.iterations", 0)
    metrics["optimizer.converged_frac"] = (counts.get("optimizer.converged", 0) / runs
                                           if runs else 0.0)
    metrics["optimizer.kappa_final_max"] = counts.get("optimizer.kappa_final_max", 0.0)
    metrics["optimizer.fd_loss_share"] = tracers[0].fd_loss_share()
    for name in ("calibrate.candidates", "calibrate.failed_candidates", "calibrate.sample_pairs",
                 "io.bytes_written", "io.bytes_read"):
        metrics[name] = counts.get(name, 0)
    traced_wall = statistics.mean(walls[True])
    metrics["trace.overhead_frac"] = traced_wall / statistics.mean(walls[False]) - 1.0
    for layer in LAYERS:
        self_s = sum(metrics[f"{n}.self_s"] for n in tables[0] if n.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = self_s / traced_wall
    errors = [e for res in passes[0] for e in res.td_abs_err_ms]
    metrics["td_abs_err_ms_p50"] = percentile(errors, 50)
    metrics["td_abs_err_ms_max"] = max(errors) if errors else float("nan")
    metrics["re_deg_p50"] = percentile([e for res in passes[0] for e in res.re_deg], 50)

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracers[-1].write_spans(spans_path)
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_share']:.3f}" for layer in LAYERS)
    print(f"{workload.name}: {count} items per pass; self-time share of a traced pass: {shares}; "
          f"spans -> {spans_path.relative_to(ROOT)}")
    failed = sum(res.failed for results in passes for res in results)
    attempted = sum(res.items for results in passes for res in results) + failed
    return metrics, attempted, failed, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    footcalib = _load_package()
    workload = WORKLOADS[args.workload]
    if args.prepare is not None:
        workload.prepare(args.prepare)
        return 0

    end_to_end, per_layer = _metric_spec()
    print("env: " + json.dumps(_environment(footcalib), sort_keys=True))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, violations = run_traced(workload, args.seed, work)
            units = per_layer
        else:
            metrics, attempted, failed, violations = run_untraced(
                workload, args.seed, args.seconds, work)
            units = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")
    for violation in violations:
        print(f"CHECK FAILED: {violation}", file=sys.stderr)
    result = {"correct": not violations, "attempted": attempted, "failed": failed,
              "metrics": {} if violations else
              {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    print(json.dumps(result))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
