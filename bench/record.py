"""Run the benchmark over seeds 1-10 and record the result as a BENCH_*.json file.

Run from the root of a checkout:

    python3 bench/record.py --out bench/BENCH_1.json --label "after X"

For every workload of ``BENCHMARK.json`` it runs ``bench/run.py --trace 0``
once per seed and reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles over the median), next to the
bound in ``BENCHMARK.json``. It then runs ``--trace 1`` twice on the first seed,
fails if any exact count differs between the two runs, and keeps the
per-layer metrics of the first. Seeds and workloads are fixed, so any two
files compare entry for entry; both sides must run the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300
SEEDS = list(range(1, 11))
# Per-layer metrics that vary between runs of the same code; every other
# per-layer metric must repeat exactly.
TIMED_SUFFIXES = (".busy_s", ".self_s", ".self_share", ".overhead_frac")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="BENCH_*.json to write")
    parser.add_argument("--label", default="", help="what the recorded code is")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "seeds": SEEDS, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = _run(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            record["env"] = env
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for metric, bound in bounds.items():
            summary = _summary([r["metrics"][metric]["value"] for r in runs])
            summary.update(unit=runs[0]["metrics"][metric]["unit"], bound=bound)
            entry["end_to_end"][metric] = summary
            print(f"  {metric}: median {summary['median']:.6g} {summary['unit']}, "
                  f"spread {summary['spread']:.4f} (bound {bound})", flush=True)
        trace_seed = SEEDS[0]
        first, second = (_run(workload, trace_seed, spec["run_seconds"], 1)[0]["metrics"]
                         for _ in range(2))
        drift = sorted(name for name in first if not name.endswith(TIMED_SUFFIXES)
                       and first[name]["value"] != second[name]["value"])
        if drift:
            raise SystemExit(f"{workload}: exact counts differ between traced runs: {drift}")
        entry["per_layer"] = {"seed": trace_seed, **{k: v["value"] for k, v in first.items()}}
        print(f"  traced runs on seed {trace_seed}: exact counts repeat", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
