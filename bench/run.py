"""Benchmark entry point.

    python3 bench/run.py --workload mc-64 --seed 1 --seconds 10 --trace 0

Pins BLAS to one thread (``DGP_THREADS=1``) before numpy is imported and
refuses to run if the pin did not take effect.  Prints a table of every
measured value and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record, with the environment, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


def pin_threads():
    os.environ["DGP_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = os.environ["DGP_THREADS"]


def metric_units():
    """name -> unit for every metric BENCHMARK.json declares."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import envinfo

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = envinfo.environment(args.seed)
    if set(env["blas_threads"].values()) != {1}:
        print(f"error: BLAS thread pin did not take effect: "
              f"{env['blas_threads']}", file=sys.stderr)
        return 2

    record = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    record["env"] = env
    tracer = record.pop("tracer", None)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(workloads.OUT / f"{stem}.spans.jsonl")
    (workloads.OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    units = metric_units()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['blas_threads']} cpu={env['cpu_model']!r} "
          f"nproc={env['nproc']}")
    for name, value in record["metrics"].items():
        print(f"{name:44s} {value:>16.6g} {units.get(name, '')}")
    for name, value in record.get("stage_seconds", {}).items():
        print(f"{'seconds.' + name:44s} {value:>16.6g} s")
    for name, value in sorted(record["quality"].items()):
        if f"quality.{name}" not in record["metrics"]:
            print(f"{'quality.' + name:44s} {value:>16.6g}")
    for what in record["failures"]:
        print(f"FAILED: {what}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
