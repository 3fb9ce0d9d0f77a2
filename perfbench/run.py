"""The repo benchmark: simulator and sweep throughput, host time per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload strided-sram --seed 11 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see README.md for the workloads, the metric definitions and which
layer metric should move which end-to-end metric on which workload).  The
workload names, metric names and units come from ``BENCHMARK.json`` at the
repository root.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark builds nothing: it imports the ``repro`` package from
``src/`` of the checkout it runs in, and exits with code 2 (printing no
result) when that is missing.  ``sweep-small``'s result caches live under
``.perfbench_work/`` in the checkout and are removed at the end of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment overrides of simulator defaults; the benchmark measures the
#: defaults (FULL data policy, batch datapath, event engine, no faults).
_OVERRIDES = ("REPRO_DATA_POLICY", "REPRO_SIM_DATAPATH", "REPRO_SIM_ENGINE", "REPRO_FAULTS")


def load_catalog() -> dict:
    """``BENCHMARK.json``: workloads, metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(catalog: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in catalog["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--scale", default=None, choices=("tiny", "small", "medium"),
        help="problem scale (default: medium for the simulation workloads, "
             "small for sweep-small; the smoke test uses tiny)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.scale is None:
        args.scale = "small" if args.workload == "sweep-small" else "medium"
    return args


def measure(args: argparse.Namespace):
    """Run one workload; returns ``(metrics, attempted, failed, errors)``."""
    if args.workload != "sweep-small":
        import simulate

        driver = simulate.run_traced if args.trace else simulate.run_workload
        return driver(args.workload, args.seed, args.seconds, args.scale)
    import sweep_small

    driver = sweep_small.run_traced if args.trace else sweep_small.run_workload
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="sweep-small-", dir=scratch)
    try:
        return driver(args.seed, args.seconds, args.scale, work_dir, SRC)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)


def main(argv=None) -> int:
    catalog = load_catalog()
    args = parse_args(catalog, argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in _OVERRIDES:
        os.environ.pop(name, None)
    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    started = time.perf_counter()
    metrics, attempted, failed, errors = measure(args)

    missing = sorted({entry["name"] for entry in wanted} - set(metrics))
    if missing:
        errors.append(f"benchmark produced no value for {missing}")
        failed += 1
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} scale={args.scale}: "
          f"{attempted} operations, {failed} failed, "
          f"{time.perf_counter() - started:.1f} s")
    result = {}
    for entry in wanted:
        value = metrics.get(entry["name"], 0.0)
        print(f"  {entry['name']:<30} {value:>16.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
