"""Planner benchmark: one seeded workload against this checkout's entflow.

    python3 perfbench/run.py --workload inner-serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones. ``--workload all`` runs every
workload, each in a fresh process. METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One process with one BLAS thread, so the load stays within nproc
# threads whatever the core count. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def use_checkout_src() -> None:
    """Import entflow from ``src/`` of this checkout, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "entflow", "__init__.py")):
        _fail(f"no entflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import entflow

    if not os.path.realpath(entflow.__file__).startswith(os.path.realpath(SRC) + os.sep):
        _fail(f"entflow imported from {entflow.__file__}, not {SRC}")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment_stamp() -> dict:
    import numpy
    import scipy

    from workloads import nproc

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g}, n={len(values)}"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    use_checkout_src()
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    print("env " + json.dumps(environment_stamp()), flush=True)
    result = WORKLOADS[workload](seed, seconds, trace)

    units = {m["name"]: m["unit"] for m in declared}
    if set(result.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(result.metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    for name, values in result.samples.items():
        print(f"{workload} sample {name}: {_quartiles(values)}")
    for name in sorted(units):
        print(f"{workload} {name} = {result.metrics[name]!r} {units[name]}")
    for name, value in result.named.items():
        print(f"{workload} {name} = {value!r}")
    ratio = result.failed / max(1, result.attempted)
    print(f"{workload} failed_ratio = {ratio!r} ({result.failed}/{result.attempted})")
    for problem in result.problems[:20]:
        print(f"{workload} FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": units[name]}
            for name in sorted(units)
        },
    }), flush=True)
    return 0


def main(argv=None) -> int:
    names = ("inner-serve", "outer-refresh", "lattice-sweep")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
