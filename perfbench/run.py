"""Command-line entry of the tacholess benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fullband-5s --seed 1 --seconds 30 --trace 0

It prints readable lines, then one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
``--trace 0`` reports the end_to_end metrics of BENCHMARK.json, ``--trace 1``
its per_layer metrics. The program is imported from ``src/`` of the current
directory; without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The pipeline's BLAS work is small matrix-vector products: on a 2-core host a
# second BLAS thread made a fullband-5s clip slower (3.6 s against 3.0 s) and
# noisier, so native pools get one thread (never more than nproc).
THREAD_CAP = 1


class NoProgram(Exception):
    pass


def prepare(root: Path) -> dict:
    """Cap native thread pools at THREAD_CAP, put root/src first on the import path
    (also for child processes) and import the program from there.

    Must run before numpy is imported. Returns the environment to record.
    """
    src = root / "src"
    if not (src / "tacholess" / "__init__.py").is_file():
        raise NoProgram(f"no tacholess sources under {src}; run from the root of a checkout")
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        os.environ[var] = caps[var] = str(THREAD_CAP)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))

    import numpy
    import scipy
    import tacholess

    if Path(tacholess.__file__).resolve().parent != (src / "tacholess").resolve():
        raise NoProgram(f"imported tacholess from {tacholess.__file__}, not from {src}")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "thread_caps": caps}


def assemble(spec: dict, trace: bool, result: dict, values: dict) -> dict:
    """Attach the metrics BENCHMARK.json names for this kind of run, with units."""
    kind = "per_layer" if trace else "end_to_end"
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec[kind]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        env = prepare(root)
    except NoProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    print("env: " + json.dumps(env, sort_keys=True))

    import bench

    result, values = bench.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), root)
    result = assemble(spec, bool(args.trace), result, values)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
