"""Smoke test of the benchmark. Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload on its short clips, untraced and traced, and asserts that
every metric BENCHMARK.json names is emitted with its unit, that no clip
fails, and that the runner refuses a directory holding only BENCHMARK.json
and the benchmark's files. Takes about a minute; exits non-zero on failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    from run import assemble, prepare

    root = Path.cwd()
    prepare(root)

    from bench import HERE, run_workload
    from workloads import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace in (False, True):
            result, values = run_workload(name, 1, 1.0, trace, root, short=True)
            result = assemble(spec, trace, result, values)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {got} != {want}"
            assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            print(f"ok {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} calls")

    bare = root / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fullband-5s",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
        bare.parent.rmdir()
    assert proc.returncode != 0 and not proc.stdout, proc
    print("ok runner refuses a directory without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
