"""Set-up of one workload in a fresh interpreter: import tacholess, build the
clip configs and write the input files. bench.py times it from outside, so
setup_s includes interpreter start and imports.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

The program must be importable (bench.py puts the checkout's src/ on
PYTHONPATH).
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    from workloads import build

    name, seed, workdir = sys.argv[1:4]
    build(name, int(seed), Path(workdir))
