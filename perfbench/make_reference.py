"""Regenerate reference.json: the tracked (MAP, MMSE) trajectories of each
workload's short seed-1 clips, which pipeline.max_abs_drpm is measured against.

    python3 perfbench/make_reference.py      (from the repository root)

Rerun it only for a change that is meant to alter trajectories, and say so in
the change's description; a refactor should leave max_abs_drpm at or below 1e-9.
"""

import json
import shutil
import sys
from pathlib import Path

if __name__ == "__main__":
    from run import prepare

    root = Path.cwd()
    prepare(root)

    from bench import HERE, yardstick_trajectories
    from workloads import WORKLOADS

    work = root / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        stored = {name: {label: traj.tolist()
                         for label, traj in yardstick_trajectories(name, work).items()}
                  for name in WORKLOADS}
    finally:
        shutil.rmtree(work)
    (HERE / "reference.json").write_text(json.dumps(stored) + "\n")
    print(f"wrote {HERE / 'reference.json'}", file=sys.stderr)
