"""Format ``posteriors.csv`` from the spill file of a run that is still filling it.

Run as ``python -I -S posterior_writer.py G SPILL_FD TABLE_FD`` on the two files
that ``pipeline.run_pipeline`` opens. The spill holds raw float64 rows of G
values, the grid first. On each read of stdin, where the run writes a byte per
row, the whole rows not formatted yet are formatted, and at the end of stdin the
rest: one ``%.9g`` bytes template per line. Only ``os``, ``sys`` and ``array``
are imported, so the child needs neither numpy nor the package.
"""

import os
import sys
from array import array


def main(n_points: int, spill: int, table: int) -> None:
    row_bytes = 8 * n_points
    template = (",".join(["%.9g"] * n_points) + "\n").encode()
    done = 0
    with open(table, "wb") as out:
        while True:
            more = os.read(0, 1 << 16)  # b"" once the parent has closed the pipe
            held = os.fstat(spill).st_size // row_bytes
            for i in range(done, held):
                out.write(template % tuple(array("d", os.pread(spill, row_bytes, i * row_bytes))))
            done = held
            if not more:
                return


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]))
