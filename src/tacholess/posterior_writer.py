"""Format ``posteriors.csv`` from the raw rows that a running analysis pipes in.

Run as ``python -I -S posterior_writer.py G`` with ``posteriors.csv`` as its
stdout, as ``pipeline.run_pipeline`` starts it. Stdin carries raw float64 rows
of G values, the grid first; each is formatted with one ``%.9g`` bytes
template per line as it arrives, until stdin ends. Only ``sys`` and
``array`` are imported, so the child needs neither numpy nor the package.
"""

import sys
from array import array


def main(n_points: int) -> None:
    row_bytes = 8 * n_points
    template = (",".join(["%.9g"] * n_points) + "\n").encode()
    out = sys.stdout.buffer
    while row := sys.stdin.buffer.read(row_bytes):  # a whole row, or b"" at the end
        out.write(template % tuple(array("d", row)))
    out.flush()


if __name__ == "__main__":
    main(int(sys.argv[1]))
