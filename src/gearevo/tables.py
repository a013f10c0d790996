"""How a run-directory file is written: CSV tables and atomic replacement.

Every CSV file gearevo writes goes through `write_table`; `read_table`
parses one back into its rows of strings.  A file that must never be seen
half-written goes through `atomic_write`.  No numpy here: the CLI imports this module before
CODESIGN_THREADS applies.
"""

from __future__ import annotations

import csv
import os


def atomic_write(path: str, write_fn):
    """Call `write_fn` on `path + ".tmp"`, rename that over `path`, return its result."""
    tmp = path + ".tmp"
    result = write_fn(tmp)
    os.replace(tmp, path)
    return result


def write_table(path, header, rows, append: bool = False) -> None:
    """Write `header`, then one CSV line per row of cells.

    An int or str cell is written as it is, any other as repr(float(cell)),
    which reads back to the same float.  With append=True the rows go to
    the end of `path`, and the header is written only into an empty file.
    """
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(header)
        writer.writerows(
            [c if isinstance(c, (int, str)) else repr(float(c)) for c in row] for row in rows
        )


def read_table(path, accept, kind: str) -> list[list[str]]:
    """The rows below the header, as strings; ValueError unless `accept(header)`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not accept(rows[0]):
        raise ValueError(f"{path}: not {kind}")
    return rows[1:]
