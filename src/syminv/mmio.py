"""Reading and writing dense matrices as CSV or Matrix Market files.

CSV files carry one matrix row per line, LF-terminated, with no header.
Each entry is written as Python's ``repr`` of the float: the shortest
decimal string that reads back as the same float64, so a write followed
by a read reproduces the matrix bit for bit.  A bitwise symmetric matrix
has each off-diagonal string formatted once and reused for its mirrored
cell.  The reader parses in C (``numpy.loadtxt``); it accepts quoted
cells, blank lines, CRLF line ends and whitespace around cells, but only
the decimal literals NumPy parses, so Python-only forms such as ``1_0``
are rejected.

Matrix Market files go through ``scipy.io`` and may use either the
``array`` or the ``coordinate`` layout; coordinate files (including
``symmetric`` ones) are expanded to dense on read.  SciPy is imported
only when a Matrix Market file is read or written.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidArgument
from .matcore import as_matrix


def csv_lines(a):
    """Yield the CSV text of the float64 matrix *a*, one LF-terminated line per row.

    When *a* is bitwise symmetric, each row formats only its diagonal and
    right part; the left part reuses the strings made for earlier rows.
    """
    bits = a.view(np.int64)
    if not np.array_equal(bits, bits.T):
        for row in a:
            yield ",".join(map(repr, row.tolist())) + "\n"
        return
    # unused[j] holds row j's strings right of the diagonal not yet written
    # as column j of a later row, reversed, so each row pops its cell.
    unused = []
    for i in range(a.shape[0]):
        right = list(map(repr, a[i, i:].tolist()))
        cells = [strings.pop() for strings in unused]
        cells.extend(right)
        yield ",".join(cells) + "\n"
        unused.append(right[:0:-1])


def read_csv_matrix(path) -> np.ndarray:
    with open(path) as fh:
        try:
            # loadtxt only warns on a file without rows, so look first.
            if not any(line.strip() for line in fh):
                raise InvalidArgument(f"{path}: no matrix rows found")
            fh.seek(0)
            rows = np.loadtxt(fh, delimiter=",", dtype=np.float64,
                              comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise InvalidArgument(f"{path}: {exc}") from None
    return as_matrix(rows)


def write_csv_matrix(path, a) -> None:
    a = as_matrix(a)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(csv_lines(a))


def read_mm_matrix(path) -> np.ndarray:
    import scipy.io
    import scipy.sparse

    m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return as_matrix(m)


def write_mm_matrix(path, a) -> None:
    import scipy.io

    a = as_matrix(a)
    scipy.io.mmwrite(path, a, precision=17)


_READERS = {".csv": read_csv_matrix, ".mtx": read_mm_matrix}
_WRITERS = {".csv": write_csv_matrix, ".mtx": write_mm_matrix}


def _dispatch(table, path, kind):
    ext = os.path.splitext(str(path))[1].lower()
    try:
        return table[ext]
    except KeyError:
        raise InvalidArgument(
            f"cannot {kind} {path!r}: unsupported extension {ext!r}"
            " (expected .csv or .mtx)"
        ) from None


def read_matrix(path) -> np.ndarray:
    """Load a square matrix, picking the format from the file extension."""
    return _dispatch(_READERS, path, "read")(path)


def write_matrix(path, a) -> None:
    """Store a square matrix, picking the format from the file extension."""
    _dispatch(_WRITERS, path, "write")(path, a)
