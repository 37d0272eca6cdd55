"""Reading and writing dense matrices as CSV or Matrix Market files.

CSV files carry one matrix row per line, LF-terminated, with no header.
Each entry is written with the shortest decimal digits that read back as
the same float64 (the digits of Python's ``repr``), so a write followed
by a read reproduces the matrix bit for bit.  The writer formats in C
with ``orjson`` (Ryu) and streams 128 rows at a time, so it never holds
the whole text.  It spells entries in fixed notation for
1e-5 <= |v| < 1e16 and otherwise as ``1e-7`` or ``1.5e16``, with no
``+`` sign and no zero padding in the exponent.  Non-finite entries are
rejected before any text is written.  The reader parses in C
(``numpy.loadtxt``); it accepts quoted cells, blank lines, CRLF line
ends and whitespace around cells, but only the decimal literals NumPy
parses, so Python-only forms such as ``1_0`` are rejected.

Matrix Market files go through ``scipy.io`` and may use either the
``array`` or the ``coordinate`` layout; coordinate files (including
``symmetric`` ones) are expanded to dense on read.  SciPy is imported
only when a Matrix Market file is read or written, and orjson only when
CSV text is written.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidArgument
from .matcore import _validated, as_matrix

# Rows formatted per orjson call: enough to amortise the call, and a fixed
# number of rows of text in flight rather than the whole matrix's.
_ROWS = 128


def csv_lines(a):
    """Yield the CSV text of the finite square matrix *a*, _ROWS whole rows at a time.

    Each chunk is a str of LF-terminated lines.  orjson prints a C-contiguous
    block as ``[[r0],[r1],...]``, so stripping the outer brackets and
    splitting at ``],[`` leaves the rows.
    """
    import orjson

    a = np.ascontiguousarray(_validated(a))
    for s in range(0, a.shape[0], _ROWS):
        # One expression, so that no block's bytes outlive the step that uses them.
        yield (orjson.dumps(a[s:s + _ROWS], option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
               .replace(b"],[", b"\n").decode("ascii") + "\n")


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
    a = _validated(a)
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
