"""Reading and writing dense matrices as CSV or Matrix Market files.

CSV files carry one matrix row per line, LF-terminated, with no header.
Each entry is written with the shortest decimal digits that read back as
the same float64 (the digits of Python's ``repr``), so a write followed
by a read reproduces the matrix bit for bit.  The writer formats in C
with ``orjson`` (Ryu), one row per call, and streams each row as it is
made, so it never holds the whole text.  It spells entries in fixed
notation for 1e-5 <= |v| < 1e16 and otherwise as ``1e-7`` or
``1.5e16``, with no ``+`` sign and no zero padding in the exponent.
Non-finite entries are rejected before any text is written.

The reader has two paths with one result.  A plain file, which is what
the writer makes, is parsed by the package's compiled parser
(``_loops.parse_csv``, correctly rounded) in blocks of whole lines
straight into the matrix, so it never holds the whole text of a
regular file either (a pipe's is read whole, in case loadtxt needs it).  A
plain file holds equal rows of JSON numbers separated by commas, with
spaces or tabs around them, LF line ends and empty lines.  Every other
file is read by ``numpy.loadtxt``: it also accepts quoted cells, CRLF
line ends and number forms JSON lacks (``+1``, ``.5``, ``1.``, ``01``),
but only the decimal literals NumPy parses, so Python-only forms such as
``1_0`` are rejected with an ``InvalidArgument`` that names the path.
The compiled path gives up at the first block it cannot take, and
loadtxt then reads the whole file: a regular file again from its
start, and a pipe or FIFO, which cannot be read twice, from its text.

Matrix Market files go through ``scipy.io`` and may use either the
``array`` or the ``coordinate`` layout; coordinate files (including
``symmetric`` ones) are expanded to dense on read.  A file that
``scipy.io`` cannot parse raises an ``InvalidArgument`` that names the
path.  SciPy is imported only when a Matrix Market file is read or
written, and orjson only when CSV text is written.
"""

from __future__ import annotations

import io
import os
import re
import stat

import numpy as np

from . import _loops
from .errors import InvalidArgument
from .matcore import _validated

# Bytes read per block: enough to amortise the call into C, and a fixed
# amount of text in flight rather than the whole file's.
_BLOCK = 1 << 20

# The first non-empty line, whose cells set the matrix's order.
_FIRST_ROW = re.compile(rb"\n*([^\n]+)")


def csv_lines(a):
    """The CSV text of the finite square matrix *a*, as an iterator of LF-terminated rows.

    *a* is checked when this is called, so a non-finite matrix raises
    before any row is made.  orjson prints a row as ``[v0,v1,...]``, so
    dropping the brackets leaves the row's cells.
    """
    import orjson

    a = _validated(a)
    return (orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii") + "\n"
            for row in a)


def _read_plain_csv(fh, size):
    """Parse the plain CSV of the binary file *fh*, *size* bytes long, in C, by blocks of lines.

    The first non-empty line's cells give the order n, and the values go
    straight into one n x n array.  Returns None, and so leaves the file
    to ``loadtxt``, when the compiled parser refuses a block, when the
    rows are not n, and when the file is too short to hold n rows of n
    cells, which keeps a long first line from allocating n^2.
    """
    out, filled, tail = None, 0, b""
    while True:
        # A line longer than a block doubles the read, so it costs
        # linear time, not quadratic.
        data = fh.read(max(_BLOCK, len(tail)))
        text = tail + data
        end = text.rfind(b"\n") + 1 if data else len(text)
        tail = text[end:]
        if out is None and (row := _FIRST_ROW.match(text, 0, end)):
            n = row[1].count(b",") + 1
            # n rows of n cells take 2n^2 - 1 bytes at least.
            if 2 * n * n - 1 > size:
                return None
            out = np.empty((n, n))
        if out is not None:
            got = _loops.parse_csv(text, end, out.reshape(-1)[filled:], n)
            if got < 0:
                return None
            filled += got
        if not data:
            return out if out is not None and filled == out.size else None


def read_csv_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            text = None
            a = _read_plain_csv(fh, st.st_size)
        else:
            # A pipe or FIFO yields its text once: keep it for loadtxt.
            text = fh.read()
            a = _read_plain_csv(io.BytesIO(text), len(text))
    return _read_csv_loadtxt(path, text) if a is None else _validated(a)


def _read_csv_loadtxt(path, text=None) -> np.ndarray:
    """``loadtxt``'s reading of the CSV file *path*, or of its bytes *text* when given."""
    with open(path) if text is None else io.TextIOWrapper(io.BytesIO(text)) as fh:
        try:
            # loadtxt only warns on a file without rows, so look first.
            if not any(line.strip() for line in fh):
                raise InvalidArgument(f"{path}: no matrix rows found")
            fh.seek(0)
            rows = np.loadtxt(fh, delimiter=",", dtype=np.float64,
                              comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            raise InvalidArgument(f"{path}: {exc}") from None
    return _validated(rows)


def write_csv_matrix(path, a) -> None:
    lines = csv_lines(a)  # checks a before the file is opened
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)


def read_mm_matrix(path) -> np.ndarray:
    import scipy.io
    import scipy.sparse

    try:
        m = scipy.io.mmread(path)
    except ValueError as exc:
        raise InvalidArgument(f"{path}: {exc}") from None
    return _validated(m.toarray() if scipy.sparse.issparse(m) else m)


def write_mm_matrix(path, a) -> None:
    import scipy.io

    a = _validated(a)
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
