"""Reading and writing dense matrices as CSV or Matrix Market files.

CSV files carry one matrix row per line, LF-terminated, with no header.
Each entry is written with the shortest decimal digits that read back as
the same float64 (the digits of Python's ``repr``), so a write followed
by a read reproduces the matrix bit for bit.  The writer formats in C
with ``orjson`` (Ryu) and streams 128 rows at a time, so it never holds
the whole text.  It spells entries in fixed notation for
1e-5 <= |v| < 1e16 and otherwise as ``1e-7`` or ``1.5e16``, with no
``+`` sign and no zero padding in the exponent.  Non-finite entries are
rejected before any text is written.

The reader has two paths with one result.  A plain file, which is what
the writer makes, is parsed in C by ``orjson`` (correctly rounded), 128
lines per call: each block of non-empty lines is read as the JSON array
of its rows.  A plain file holds only digits, ``.eE+-``, commas, spaces,
tabs and LF, in equal rows of JSON numbers and empty lines, and never
spells a zero as the integer ``-0``, which orjson reads as ``0``
(``-0.0`` keeps its sign on both paths).  Every other file is read by
``numpy.loadtxt``: it also accepts quoted cells, CRLF line ends and
number forms JSON lacks (``+1``, ``.5``, ``1.``, ``01``), but only the
decimal literals NumPy parses, so Python-only forms such as ``1_0`` are
rejected with an ``InvalidArgument`` that names the path.  The orjson
path gives up at the first block it cannot take, and loadtxt then reads
the whole file.

Matrix Market files go through ``scipy.io`` and may use either the
``array`` or the ``coordinate`` layout; coordinate files (including
``symmetric`` ones) are expanded to dense on read.  SciPy is imported
only when a Matrix Market file is read or written, and orjson only when
a CSV file is read or CSV text is written.
"""

from __future__ import annotations

import os
import re
from itertools import islice

import numpy as np

from .errors import InvalidArgument
from .matcore import _validated

# Rows formatted or parsed per orjson call: enough to amortise the call, and
# a fixed number of rows of text in flight rather than the whole matrix's.
_ROWS = 128

# The bytes of a plain CSV file: JSON's number characters, the delimiter,
# and JSON's whitespace except CR (``5.0\r\t`` is a JSON row but a loadtxt
# error).  A file with any other byte goes to loadtxt.
_PLAIN = b"0123456789.eE+-, \t\n"

# orjson reads the integer -0 as 0, where loadtxt keeps the sign; every
# other spelling of a zero keeps its sign on both paths.
_INT_MINUS_ZERO = re.compile(rb"-0(?![.eE0-9])")


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


def _read_plain_csv(path):
    """Parse a plain CSV file in C with orjson, _ROWS lines per call.

    Each block of non-empty lines becomes the JSON text
    ``[[line],[line],...]``.  Returns None, and so leaves the file to
    ``loadtxt``, at the first block that holds a byte outside _PLAIN, is
    not equal rows of JSON numbers, or spells a zero as the integer ``-0``,
    and for a file without entries.  Only rows that parsed to a zero are
    searched for ``-0``.
    """
    import orjson

    blocks = []
    with open(path, "rb") as fh:
        while chunk := list(islice(fh, _ROWS)):
            # loadtxt skips empty lines, so a trailing one must not cost a fallback.
            if not (lines := [line for line in chunk if line != b"\n"]):
                continue
            if any(line.translate(None, _PLAIN) for line in lines):
                return None
            # Bracket the end lines rather than the joined block: one copy of
            # the block's text instead of three.
            lines[0] = b"[[" + lines[0]
            lines[-1] += b"]]"
            try:
                block = np.array(orjson.loads(b"],[".join(lines)), dtype=np.float64)
            except ValueError:
                return None
            if not block.size:
                return None
            zero_rows = np.flatnonzero(~block.all(axis=1))
            if any(_INT_MINUS_ZERO.search(lines[i]) for i in zero_rows):
                return None
            blocks.append(block)
    try:
        return np.concatenate(blocks)
    except ValueError:  # no lines, or blocks of different widths
        return None


def read_csv_matrix(path) -> np.ndarray:
    a = _read_plain_csv(path)
    return _read_csv_loadtxt(path) if a is None else _validated(a)


def _read_csv_loadtxt(path) -> np.ndarray:
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
    return _validated(rows)


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
    return _validated(m)


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
