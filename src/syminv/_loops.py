"""The compiled loops and CSV parser of ``_loops.c``, built once per user and bound through ctypes.

Importing this module loads ``syminv-<uid>/loops-<crc>.so`` from
``tempfile.gettempdir()``, where crc is the CRC-32 of the C source and
the compiler flags.  On a cold cache it first compiles the source with
the C compiler Python was built with (``sysconfig``'s CC), to a
temporary name in that directory that then replaces the library
atomically, so concurrent first imports each load a whole file.  The
directory is made with mode 0700; one owned by another user, or
writable by anyone else, raises ImportError, since whoever can write
there chooses the code this process runs.  So does a cold cache without
the compiler.

Each wrapper checks what the C code indexes: every array float64,
C-contiguous and writeable, and its shape and bounds, before a pointer
is passed.
"""

from __future__ import annotations

import ctypes
import os
import stat
import tempfile
import zlib

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loops.c")
# No -ffast-math and no -march: the loops round as numpy and the scalar
# transcriptions do, with no contracted a - b * c and no reordered sum.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LONG = np.dtype(ctypes.c_long)  # the C code's index type


def _cache_dir() -> str:
    path = os.path.join(tempfile.gettempdir(), f"syminv-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        raise ImportError(f"syminv: {path} must be a directory owned by uid "
                          f"{os.getuid()} and writable by no one else")
    return path


def _build(path) -> None:
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC").split()
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run([*cc, *_FLAGS, "-o", tmp, _SOURCE], check=True,
                       capture_output=True, text=True)
        os.replace(tmp, path)
    except FileNotFoundError:
        raise ImportError(f"syminv: building its compiled loops needs the C "
                          f"compiler {cc[0]!r}, which was not found") from None
    except subprocess.CalledProcessError as exc:
        raise ImportError(f"syminv: {cc[0]} could not build {_SOURCE}:\n"
                          f"{exc.stderr}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    with open(_SOURCE, "rb") as fh:
        crc = zlib.crc32(fh.read() + " ".join(_FLAGS).encode())
    path = os.path.join(_cache_dir(), f"loops-{crc:08x}.so")
    if not os.path.exists(path):
        _build(path)
    lib = ctypes.CDLL(path)
    lng, dbl, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    for name, args in (("ldl_block", (ptr, lng, lng, lng, ptr, dbl, dbl)),
                       ("step", (ptr, lng, ptr, lng, lng, ptr, lng, ptr, dbl, ctypes.c_int)),
                       ("panel", (ptr, ptr, lng, ptr, ptr, ptr, dbl)),
                       ("parse_csv", (ctypes.c_char_p, lng, ptr, lng, lng))):
        func = getattr(lib, f"syminv_{name}")
        func.argtypes, func.restype = args, lng
    return lib


_lib = _load()


def _ptr(x, dtype=np.float64, ndim=2) -> int:
    """Address of *x*'s data, once it is a writeable C-contiguous *dtype* array of *ndim* axes."""
    if not (isinstance(x, np.ndarray) and x.dtype == dtype and x.ndim == ndim
            and x.flags.c_contiguous and x.flags.writeable):
        raise TypeError(f"expected a writeable C-contiguous {np.dtype(dtype)} array "
                        f"of {ndim} axes")
    return x.ctypes.data


def ldl_block(a, s, e, d, lo, tol) -> int:
    """The LDL^T column loop on a's diagonal block [s, e), pivots to d[s:e].

    Returns the first j with lo <= pivot j <= tol, or -1.
    """
    n = a.shape[0]
    if not (a.shape == (n, n) and d.shape == (n,) and 0 <= s < e <= n):
        raise ValueError("ldl_block: shapes or block out of range")
    return _lib.syminv_ldl_block(_ptr(a), n, s, e, _ptr(d, ndim=1), lo, tol)


def step(a, f, k, rows, tol, swaps) -> int:
    """Elimination step k on f's sorted *rows* against a; the pivot row, or -1.

    *rows* must be the required rows below k and every row from k on.
    """
    m = rows.size
    if not (m and 0 <= rows[0] and 0 <= k <= rows[-1]
            and rows[-1] < min(a.shape[0], f.shape[0]) and k < min(a.shape[1], f.shape[1])
            and (m == 1 or np.diff(rows).min() > 0)
            and np.count_nonzero(rows >= k) == rows[-1] - k + 1):
        raise ValueError("step: step or rows out of range")
    d = np.empty(m)
    return _lib.syminv_step(_ptr(a), a.shape[1], _ptr(f), f.shape[1], k,
                            _ptr(rows, _LONG, 1), m, _ptr(d, ndim=1), tol, swaps)


def panel(p, c, keep, tol) -> int:
    """A panel's steps without swaps, on c from the identity against p.

    Row k stops taking steps after its own unless keep[k].  Returns the
    step whose pivot was rejected, or the panel's width.
    """
    m = c.shape[0]
    if not (p.shape == c.shape == (m, m) and keep.shape == (m,) and m):
        raise ValueError("panel: shapes out of range")
    rows, d = np.empty(m, _LONG), np.empty(m)
    return _lib.syminv_panel(_ptr(p), _ptr(c), m, _ptr(keep, np.bool_, 1),
                             _ptr(rows, _LONG, 1), _ptr(d, ndim=1), tol)


def parse_csv(text, end, out, width) -> int:
    """Parse the rows of ``text[:end]``, each of *width* JSON numbers, into *out*.

    *text* is bytes of LF-terminated rows; the last row's LF may be
    missing.  Returns the number of values written to the 1-D *out*, or
    -1 when a row has another width, a byte or a number form is not
    taken, a value overflows, or the values do not fit in *out*.
    """
    if not (isinstance(text, bytes) and 0 <= end <= len(text) and width > 0):
        raise ValueError("parse_csv: text or width out of range")
    return _lib.syminv_parse_csv(text, end, _ptr(out, ndim=1), out.size, width)
