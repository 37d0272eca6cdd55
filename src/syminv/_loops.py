"""The compiled loops and CSV parser of ``_loops.c``, built once per user, and numpy's
own BLAS dgemm, both bound through ctypes.

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

Each wrapper checks what the C code indexes: every array float64 (a
row mask bool), C-contiguous and writeable, and its shape and bounds,
before a pointer is passed.  ``unit_lower_inverse``, ``gemm_update``
and ``step``'s A take views too: an array whose columns are adjacent
passes its row stride beside it, and one that is only read may be
read-only.

``gemm_update`` is the CBLAS dgemm of the OpenBLAS that numpy runs
``matmul`` on, ``scipy_cblas_dgemm64_`` (ILP64) in numpy's bundled
OpenBLAS, looked up through numpy's own extension module.  With beta = 1
it accumulates the blocked drivers' rank-64 updates C -= A B into C in
one pass, where ``C -= A @ B`` fills a fresh product first; each entry
is the same product sum, subtracted once, so the bytes agree.  A numpy
whose BLAS lacks that symbol raises ImportError, naming it.
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
    for name, args, res in (
            ("ldl_block", (ptr, lng, lng, lng, ptr, dbl, dbl), lng),
            ("unit_lower_inverse", (ptr, lng, lng), None),
            ("step", (ptr, lng, ptr, lng, lng, lng, ptr, ptr, dbl, ctypes.c_int), lng),
            ("panel", (ptr, ptr, lng, ptr, dbl), lng),
            ("parse_csv", (ctypes.c_char_p, lng, ptr, lng, lng), lng)):
        func = getattr(lib, f"syminv_{name}")
        func.argtypes, func.restype = args, res
    return lib


_DGEMM = "scipy_cblas_dgemm64_"


def _load_dgemm():
    from numpy._core import _multiarray_umath

    try:
        func = getattr(ctypes.CDLL(_multiarray_umath.__file__), _DGEMM)
    except AttributeError:
        raise ImportError(f"syminv: numpy's BLAS has no {_DGEMM}, the CBLAS dgemm "
                          f"of the OpenBLAS numpy bundles") from None
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    func.argtypes = (ctypes.c_int,) * 3 + (i64,) * 3 + (dbl, ptr, i64, ptr, i64, dbl, ptr, i64)
    func.restype = None
    return func


_lib = _load()
_dgemm = _load_dgemm()
# CBLAS's CblasRowMajor, CblasNoTrans and CblasTrans.
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


def _ptr(x, dtype=np.float64, ndim=2) -> int:
    """Address of *x*'s data, once it is a writeable C-contiguous *dtype* array of *ndim* axes."""
    if not (isinstance(x, np.ndarray) and x.dtype == dtype and x.ndim == ndim
            and x.flags.c_contiguous and x.flags.writeable):
        raise TypeError(f"expected a writeable C-contiguous {np.dtype(dtype)} array "
                        f"of {ndim} axes")
    return x.__array_interface__["data"][0]


def _rows(x, write=False):
    """Address and row stride, in elements, of the float64 matrix *x*, whose columns are adjacent.

    An empty *x* is not indexed, so its strides are not checked.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2
            and x.flags.aligned and (x.flags.writeable or not write)
            and (not x.size or x.strides[1] == x.itemsize and x.strides[0] % x.itemsize == 0
                 and x.strides[0] >= x.itemsize * x.shape[1])):
        raise TypeError(f"expected a{' writeable' if write else 'n'} aligned float64 "
                        f"matrix with adjacent columns and rows that do not overlap")
    return x.__array_interface__["data"][0], x.strides[0] // x.itemsize


def ldl_block(a, s, e, d, lo, tol) -> int:
    """The LDL^T column loop on a's diagonal block [s, e), pivots to d[s:e].

    Returns the first j with lo <= pivot j <= tol, or -1.
    """
    n = a.shape[0]
    if not (a.shape == (n, n) and d.shape == (n,) and 0 <= s < e <= n):
        raise ValueError("ldl_block: shapes or block out of range")
    return _lib.syminv_ldl_block(_ptr(a), n, s, e, _ptr(d, ndim=1), lo, tol)


def unit_lower_inverse(x):
    """Overwrite the square view *x* with the inverse of the unit lower-triangular matrix it holds.

    Only the strict lower triangle of *x* is read; row i of the inverse
    M is -x[i, :i] @ M[:i, :i], each entry summed in index order.
    Returns *x*.
    """
    p, ld = _rows(x, write=True)
    m = x.shape[0]
    if x.shape != (m, m):
        raise ValueError("unit_lower_inverse: the block is not square")
    if m:
        _lib.syminv_unit_lower_inverse(p, ld, m)
    return x


def gemm_update(c, a, b, trans_b=False) -> None:
    """c -= a @ b, or a @ b.T with *trans_b*, in place, by numpy's BLAS dgemm with beta = 1.

    Each view's row stride is its leading dimension.  Refuses arrays
    that are not float64 or whose columns are not adjacent, shapes that
    do not match, and a *c* that may share memory with *a* or *b*.
    """
    pc, ldc = _rows(c, write=True)
    pa, lda = _rows(a)
    pb, ldb = _rows(b)
    (m, n), k = c.shape, a.shape[1]
    if a.shape[0] != m or (b.T if trans_b else b).shape != (k, n):
        raise ValueError(f"gemm_update: shapes {c.shape}, {a.shape} and {b.shape} do not match")
    if np.may_share_memory(c, a) or np.may_share_memory(c, b):
        raise ValueError("gemm_update: c shares memory with a or b")
    if m and n and k:
        _dgemm(_ROW_MAJOR, _NO_TRANS, _TRANS if trans_b else _NO_TRANS, m, n, k,
               -1.0, pa, lda, pb, ldb, 1.0, pc, ldc)


def step(a, f, k, keep, tol, swaps) -> int:
    """Elimination step k on f's live rows against a; the pivot row, or -1.

    Row i is live when i >= k or keep[i].  *a* is only read, so it may
    be read-only; after a swap with row j the caller exchanges its rows
    k and j if it goes on.
    """
    pa, lda = _rows(a)
    pf, pk = _ptr(f), _ptr(keep, np.bool_, 1)
    n = keep.size
    if not (a.shape[0] == f.shape[0] == n and 0 <= k < min(n, a.shape[1], f.shape[1])):
        raise ValueError("step: shapes or step out of range")
    d = np.empty(n)
    return _lib.syminv_step(pa, lda, pf, f.shape[1], n, k, pk, _ptr(d, ndim=1), tol, swaps)


def panel(p, c, keep, tol) -> int:
    """A panel's steps without swaps, on c from the identity against p.

    Row k stops taking steps after its own unless keep[k].  Returns the
    step whose pivot was rejected, or the panel's width.
    """
    m = c.shape[0]
    if not (p.shape == c.shape == (m, m) and keep.shape == (m,) and m):
        raise ValueError("panel: shapes out of range")
    return _lib.syminv_panel(_ptr(p), _ptr(c), m, _ptr(keep, np.bool_, 1), tol)


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
