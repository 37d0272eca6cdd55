"""The compiled loops: their build, their cache and the arrays they are given.

The cache tests import the package in a child process whose TMPDIR is
the test's own directory, so each starts from a cache of its own.
"""

import os
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import syminv
from syminv import (
    FAMILY_KINDS,
    METHOD_FUNCS,
    EliminationState,
    LinAlgError,
    MatrixFamily,
    RequiredSet,
    eliminate,
    eliminate_step,
    generate,
    lower_stage,
    solve,
)
from syminv import _loops

SRC = os.path.dirname(os.path.dirname(os.path.abspath(syminv.__file__)))
CC = sysconfig.get_config_var("CC").split()


def test_the_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run([*CC, *_loops._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "loops.so"), _loops._SOURCE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _import(tmp_path, **env):
    environ = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-c", "import syminv"], env=environ,
                          capture_output=True, text=True, timeout=120)


def _cache(tmp_path):
    return tmp_path / f"syminv-{os.getuid()}"


def test_a_cold_import_builds_one_file_and_a_warm_one_needs_no_compiler(tmp_path):
    proc = _import(tmp_path)
    assert proc.returncode == 0, proc.stderr
    cache = _cache(tmp_path)
    assert cache.stat().st_mode & 0o777 == 0o700
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("loops-")
    stamp = built[0].stat().st_mtime_ns
    no_compiler = tmp_path / "bin"
    no_compiler.mkdir()
    proc = _import(tmp_path, PATH=str(no_compiler))
    assert proc.returncode == 0, proc.stderr
    assert list(cache.iterdir()) == built and built[0].stat().st_mtime_ns == stamp


@pytest.mark.parametrize("mode", [0o720, 0o702], ids=["group-writable", "world-writable"])
def test_a_cache_others_can_write_is_refused(tmp_path, mode):
    cache = _cache(tmp_path)
    cache.mkdir()
    cache.chmod(mode)
    proc = _import(tmp_path)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr and "writable by no one else" in proc.stderr


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a directory to another user needs root")
def test_a_cache_another_user_owns_is_refused(tmp_path):
    cache = _cache(tmp_path)
    cache.mkdir(mode=0o700)
    os.chown(cache, os.getuid() + 1, -1)
    proc = _import(tmp_path)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr and f"owned by uid {os.getuid()}" in proc.stderr


def test_a_cold_cache_without_the_compiler_names_it(tmp_path):
    no_compiler = tmp_path / "bin"
    no_compiler.mkdir()
    proc = _import(tmp_path, PATH=str(no_compiler))
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr and f"C compiler {CC[0]!r}" in proc.stderr
    assert list(_cache(tmp_path).iterdir()) == []


def _layouts(a):
    """*a* and three arrays of its values that are not C-contiguous."""
    strided = np.zeros((2 * a.shape[0], 2 * a.shape[1]))[::2, ::2]
    strided[:] = a
    return {"C": a, "Fortran": np.asfortranarray(a), "transposed": a.T.copy().T,
            "strided": strided}


def _outcome(func, *args):
    """The bytes of func's result, or the package error it raised."""
    try:
        out = func(*args)
    except LinAlgError as exc:
        return type(exc), getattr(exc, "step", None)
    if isinstance(out, EliminationState):
        out = out.f
    return out.tobytes() if isinstance(out, np.ndarray) else out


def _steps(a, f):
    state = EliminationState(a=a, f=f, step=0, required=RequiredSet.full(a.shape[0]), perm=())
    for _ in range(3):
        state = eliminate_step(state)
    return state


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_every_layout_gives_the_bytes_of_c_order(kind):
    n = 130  # three elimination panels and three kernel blocks
    a = generate(MatrixFamily(kind, n, 7))
    b = np.linspace(1.0, 2.0, n)
    calls = {**METHOD_FUNCS, "lower_stage": lower_stage, "eliminate": eliminate,
             "eliminate_no_swaps": lambda x: eliminate(x, [n], allow_swaps=False),
             "solve": lambda x: solve(x, b, [1, n])}
    identities = _layouts(np.eye(n))
    want = None
    for layout, x in _layouts(a).items():
        got = {name: _outcome(func, x) for name, func in calls.items()}
        got["eliminate_step"] = _outcome(_steps, x, identities[layout])
        if want is None:
            want = got
        assert got == want, layout


def _elimination_and_kernel_shapes(n=1000, block=64):
    """(c, a, b, trans_b) of every rank-64 update the blocked drivers make at order n.

    c is a view into an n x n array, as in the drivers: the elimination's
    rows above and below each panel, and the kernel's trailing blocks.
    """
    rng = np.random.default_rng(25)
    f = rng.standard_normal((n, n))
    for s in range(0, n, block):
        e = min(s + block, n)
        w = f[s:e, :e]
        d = rng.standard_normal((n, e - s))
        yield f[:s, :e], d[:s], w, False
        yield f[e:, :e], d[e:], w, False
        l21, w21 = rng.standard_normal((2, n - e, e - s))
        for c in range(0, n - e, block):
            yield f[e + c:, e + c:e + c + block], l21[c:], w21[c:c + block], True


def test_gemm_update_is_bitwise_the_numpy_update():
    for c, a, b, trans_b in _elimination_and_kernel_shapes():
        want = c - a @ (b.T if trans_b else b)
        got = c.copy()
        _loops.gemm_update(got, a, b, trans_b=trans_b)
        assert got.tobytes() == want.tobytes(), (c.shape, trans_b)
        _loops.gemm_update(c, a, b, trans_b=trans_b)  # a view, in place
        assert c.tobytes() == want.tobytes(), (c.shape, trans_b)


def _bad_updates():
    c, a, b = np.zeros((4, 6)), np.ones((4, 3)), np.ones((3, 6))
    big = np.zeros((8, 8))
    yield "float32 c", c.astype(np.float32), a, b, TypeError
    yield "integer a", c, a.astype(np.int64), b, TypeError
    yield "c column stride 2", np.zeros((4, 12))[:, ::2], a, b, TypeError
    yield "Fortran-ordered a", c, np.asfortranarray(a), b, TypeError
    yield "b column stride 2", c, a, np.ones((3, 12))[:, ::2], TypeError
    yield "read-only c", np.broadcast_to(c, c.shape), a, b, TypeError
    yield "a rows differ", c, np.ones((5, 3)), b, ValueError
    yield "inner sizes differ", c, a, np.ones((4, 6)), ValueError
    yield "b columns differ", c, a, np.ones((3, 5)), ValueError
    yield "c shares memory with a", big[:4, :6], big[2:6, :3], b, ValueError
    yield "c shares memory with b", big[:4, 2:8], a, big[1:4, :6], ValueError


@pytest.mark.parametrize("what, c, a, b, error", list(_bad_updates()),
                         ids=[case[0] for case in _bad_updates()])
def test_gemm_update_refuses(what, c, a, b, error):
    before = c.copy()
    with pytest.raises(error):
        _loops.gemm_update(c, a, b)
    assert np.array_equal(c, before)


def test_gemm_update_takes_the_transposed_shape():
    c, a, bt = np.zeros((4, 6)), np.ones((4, 3)), np.ones((6, 3))
    _loops.gemm_update(c, a, bt, trans_b=True)
    assert (c == -3.0).all()
    with pytest.raises(ValueError):
        _loops.gemm_update(c, a, bt)


def test_the_compiled_block_inverse_is_exact_on_small_integers():
    m = 64
    rng = np.random.default_rng(25)
    lower = np.tril(rng.integers(-1, 2, (m, m)), -1)
    # The exact inverse, in Python integers: row i is -L[i, :i] M[:i, :i].
    exact = [[0] * m for _ in range(m)]
    for i in range(m):
        exact[i][i] = 1
        for j in range(i):
            exact[i][j] = -sum(int(lower[i, t]) * exact[t][j] for t in range(j, i))
    assert max(abs(v) for row in exact for v in row) < 2**53  # every float64 sum exact
    x = np.zeros((m, m + 5))[:, 2:m + 2]  # a view whose rows are longer than m
    x[:] = lower
    x[np.triu_indices(m)] = 7.0  # not read: the diagonal and above are written
    assert _loops.unit_lower_inverse(x) is x
    assert np.array_equal(x, np.array(exact, dtype=float))


def test_a_blas_without_the_dgemm_symbol_names_it(monkeypatch):
    monkeypatch.setattr(_loops, "_DGEMM", "no_such_dgemm64_")
    with pytest.raises(ImportError, match="no_such_dgemm64_"):
        _loops._load_dgemm()


def _refused_calls():
    """(what, call, error) for each refusal of the wrappers' checks.

    Each is made before a pointer is passed.
    """
    L, eye, keep, d3 = _loops, np.eye(4), np.ones(4, dtype=bool), np.ones(3)
    frozen = np.eye(4)
    frozen.flags.writeable = False
    # The range checks.
    yield "ldl_block: 3 x 4 a", lambda: L.ldl_block(np.eye(3, 4), 0, 3, d3, 0, 0), ValueError
    yield "ldl_block: d too short", lambda: L.ldl_block(eye, 0, 4, d3, 0, 0), ValueError
    yield "ldl_block: empty block", lambda: L.ldl_block(eye, 2, 2, np.ones(4), 0, 0), ValueError
    yield "ldl_block: block past n", lambda: L.ldl_block(eye, 0, 5, np.ones(4), 0, 0), ValueError
    yield "unit_lower_inverse: not square", lambda: L.unit_lower_inverse(np.eye(4)[:3]), ValueError
    yield "step: short keep", lambda: L.step(eye, np.eye(4), 0, keep[:3], 0, 1), ValueError
    yield "step: f of other height", lambda: L.step(eye, np.eye(5, 4), 0, keep, 0, 1), ValueError
    yield "step: negative step", lambda: L.step(eye, np.eye(4), -1, keep, 0, 1), ValueError
    yield "step: step past n", lambda: L.step(eye, np.eye(4), 4, keep, 0, 1), ValueError
    yield "step: a too narrow", lambda: L.step(eye[:, :2], np.eye(4), 2, keep, 0, 1), ValueError
    yield "step: f too narrow", lambda: L.step(eye, np.eye(4, 2), 2, keep, 0, 1), ValueError
    yield "panel: p of other shape", lambda: L.panel(np.eye(3), np.eye(4), keep, 0), ValueError
    yield "panel: keep of other length", lambda: L.panel(eye, np.eye(4), keep[:3], 0), ValueError
    yield "panel: empty", lambda: L.panel(np.eye(0), np.eye(0), keep[:0], 0), ValueError
    yield "parse_csv: text not bytes", lambda: L.parse_csv("1,2", 3, np.empty(2), 2), ValueError
    yield "parse_csv: end past text", lambda: L.parse_csv(b"1,2", 4, np.empty(2), 2), ValueError
    yield "parse_csv: negative end", lambda: L.parse_csv(b"1,2", -1, np.empty(2), 2), ValueError
    yield "parse_csv: zero width", lambda: L.parse_csv(b"1,2", 3, np.empty(2), 0), ValueError
    # _ptr: a writeable C-contiguous array of the dtype and axes the C code takes.
    yield "step: integer keep", lambda: L.step(eye, np.eye(4), 0, keep.view("u1"), 0, 1), TypeError
    yield "step: keep as a list", lambda: L.step(eye, np.eye(4), 0, [True] * 4, 0, 1), TypeError
    yield "step: Fortran-ordered f", lambda: L.step(eye, np.eye(4, 5).T, 0, keep, 0, 1), TypeError
    yield "panel: read-only c", lambda: L.panel(eye, frozen, keep, 0), TypeError
    yield "ldl_block: integer d", lambda: L.ldl_block(eye, 0, 4, np.ones(4, int), 0, 0), TypeError
    yield "parse_csv: 2-axis out", lambda: L.parse_csv(b"1,2", 3, np.empty((1, 2)), 2), TypeError
    # _rows: an aligned float64 matrix with adjacent columns, writeable if written.
    yield "step: float32 a", lambda: L.step(eye.astype("f4"), np.eye(4), 0, keep, 0, 1), TypeError
    yield "step: strided a", lambda: L.step(np.eye(4, 8)[:, ::2], eye, 0, keep, 0, 1), TypeError
    yield "step: a as a list", lambda: L.step(eye.tolist(), np.eye(4), 0, keep, 0, 1), TypeError
    yield "unit_lower_inverse: read-only", lambda: L.unit_lower_inverse(frozen), TypeError


@pytest.mark.parametrize("what, call, error", list(_refused_calls()),
                         ids=[case[0] for case in _refused_calls()])
def test_the_wrappers_refuse_what_the_c_code_would_misindex(what, call, error):
    with pytest.raises(error):
        call()


def test_step_leaves_a_alone_and_takes_it_read_only():
    a = generate(MatrixFamily("zero_leading_minor", 6, 7))  # step 0 swaps
    keep = np.zeros(6, dtype=bool)
    keep[1] = True
    want_f, work = np.eye(6), a.copy()
    want = [_loops.step(work, want_f, k, keep, 0.0, 1) for k in range(6)]
    assert want[0] != 0 and work.tobytes() == a.tobytes()
    work.flags.writeable = False
    f = np.eye(6)
    assert [_loops.step(work, f, k, keep, 0.0, 1) for k in range(6)] == want
    assert f.tobytes() == want_f.tobytes()
