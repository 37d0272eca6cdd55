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
