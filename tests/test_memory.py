"""Memory: no public entry point writes to its input, and the peak each method holds.

The LDL^T-form finish overwrites the array its factor was made in, and
the elimination copies A only when a swap has to exchange its rows, so
these pin both sides of that: the caller's array is never written, and
a call allocates no n x n array that it does not write.
"""

import tracemalloc

import numpy as np
import pytest

from syminv import (
    METHOD_FUNCS,
    LinAlgError,
    MatrixFamily,
    ZeroPivot,
    cholesky_factor,
    EliminationState,
    complete_lower,
    eliminate,
    eliminate_step,
    generate,
    invert,
    invert_v1_parts,
    invert_v2_reference,
    ldl_factor,
    lower_stage,
    mirror_lower,
    modgauss,
    solve,
)

ENTRY_POINTS = {
    **METHOD_FUNCS,
    "cholesky_factor": cholesky_factor,
    "ldl_factor": ldl_factor,
    "lower_stage": lower_stage,
    "complete_lower": complete_lower,
    "invert_v1_parts": invert_v1_parts,
    "invert_v2_reference": invert_v2_reference,
    "mirror_lower": mirror_lower,
    "eliminate": eliminate,
}

# The two families that need order 2 have a 1x1 stand-in: a negative
# pivot, which the positive-definite methods reject, and a zero one,
# which every method rejects.
_ORDER_ONE = {"diag_dominant": None, "non_dominant": [[-0.7]], "zero_leading_minor": [[0.0]]}


def _matrix(kind, n):
    if n == 1 and _ORDER_ONE[kind] is not None:
        return np.array(_ORDER_ONE[kind])
    return generate(MatrixFamily(kind, n, 7))


def _call(func, *args):
    """Call func; a package error is an outcome here, not a failure."""
    with np.errstate(all="ignore"):
        try:
            func(*args)
        except LinAlgError:
            pass


@pytest.mark.parametrize("kind", ["diag_dominant", "non_dominant", "zero_leading_minor"])
@pytest.mark.parametrize("n", [1, 65, 130])
def test_no_entry_point_writes_to_its_input(kind, n):
    # The lower triangle is what mirror_lower and complete_lower are given;
    # mirrored in place, the symmetric matrix would keep its bytes.
    full = _matrix(kind, n)
    for a in (full, np.tril(full)):
        before = a.tobytes()
        for name, func in ENTRY_POINTS.items():
            _call(func, a)
            assert a.tobytes() == before, name
        b = np.linspace(1.0, 2.0, n)
        b_before = b.tobytes()
        _call(solve, a, b, [n])
        assert a.tobytes() == before and b.tobytes() == b_before, "solve"


def _peak_n2(func, a):
    """Peak traced allocation of func(a), in units of n^2 doubles.

    Measured on a second call, so that one-time imports and caches of a
    first call are not counted.
    """
    func(a)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        func(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return peak / (8 * a.size)


# Limits in n^2 doubles at n = 1000.  v2, ldl, cholesky and km form the
# inverse in their factor's array (cholesky_factor scales the kernel's
# unit factor into L in place, and km divides L back into it), the
# finish scales one 64-column panel at a time, and the finiteness check
# holds one row block, so v2, ldl, cholesky and km may hold no more
# than 1.1894.  The
# elimination's rank-64 updates accumulate in place, and it copies A
# only once a swap is logged, so gauss and a swap-free solve (F and
# panel-sized temporaries) may hold no more than 1.2541 and 1.2622, and
# robust, whose fallback swaps at step 0, 2.2542.  v1 holds stage one's
# F while stage two completes a copy of it, which is mirrored in place:
# no more than 2.2613.  Each is given 0.0005 for the few hundred bytes
# of Python objects by which a traced peak varies between runs, and
# rounded up in the third decimal.
PEAK_LIMITS = {"v2": 1.19, "ldl": 1.19, "cholesky": 1.19, "km": 1.19,
               "v1": 2.262, "gauss": 1.255, "robust": 2.255}
SWAP_FREE_SOLVE_LIMIT = 1.263


@pytest.mark.parametrize("method", sorted(PEAK_LIMITS))
def test_peak_traced_allocation(method):
    kind = "zero_leading_minor" if method == "robust" else "diag_dominant"
    a = generate(MatrixFamily(kind, 1000, 7))
    assert _peak_n2(METHOD_FUNCS[method], a) <= PEAK_LIMITS[method]


# generate's draw is mirrored in place and its row sums take |a| one
# 64-row block at a time, so diag_dominant holds the draw and one block
# (1.0655 n^2 at n = 1000), and zero_leading_minor its own matrix besides
# the draw of its trailing block (2.0614), each with PEAK_LIMITS' slack.
GENERATE_PEAK_LIMITS = {"diag_dominant": 1.066, "zero_leading_minor": 2.062}


@pytest.mark.parametrize("kind", sorted(GENERATE_PEAK_LIMITS))
def test_generate_peak_traced_allocation(kind):
    family = MatrixFamily(kind, 1000, 7)
    peak = _peak_n2(lambda _: generate(family), np.empty((1000, 1000)))
    assert peak <= GENERATE_PEAK_LIMITS[kind]


def test_a_swap_free_solve_copies_no_a():
    n = 1000
    a = generate(MatrixFamily("diag_dominant", n, 7))
    b = np.linspace(1.0, 2.0, n)
    assert _peak_n2(lambda x: solve(x, b, [n]), a) <= SWAP_FREE_SOLVE_LIMIT


def test_a_first_swap_mid_run_leaves_a_read_only_input_alone(monkeypatch):
    # The pivot of step 65, in the second panel, is zeroed, so the
    # elimination copies A at that step, its first swap; the input is
    # read-only, so any write to it would raise.
    n, k = 130, 65
    a = generate(MatrixFamily("diag_dominant", n, 7))
    a[k, k] = a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k])
    a.setflags(write=False)
    before = a.tobytes()
    with pytest.raises(ZeroPivot, match=f"step {k}$"):
        eliminate(a, allow_swaps=False)
    logged = []
    real_run_step = modgauss._run_step

    def run_step(*args):
        j = real_run_step(*args)
        logged.append(list(args[-1]))  # the swaps the run has logged
        return j

    monkeypatch.setattr(modgauss, "_run_step", run_step)
    inv = invert(a)
    x = solve(a, np.ones(n), [n])
    f = eliminate(a, [k + 1, n])
    assert len(logged) == 3 and all(len(s) == 1 and s[0][0] == k for s in logged)
    assert a.tobytes() == before and not a.flags.writeable
    assert np.abs(inv @ a - np.eye(n)).max() <= 1e-10
    assert x[n] == pytest.approx(inv[n - 1].sum(), abs=1e-12)
    np.testing.assert_allclose(f[[k, n - 1]], inv[[k, n - 1]], rtol=0, atol=1e-12)


def test_a_swap_free_step_copies_only_f():
    # The step only reads A, so with no swap logged it allocates the new
    # state's F and the step's scratch, 1.0054 n^2 doubles at n = 300, and
    # no copy of A.
    a = generate(MatrixFamily("diag_dominant", 300, 7))
    state = EliminationState.start(a)
    for _ in range(150):
        state = eliminate_step(state)
    assert state.perm == ()
    assert _peak_n2(lambda _: eliminate_step(state), a) <= 1.02


def test_a_step_after_a_swap_copies_only_f():
    # The state carries A with its logged swaps applied, so a later step
    # neither copies A nor replays the log on it: 1.0125 n^2 doubles at
    # n = 300, from the swap at step 0 on.
    a = generate(MatrixFamily("zero_leading_minor", 300, 7))
    state = EliminationState.start(a)
    for _ in range(150):
        state = eliminate_step(state)
    assert state.perm[0][0] == 0
    assert _peak_n2(lambda _: eliminate_step(state), a) <= 1.02
