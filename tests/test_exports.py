"""The package's export list: every public name it imports, and its version.

And the package's error boundary over that list: every export that
takes a matrix lets only package errors escape on entries at the edge
of float64, whatever the caller's numpy mode.
"""

import pickle
import pydoc
import re
import types
import warnings

import numpy as np
import pytest

import syminv


def test_all_is_every_public_non_module_name():
    public = {name for name, value in vars(syminv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(syminv.__all__) == len(set(syminv.__all__)) == 58
    assert set(syminv.__all__) == public | {"__version__"}
    assert all(hasattr(syminv, name) for name in syminv.__all__)
    # No private name and no helper of the derivation is exported.
    assert [n for n in syminv.__all__ if n.startswith("_")] == ["__version__"]
    assert "ModuleType" not in syminv.__all__
    # help(syminv) documents the re-exports, which it does only through __all__.
    doc = pydoc.plain(pydoc.render_doc(syminv))
    for entry in ("invert_v2(a, counter=None)", "class OpCounter(", "class ZeroPivot("):
        assert re.search(rf"^ +{re.escape(entry)}", doc, re.M), entry


# Every export that takes no matrix: constants, errors, records of other
# values and the routines that take orders, families, paths or reports.
NO_MATRIX = {
    "DEFAULT_METHODS", "DEFAULT_SIZES", "FAMILY_KINDS", "METHODS", "METHOD_FUNCS",
    "TABLE_METHODS", "__version__",
    "DimensionMismatch", "GenerationFailed", "IndexOutOfRange", "InvalidArgument",
    "LinAlgError", "NotPositiveDefinite", "NotSymmetric", "SingularMatrix", "ZeroPivot",
    "InversionReport", "MatrixFamily", "OpCounter", "RequiredSet",
    "as_vector", "count_table", "emit_report", "generate", "q_theor", "run_experiment",
    "run_verification", "s_theor",
}


def _stepwise(a, counter):
    state = syminv.EliminationState.start(a)
    while state.step < a.shape[0]:
        state = syminv.eliminate_step(state, counter)
    return state


def _matrix_calls(tmp):
    """Each export that takes a matrix, as a call on (a, counter)."""
    s = syminv
    counted = ["cholesky_factor", "complete_lower", "eliminate", "invert", "invert_cholesky",
               "invert_km", "invert_ldl", "invert_symmetric_robust", "invert_v1",
               "invert_v1_parts", "invert_v2", "invert_v2_reference", "ldl_factor",
               "lower_stage"]
    calls = {name: lambda a, c, f=getattr(s, name): f(a, counter=c) for name in counted}
    paths = [tmp / "a.csv", tmp / "a.mtx"]

    def write(a, c):
        for path in paths:
            s.write_matrix(path, a)

    def read(a, c):
        write(a, c)
        return [s.read_matrix(path) for path in paths]

    calls.update({
        "CholFactor": lambda a, c: s.CholFactor(a),
        "LdlFactor": lambda a, c: s.LdlFactor(a, a.diagonal().copy()),
        "EliminationState": lambda a, c: s.EliminationState.start(a),
        "SymmetryCheck": lambda a, c: s.SymmetryCheck().passes(a),
        "as_matrix": lambda a, c: s.as_matrix(a),
        "eliminate_step": _stepwise,
        "frobenius_norm": lambda a, c: s.frobenius_norm(a),
        "inverse_residual": lambda a, c: s.inverse_residual(a, a),
        "lemma1_check": lambda a, c: s.lemma1_check(a, 0),
        "lemma2_check": lambda a, c: s.lemma2_check(a, 0),
        "mirror_lower": lambda a, c: s.mirror_lower(a),
        "norm2_estimate": lambda a, c: s.norm2_estimate(a),
        "read_matrix": read,
        "row_identities_check": lambda a, c: s.row_identities_check(a, a),
        "solve": lambda a, c: s.solve(a, np.ones(a.shape[0]), [1, a.shape[0]], counter=c),
        "write_matrix": write,
    })
    return calls


# An inverse that overflows, and entries whose squares and products do.
BOUNDARY = {"1e-310 I": 1e-310 * np.eye(4),
            "1e150 ones": np.full((2, 2), 1e150),
            "1e150 1+I": 1e150 * (1.0 + np.eye(3)),
            "1e200 1+I": 1e200 * (1.0 + np.eye(3))}
MODES = {"default": dict(divide="warn", over="warn", invalid="warn", under="ignore"),
         "raise": dict(all="raise")}


def _outcome(call, a):
    """call's result, or the package error it raised, with the counts; any other error escapes."""
    counter = syminv.OpCounter()
    try:
        got = pickle.dumps(call(a, counter))
    except syminv.LinAlgError as exc:
        got = type(exc), getattr(exc, "step", None)
    return got, counter.muldiv, counter.sqrt


def test_every_matrix_export_is_classified(tmp_path):
    calls = _matrix_calls(tmp_path)
    assert not set(calls) & NO_MATRIX
    assert set(calls) | NO_MATRIX == set(syminv.__all__)


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_only_package_errors_cross_the_boundary_in_every_mode(tmp_path, name):
    # Under warnings as errors, a numpy warning or FloatingPointError from
    # any export escapes as an error that is not a LinAlgError.
    a = BOUNDARY[name]
    for export, call in _matrix_calls(tmp_path).items():
        outcomes = {}
        for mode, settings in MODES.items():
            with warnings.catch_warnings(), np.errstate(**settings):
                warnings.simplefilter("error")
                outcomes[mode] = _outcome(call, a)
        assert outcomes["default"] == outcomes["raise"], export
