"""Matrix file I/O: CSV and Matrix Market round-trips."""

import io
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syminv import (
    InvalidArgument,
    LinAlgError,
    _loops,
    genbench,
    invert_v2,
    mmio,
    read_matrix,
    write_matrix,
)
from syminv.cli import _print_matrix, main
from syminv.genbench import MatrixFamily, generate
from syminv.mmio import csv_lines, read_csv_matrix, write_csv_matrix


def _sample(rng, n=5):
    return rng.uniform(-1, 1, (n, n))


def test_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(19)
    a = _sample(rng)
    path = tmp_path / "m.csv"
    write_matrix(str(path), a)
    back = read_matrix(str(path))
    np.testing.assert_array_equal(back, a)  # repr is the shortest exact round trip


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    a = _sample(rng)
    path = tmp_path / "m.mtx"
    write_matrix(str(path), a)
    back = read_matrix(str(path))
    np.testing.assert_allclose(back, a, rtol=0, atol=1e-15)


def test_csv_explicit_helpers(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 1e-300]])
    path = tmp_path / "x.csv"
    write_csv_matrix(str(path), a)
    np.testing.assert_array_equal(read_csv_matrix(str(path)), a)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(InvalidArgument):
        read_matrix(str(path))


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nx,4\n")
    with pytest.raises(InvalidArgument):
        read_matrix(str(path))


def test_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InvalidArgument):
        read_matrix(str(path))


@pytest.mark.parametrize("text", [
    '"1.5","-2"\n"-2",4\n',   # quoted cells
    "\n1.5,-2\n\n-2,4\n\n",     # blank lines
    "1.5,-2\r\n-2,4\r\n",        # CRLF line ends
    " 1.5 ,\t-2\n-2 , 4 \n",      # whitespace around cells
])
def test_csv_reader_accepts_common_dialects(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    np.testing.assert_array_equal(read_csv_matrix(str(path)),
                                  [[1.5, -2.0], [-2.0, 4.0]])


def test_csv_reader_one_by_one(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("7.25\n")
    back = read_csv_matrix(str(path))
    assert back.shape == (1, 1) and back[0, 0] == 7.25


@pytest.mark.parametrize("text", ["", "\n \n\t\n"])
def test_csv_no_rows_raises_without_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="no matrix rows found"):
            read_csv_matrix(str(path))


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,2\nx,4\n", "1_0,2\n2,4\n"])
def test_csv_bad_input_names_the_path(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidArgument) as err:
        read_csv_matrix(str(path))
    assert str(path) in str(err.value)


def _spelled(v):
    """The CSV spelling of *v*: repr's shortest digits, re-spelled by Ryu's rules.

    Fixed notation for 1e-5 <= |v| < 1e16 (with ``.0`` on integers),
    otherwise ``d.ddde<exp>`` with no ``+`` sign and no zero padding.
    """
    sign, digits, exp = Decimal(repr(v)).normalize().as_tuple()
    sign, digits = "-" * sign, "".join(map(str, digits))
    point = len(digits) + exp  # digits times 10**exp is 0.<digits> times 10**point
    if digits == "0":
        return sign + "0.0"
    if exp >= 0 and point <= 16:
        return sign + digits + "0" * exp + ".0"
    if 0 < point <= 16:
        return sign + digits[:point] + "." + digits[point:]
    if -5 < point <= 0:
        return sign + "0." + "0" * -point + digits
    mantissa = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{sign}{mantissa}e{point - 1}"


def _naive_csv(a):
    return "".join(",".join(map(_spelled, row)) + "\n" for row in a.tolist())


def _assert_same_text(got, want):
    """Exact byte equality, reporting the first differing cell instead of a diff."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            for j, (gc, wc) in enumerate(zip(g.split(","), w.split(","))):
                if gc != wc:
                    pytest.fail(f"row {i} cell {j}: {gc!r} != {wc!r}")
            pytest.fail(f"row {i}: {len(g.split(','))} cells, expected {len(w.split(','))}")
    pytest.fail(f"{len(got_lines)} lines, expected {len(want_lines)}")


def _bitwise_symmetric(a):
    bits = a.view(np.int64)
    return np.array_equal(bits, bits.T)


@pytest.mark.parametrize("method,n", [("v2", 1), ("v2", 2), ("v2", 65),
                                      ("v2", 200), ("gauss", 65)])
def test_csv_round_trip_of_inverse_is_bitwise(tmp_path, method, n):
    inv = genbench.METHOD_FUNCS[method](generate(MatrixFamily("diag_dominant", n, 5)))
    # Cover a bitwise symmetric inverse (v2) and one that is not (gauss).
    assert _bitwise_symmetric(inv) == (method == "v2")
    path = tmp_path / "inv.csv"
    write_csv_matrix(str(path), inv)
    back = read_csv_matrix(str(path))
    np.testing.assert_array_equal(back.view(np.int64), inv.view(np.int64))
    _assert_same_text(path.read_text(), _naive_csv(inv))


def test_csv_keeps_signed_zeros(tmp_path, monkeypatch):
    a = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert "".join(csv_lines(a)) == "1.0,0.0\n-0.0,1.0\n"
    path = tmp_path / "z.csv"
    write_csv_matrix(str(path), a)
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)  # -0.0 keeps its sign on the compiled path
    back = read_csv_matrix(str(path))
    np.testing.assert_array_equal(np.signbit(back), np.signbit(a))


@pytest.mark.parametrize("symmetric", [True, False])
def test_csv_lines_matches_naive_text(symmetric):
    rng = np.random.default_rng(23)
    a = rng.uniform(-1e3, 1e3, (17, 17)) * 10.0 ** rng.integers(-20, 20, (17, 17))
    if symmetric:
        a = np.tril(a) + np.tril(a, -1).T
    assert _bitwise_symmetric(a) == symmetric
    _assert_same_text("".join(csv_lines(a)), _naive_csv(a))


@pytest.mark.parametrize("value,text", [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (1e-05, "0.00001"),
    (-1e-05, "-0.00001"),
    (1.5e-05, "0.000015"),
    (9.99999e-06, "9.99999e-6"),
    (1e-07, "1e-7"),
    (123.456, "123.456"),
    (1e15, "1000000000000000.0"),
    (9999999999999998.0, "9999999999999998.0"),
    (1e16, "1e16"),
    (1.5e16, "1.5e16"),
    (5e-324, "5e-324"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1.7976931348623157e308, "1.7976931348623157e308"),
])
def test_csv_spelling_of_each_class(value, text):
    assert _spelled(value) == text
    assert "".join(csv_lines(np.array([[value]]))) == text + "\n"


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
@pytest.mark.parametrize("layout", ["symmetric", "transposed"])
def test_csv_blocks_join_at_every_row_count(tmp_path, monkeypatch, n, layout):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-30, 30, (n, n))
    if layout == "symmetric":
        a = np.tril(a) + np.tril(a, -1).T
        assert _bitwise_symmetric(a)
    else:
        a = a.T  # a strided view, not C-contiguous once n > 1
        assert a.flags.c_contiguous == (n == 1)
    path = tmp_path / "m.csv"
    write_csv_matrix(str(path), a)
    text = path.read_text()
    _assert_same_text(text, _naive_csv(a))
    assert "".join(csv_lines(a)) == text
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)  # the writer's files take the compiled path
    back = read_csv_matrix(str(path))
    np.testing.assert_array_equal(back.view(np.int64), a.view(np.int64))


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt was called")


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=60, deadline=None, database=None)
@example(np.array([[-0.0, 5e-324], [-2.2250738585072014e-308, 0.0]]))
@given(st.integers(1, 6).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=_finite)))
def test_csv_text_and_round_trip_property(a):
    text = "".join(csv_lines(a))
    _assert_same_text(text, _naive_csv(a))
    back = np.array([[float(c) for c in row.split(",")] for row in text.splitlines()])
    np.testing.assert_array_equal(back.view(np.int64), a.view(np.int64))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_never_reaches_the_text(tmp_path, bad):
    a = np.array([[bad]])
    with pytest.raises(InvalidArgument):
        "".join(csv_lines(a))
    path = tmp_path / "bad.csv"
    with pytest.raises(InvalidArgument):
        write_csv_matrix(str(path), a)
    assert not path.exists()
    stream = io.StringIO()
    with pytest.raises(InvalidArgument):
        _print_matrix(stream, a)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_refused_write_leaves_an_existing_file_alone(tmp_path, bad):
    path = tmp_path / "out.csv"
    write_csv_matrix(str(path), np.eye(3))
    before = path.read_bytes()
    a = np.eye(3)
    a[2, 1] = bad
    with pytest.raises(InvalidArgument):
        csv_lines(a)  # checked when called, before any row is made
    with pytest.raises(InvalidArgument):
        write_csv_matrix(str(path), a)
    assert path.read_bytes() == before


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(InvalidArgument):
        write_matrix(str(path), np.eye(2))
    with pytest.raises(InvalidArgument):
        read_matrix(str(path))


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(str(tmp_path / "nope.csv"))


@pytest.mark.parametrize("text", [
    "\n1.5,-2\n\n-2,4\n\n",     # empty lines, which loadtxt skips too
    " 1.5 ,\t-2\n-2 , 4 \n",      # whitespace around cells
])
def test_plain_csv_dialects_stay_on_the_orjson_path(tmp_path, monkeypatch, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    np.testing.assert_array_equal(read_csv_matrix(str(path)), [[1.5, -2.0], [-2.0, 4.0]])


@pytest.mark.parametrize("text", [
    '"1.5"\n',             # a byte outside the plain set
    "1.5\r\n",             # CR
    "1,2\n \n3,4\n",       # a whitespace-only line
    "1,2\n3\n",            # ragged rows
    "+1\n", ".5\n", "1.\n", "01\n", "1e400\n",  # not JSON numbers
])
def test_non_plain_csv_goes_to_loadtxt(tmp_path, monkeypatch, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    with pytest.raises(AssertionError, match="np.loadtxt was called"):
        read_csv_matrix(str(path))


_FIFO_READER = """
import sys, threading
from syminv.mmio import read_csv_matrix
def feed():
    with open(sys.argv[1], "wb") as fh:
        fh.write(sys.argv[2].encode())
threading.Thread(target=feed).start()
print(read_csv_matrix(sys.argv[1]).tolist())
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("text", ["1.5,-2\r\n-2,4\r\n", "1.5,-2\n-2,4\n"], ids=["CRLF", "LF"])
def test_a_fifo_is_read_once(tmp_path, text):
    # A FIFO yields its text once: one the compiled path refuses (CRLF)
    # must reach loadtxt without the reader opening the path again.
    path = tmp_path / "m.csv"
    os.mkfifo(path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mmio.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FIFO_READER, str(path), text],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[1.5, -2.0], [-2.0, 4.0]]"


@pytest.mark.parametrize("text", [
    # the integer -0 before LF, comma, space, tab and the end of the file
    "-0\n", "-0,1\n1,1\n", "1,-0 \n1,1\n", "1,-0\t\n1,1\n", "1,1\n1,-0",
])
def test_integer_minus_zero_reads_as_minus_zero(tmp_path, monkeypatch, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    want = mmio._read_csv_loadtxt(str(path))
    assert np.signbit(want).sum() == 1
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    got = read_csv_matrix(str(path))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _cell_spellings(v):
    return st.sampled_from([repr(v), "%.17g" % v, "%.3e" % v])


_nonzero_cells = st.one_of(
    _finite.filter(bool).flatmap(_cell_spellings),
    st.integers(2**53, 2**70).map(str),
    st.integers(-2**70, -2**53).map(str),
    st.just("1E+05"),
)
_zero_cells = st.sampled_from(["-0", "0", "-0.0", "0.0", "-1e-400", "0e5"])
_odd_cells = st.one_of(
    st.sampled_from(["+1", ".5", "1.", "01", "1e400", "true", "null", "1_0"]),
    _nonzero_cells.map(lambda c: f'"{c}"'),
)


@st.composite
def _csv_dialect_text(draw):
    """The text of a CSV file of n*n cells, from plain to every dialect at once.

    Each departure from a plain file is on in about one file of four, so
    many files take the compiled path and the rest cover each reason to fall
    back, alone and combined.
    """
    def departs():
        return draw(st.integers(0, 3)) == 0

    n = draw(st.integers(1, 4))
    cell = st.one_of(_nonzero_cells, *[c for c in (_zero_cells, _odd_cells) if departs()])
    pad = st.sampled_from(["", " ", "\t", " \t"]) if departs() else st.just("")
    cells = [draw(pad) + draw(cell) + draw(pad) for _ in range(n * n)]
    cuts = list(range(n, n * n, n))
    if n > 1 and departs():  # ragged rows whose lengths still sum to n*n
        cuts = sorted(draw(st.sets(st.integers(1, n * n - 1))))
    rows = [",".join(cells[i:j]) for i, j in zip([0] + cuts, cuts + [n * n])]
    if departs():  # blank and whitespace-only lines
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " ", "\t"])))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if departs() else st.just("\n")
    text = "".join(row + draw(ends) for row in rows)
    return text.rstrip("\r\n") if departs() else text


def _outcome(read, path):
    """The matrix's bits, or the error's type and message."""
    try:
        return read(path).view(np.int64).tolist()
    except LinAlgError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None)
@example("5.0\r\t")
@example("-0,1\n1,-0\n")
@example("0,-0.0\n-1e-400,-0e5\n")
@example("18446744073709551617,1\n1,2\n")
@given(_csv_dialect_text())
def test_csv_reader_equals_loadtxt_route_property(tmp_path_factory, text):
    # The same matrix bit for bit, or the same error: a parse error is an
    # InvalidArgument naming the path on both routes.
    path = str(tmp_path_factory.getbasetemp() / "dialect.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode("ascii"))
    assert _outcome(read_csv_matrix, path) == _outcome(mmio._read_csv_loadtxt, path)


def _parsed_bits(cells):
    """The bits the compiled parser gives *cells* read as one CSV row."""
    text = (",".join(cells) + "\n").encode()
    out = np.empty(len(cells))
    assert _loops.parse_csv(text, len(text), out, len(cells)) == len(cells)
    return out.view(np.int64).tolist()


def _float_bits(cells):
    return np.array([float(c) for c in cells]).view(np.int64).tolist()


_decimal_strings = st.builds(
    lambda neg, digits, point, exp: ("-" if neg else "")
    + (digits[:point] or "0") + ("." + digits[point:] if digits[point:] else "") + exp,
    st.booleans(),
    st.integers(10 ** 15, 10 ** 20 - 1).map(str),
    st.integers(0, 20),
    st.sampled_from(["", "e0"]) | st.integers(-345, 285).map(lambda e: f"e{e}"),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists((_finite.flatmap(_cell_spellings) | _decimal_strings)
                .filter(lambda c: math.isfinite(float(c))),  # %.3e of 1.7977e308 overflows
                min_size=1, max_size=8))
def test_compiled_parser_is_correctly_rounded_property(cells):
    assert _parsed_bits(cells) == _float_bits(cells)


@pytest.mark.parametrize("cell", [
    "9007199254740993",       # 2^53 + 1: a tie, to even
    "1.00000000000000011102230246251565404236316680908203125",  # 1 + 2^-53 exactly
    "1.000000000000000112",   # rounds to a midpoint in long double, then up
    "2.2250738585072011e-308",  # just below the least normal
    "4.9406564584124654e-324",  # the least subnormal
    "1.7976931348623157e308",   # the greatest finite
    "18446744073709551617",     # 2^64 + 1: past the 64-bit significand
    "-0", "0e5", "-1e-400", "0.000001e6",
])
def test_compiled_parser_hard_cases(cell):
    assert _parsed_bits([cell]) == _float_bits([cell])


@pytest.mark.parametrize("text,width,size", [
    ("1e400\n", 1, 1),       # overflows
    ("1,2\n3,4,\n", 2, 4),   # an empty cell
    ("1,2,3\n", 2, 4),       # a row wider than the first
    ("1\r\n", 1, 1), ('"1"\n', 1, 1), (" \n", 1, 1),
    ("1,2\n3,4\n", 2, 3),    # more values than the output holds
])
def test_compiled_parser_refuses(text, width, size):
    assert _loops.parse_csv(text.encode(), len(text), np.empty(size), width) == -1


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("late", ["", "quoted", "ragged"])
def test_csv_reader_at_every_block_cut(tmp_path, monkeypatch, block, late):
    # Blocks shorter than a line, cut anywhere, and a refusal in the last row.
    a = np.random.default_rng(block).standard_normal((9, 9))
    lines = "".join(csv_lines(a)).splitlines(keepends=True)
    if late == "quoted":
        first, _, rest = lines[-1].partition(",")
        lines[-1] = f'"{first}",{rest}'
    elif late == "ragged":
        lines.append("1\n")
    path = tmp_path / "m.csv"
    path.write_text("".join(lines))
    want = _outcome(mmio._read_csv_loadtxt, str(path))
    monkeypatch.setattr(mmio, "_BLOCK", block)
    if not late:  # a plain file stays on the compiled path
        assert want == a.view(np.int64).tolist()
        monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    assert _outcome(read_csv_matrix, str(path)) == want


def test_coordinate_symmetric_matrix_market_expands_to_dense(tmp_path, capsys):
    # Only the lower triangle is stored; (3, 1) is an implicit zero.
    path = tmp_path / "a.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a hand-written 3x3\n"
        "3 3 5\n"
        "1 1 4.0\n"
        "2 1 1.0\n"
        "2 2 3.0\n"
        "3 2 -0.5\n"
        "3 3 2.0\n"
    )
    want = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -0.5], [0.0, -0.5, 2.0]])
    got = read_matrix(str(path))
    assert got.dtype == np.float64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)

    dest = tmp_path / "inv.csv"
    assert main(["invert", "--method", "v2", "--input", str(path),
                 "--output", str(dest), "--count"]) == 0
    assert capsys.readouterr().out == "muldiv=18 sqrt=0\n"  # (n^3 + n^2)/2
    np.testing.assert_array_equal(read_matrix(str(dest)), invert_v2(want))


_BANNER = "%%MatrixMarket matrix array real general\n"
MALFORMED_MTX = {
    "no-banner": "1 2\n3 4\n",
    "bad-value": _BANNER + "2 2\n1\n2\nabc\n4\n",
    "truncated": _BANNER + "2 2\n1\n2\n",
    "too-many-values": _BANNER + "2 2\n1\n2\n3\n4\n5\n",
    "row-out-of-bounds": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
}


@pytest.mark.parametrize("text", MALFORMED_MTX.values(), ids=MALFORMED_MTX.keys())
def test_malformed_matrix_market_file_is_a_package_error(tmp_path, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(InvalidArgument, match=f"^{re.escape(str(path))}: "):
        read_matrix(str(path))


@pytest.mark.parametrize("at", [0, 128], ids=["leading", "after-128-rows"])
def test_csv_block_of_128_blank_lines(tmp_path, monkeypatch, at):
    # A run of 128 empty lines is skipped, as loadtxt skips them.
    n = 130
    a = np.random.default_rng(at).uniform(-1, 1, (n, n))
    lines = "".join(csv_lines(a)).splitlines(keepends=True)
    path = tmp_path / "blank.csv"
    path.write_text("".join(lines[:at] + ["\n"] * 128 + lines[at:]))
    want = mmio._read_csv_loadtxt(str(path))
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)  # the file stays on the compiled path
    got = read_csv_matrix(str(path))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(got, a)
