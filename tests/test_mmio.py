"""Matrix file I/O: CSV and Matrix Market round-trips."""

import warnings

import numpy as np
import pytest

from syminv import InvalidArgument, genbench, read_matrix, write_matrix
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


def _naive_csv(a):
    return "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())


def _bitwise_symmetric(a):
    bits = a.view(np.int64)
    return np.array_equal(bits, bits.T)


@pytest.mark.parametrize("method,n", [("v2", 1), ("v2", 2), ("v2", 65),
                                      ("v2", 200), ("gauss", 65)])
def test_csv_round_trip_of_inverse_is_bitwise(tmp_path, method, n):
    inv = genbench.METHOD_FUNCS[method](generate(MatrixFamily("diag_dominant", n, 5)))
    # v2 output takes the mirrored-string path, gauss output the general one.
    assert _bitwise_symmetric(inv) == (method == "v2")
    path = tmp_path / "inv.csv"
    write_csv_matrix(str(path), inv)
    back = read_csv_matrix(str(path))
    np.testing.assert_array_equal(back.view(np.int64), inv.view(np.int64))
    assert path.read_text() == _naive_csv(inv)


def test_csv_keeps_signed_zeros(tmp_path):
    a = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert "".join(csv_lines(a)) == "1.0,0.0\n-0.0,1.0\n"
    path = tmp_path / "z.csv"
    write_csv_matrix(str(path), a)
    back = read_csv_matrix(str(path))
    np.testing.assert_array_equal(np.signbit(back), np.signbit(a))


@pytest.mark.parametrize("symmetric", [True, False])
def test_csv_lines_matches_naive_text(symmetric):
    rng = np.random.default_rng(23)
    a = rng.uniform(-1e3, 1e3, (17, 17)) * 10.0 ** rng.integers(-20, 20, (17, 17))
    if symmetric:
        a = np.tril(a) + np.tril(a, -1).T
    assert _bitwise_symmetric(a) == symmetric
    assert "".join(csv_lines(a)) == _naive_csv(a)


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(InvalidArgument):
        write_matrix(str(path), np.eye(2))
    with pytest.raises(InvalidArgument):
        read_matrix(str(path))


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(str(tmp_path / "nope.csv"))
