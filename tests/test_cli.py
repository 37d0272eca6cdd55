"""Command-line interface, exercised in-process through main()."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import syminv
from syminv import read_matrix, write_matrix
from syminv.cli import main
from syminv.genbench import MatrixFamily, generate


def _write_sample(tmp_path, name="a.csv"):
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    path = tmp_path / name
    write_matrix(str(path), a)
    return path, a


class TestInvert:
    def test_stdout_matrix(self, tmp_path, capsys):
        path, a = _write_sample(tmp_path)
        assert main(["invert", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        got = np.array([[float(x) for x in line.split(",")]
                        for line in out.strip().splitlines()])
        np.testing.assert_allclose(got, np.linalg.inv(a), atol=1e-14)

    def test_output_file_and_counts_on_stdout(self, tmp_path, capsys):
        path, a = _write_sample(tmp_path)
        dest = tmp_path / "inv.csv"
        assert main(["invert", "--input", str(path), "--output", str(dest),
                     "--count"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "muldiv=6 sqrt=0"  # v2 on a 2x2
        np.testing.assert_allclose(read_matrix(str(dest)), np.linalg.inv(a),
                                   atol=1e-14)

    def test_counts_go_to_stderr_when_matrix_on_stdout(self, tmp_path, capsys):
        path, _ = _write_sample(tmp_path)
        assert main(["invert", "--input", str(path), "--count",
                     "--method", "cholesky"]) == 0
        captured = capsys.readouterr()
        assert "muldiv=" not in captured.out
        assert captured.err.strip() == "muldiv=10 sqrt=2"  # (n^3+3n^2)/2, n sqrt

    @pytest.mark.parametrize("method", ["v1", "v2", "cholesky", "ldl", "km",
                                        "gauss", "robust"])
    def test_all_methods_available(self, tmp_path, method, capsys):
        path, a = _write_sample(tmp_path)
        assert main(["invert", "--input", str(path), "--method", method]) == 0
        out = capsys.readouterr().out
        got = np.array([[float(x) for x in line.split(",")]
                        for line in out.strip().splitlines()])
        np.testing.assert_allclose(got, np.linalg.inv(a), atol=1e-13)

    @pytest.mark.parametrize("method", ["v2", "gauss"])
    def test_output_file_bytes_equal_stdout_bytes(self, tmp_path, method, capsys):
        path = tmp_path / "a.csv"
        write_matrix(str(path), generate(MatrixFamily("diag_dominant", 9, 3)))
        dest = tmp_path / "inv.csv"
        assert main(["invert", "--input", str(path), "--method", method,
                     "--output", str(dest)]) == 0
        capsys.readouterr()
        assert main(["invert", "--input", str(path), "--method", method]) == 0
        out = capsys.readouterr().out.encode()
        assert b"\r" not in out
        assert dest.read_bytes() == out

    def test_csv_invert_does_not_import_scipy(self, tmp_path):
        path, _ = _write_sample(tmp_path)
        script = (
            "import sys\n"
            "from syminv.cli import main\n"
            f"assert main(['invert', '--input', {str(path)!r}, "
            f"'--output', {str(tmp_path / 'inv.csv')!r}]) == 0\n"
            "assert main(['invert', '--input', sys.argv[1]]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(syminv.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("io_call", [
        "syminv.read_matrix(sys.argv[1])",
        "syminv.write_matrix(sys.argv[1] + '.out.csv', a)",
    ], ids=["read", "write"])
    def test_only_csv_io_imports_orjson(self, tmp_path, io_call):
        path, _ = _write_sample(tmp_path)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import syminv.cli\n"
            "from syminv.genbench import METHOD_FUNCS\n"
            "print('orjson' in sys.modules)\n"
            "a = np.array([[2.0, 1.0], [1.0, 2.0]])\n"
            "for invert in METHOD_FUNCS.values():\n"
            "    invert(a)\n"
            "print('orjson' in sys.modules)\n"
            f"{io_call}\n"
            "print('orjson' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(syminv.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", "True"]

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        path, _ = _write_sample(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["invert", "--input", str(path), "--method", "qr"])
        assert err.value.code == 2

    def test_missing_file_reports_failure(self, tmp_path, capsys):
        code = main(["invert", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_not_positive_definite_reports_failure(self, tmp_path, capsys):
        path = tmp_path / "indef.csv"
        write_matrix(str(path), np.array([[1.0, 2.0], [2.0, 1.0]]))
        code = main(["invert", "--input", str(path), "--method", "cholesky"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_complex_matrix_market_file_is_an_error(self, tmp_path, capsys):
        # numpy would cut diag(1+i, 1-i) to its real part, the identity.
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "2 2 2\n1 1 1.0 1.0\n2 2 1.0 -1.0\n")
        code = main(["invert", "--method", "gauss", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("syminv: error: ")
        assert "real" in captured.err


class TestBench:
    def test_csv_to_stdout(self, capsys):
        assert main(["bench", "--experiment", "1", "--sizes", "6,9"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "method"
        assert len(rows) == 1 + 2 * 5  # header + sizes x default methods
        assert {r[10] for r in rows[1:]} == {"ok"}

    def test_output_file_and_method_subset(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        assert main(["bench", "--experiment", "1", "--sizes", "5",
                     "--methods", "v2,km", "--output", str(dest)]) == 0
        with dest.open() as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["v2", "km"]
        assert capsys.readouterr().out == ""

    def test_markdown_format(self, capsys):
        assert main(["bench", "--experiment", "2", "--sizes", "5",
                     "--methods", "v2", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| method | n | family |")

    def test_experiment_choice_validated(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--experiment", "9", "--sizes", "5"])
        assert err.value.code == 2

    def test_bad_sizes_reported(self, capsys):
        assert main(["bench", "--experiment", "1", "--sizes", "a,b"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_method_list_names_the_methods(self, capsys):
        assert main(["bench", "--experiment", "1", "--sizes", "5", "--methods", ","]) == 1
        assert capsys.readouterr().err == "syminv: error: at least one method is required\n"

    def test_deterministic_excluding_seconds(self, capsys):
        def run():
            assert main(["bench", "--experiment", "1", "--sizes", "10",
                         "--seed", "42"]) == 0
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            return [r[:9] + r[10:] for r in rows]

        assert run() == run()


class TestCount:
    def test_csv_values(self, capsys):
        assert main(["count", "--sizes", "100"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["method", "n", "muldiv", "sqrt"]
        got = {r[0]: (int(r[2]), int(r[3])) for r in rows[1:]}
        assert got["cholesky"] == (515000, 100)
        assert got["ldl"] == (671650, 0)
        assert got["km"] == (505000, 100)
        assert got["v1"] == (509950, 0)
        assert got["v2"] == (505000, 0)

    def test_markdown(self, capsys):
        assert main(["count", "--sizes", "10,20", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| method | n | muldiv | sqrt |")
        assert len(out.splitlines()) == 2 + 10

    def test_empty_size_list_reported(self, capsys):
        assert main(["count", "--sizes", ","]) == 1
        assert "comma-separated list of matrix orders" in capsys.readouterr().err

    def test_sizes_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count"])
        assert err.value.code == 2


class TestVerify:
    def test_passes_and_prints_lines(self, capsys):
        assert main(["verify", "--max-n", "6"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1].endswith("checks passed")
        assert all(line.startswith("ok") for line in lines[:-1])


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
