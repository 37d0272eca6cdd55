"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import tail  # noqa: E402
from spans import Tracer, descendants, layer_self_times, self_times  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        [0, None, 1, "bench.call", 0.0, 10.0],
        [1, 0, 1, "symmetric.invert_v2", 1.0, 9.0],
        [2, 1, 1, "matcore.as_matrix", 1.0, 2.0],
        [3, 1, 1, "matcore.mirror_lower", 8.0, 8.5],
    ]
    assert self_times(spans) == {0: 2.0, 1: 6.5, 2: 1.0, 3: 0.5}
    layers = layer_self_times(spans)
    assert layers["bench"] == 2.0 and layers["symmetric"] == 6.5
    assert layers["matcore"] == 1.5 and layers["modgauss"] == 0.0
    assert [s[0] for s in descendants(spans, 0, "matcore.as_matrix")] == [2]


def test_adopted_child_spans_hang_below_the_parent():
    tracer = Tracer()
    tracer.call = 7
    with tracer.span("bench.call") as parent:
        pass
    tracer.adopt([[0, None, None, "cli.import", 0.0, 1.0],
                  [1, None, None, "cli.main", 1.0, 2.0],
                  [2, 1, None, "mmio.read_matrix", 1.0, 1.5]], parent)
    assert [(s[0], s[1], s[2]) for s in tracer.spans[1:]] == [(1, 0, 7), (2, 0, 7), (3, 2, 7)]


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 19 + [5.0]) == (1.0, 50.0, 10)
    value, pct, beyond = tail(list(range(1000)))
    assert (pct, beyond) == (99.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke passed"


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    argv = [sys.executable] + command[1:] + [
        "--workload", "dense_n1000", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
