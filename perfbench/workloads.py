"""The benchmark workloads and the closed loops that drive them.

Every workload is a closed loop with a single client: the next call
starts when the previous one has returned and been checked.  A workload
yields *items* (one CLI process, or one library call); ``block`` items
run between two looks at the clock, and on dense_n1000 a block of seven
items is one call, a round over the seven methods.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from syminv import complexity, genbench
from syminv.genbench import MatrixFamily, generate

from harness import (SUBPROCESS_TIMEOUT, check_inverse, parse_csv, timed_call,
                     write_csv)

METHODS = ("v2", "v1", "ldl", "cholesky", "km", "gauss", "robust")
# Per-method medians that untraced dense_n1000 runs print beside the metrics.
METHOD_METRIC = {m: f"{m}_s" for m in METHODS}
METHOD_METRIC["robust"] = "robust_fallback_s"

# gauss is the general (nonsymmetric) elimination: the library does not
# claim a symmetric result for it, so its output is held to the residual
# bound only.  Every other method must return a bitwise symmetric inverse.
GENERAL_METHODS = frozenset({"gauss"})

# What the installed ``syminv`` console script runs.
CONSOLE_SCRIPT = "import sys; from syminv.cli import main; sys.exit(main())"


class Context:
    """Where a run reads and writes, and how it starts child processes."""

    def __init__(self, root, src, out_dir, smoke):
        self.root, self.src, self.out_dir, self.smoke = root, src, out_dir, smoke
        self.env = dict(os.environ, PYTHONPATH=src)
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "cli_child.py")

    def out(self, name):
        return os.path.join(self.out_dir, name)


def method_input(method, a, z):
    return z if method == "robust" else a


def run_method(tally, method, a, counter=None):
    """One checked library call; returns (seconds, ok)."""
    func = genbench.METHOD_FUNCS[method]
    args = (a,) if counter is None else (a, counter)
    seconds, inv, exc = timed_call(func, *args)
    if exc is not None:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    else:
        ok, detail = check_inverse(a, inv, symmetric=method not in GENERAL_METHODS)
        if ok and counter is not None:
            ok, detail = tally.check_counts(method, a.shape[0], counter)
    if tally.attempt(f"{method} n={a.shape[0]}", ok, detail):
        tally.method_seconds[method].append(seconds)
    return seconds, ok


class Workload:
    name = ""
    block = 1
    round_is_call = False

    def __init__(self, ctx, tally):
        self.ctx, self.tally = ctx, tally
        self.tracer = None

    def setup(self, seed):
        raise NotImplementedError

    def items(self):
        raise NotImplementedError


class CliCsv(Workload):
    """``syminv invert --method v2 --count`` processes on an n=1000 CSV file.

    Calls alternate between ``--output X.csv`` and stdout, and the clock is
    read only after a pair, so both paths are always equally represented.
    """

    name = "cli_csv_n1000"
    block = 2

    def __init__(self, ctx, tally):
        super().__init__(ctx, tally)
        self.n = 48 if ctx.smoke else 1000
        self.input = ctx.out("cli_input.csv")
        self.output = ctx.out("cli_output.csv")

    def setup(self, seed):
        self.a = generate(MatrixFamily("diag_dominant", self.n, seed))
        write_csv(self.input, self.a)
        self.passed = {}
        self.count_line = f"muldiv={complexity.q_theor('v2', self.n)} sqrt=0\n"

    def argv(self, to_file):
        args = ["invert", "--method", "v2", "--count", "--input", self.input]
        return args + (["--output", self.output] if to_file else [])

    def call(self, to_file, traced):
        argv = self.argv(to_file)
        if traced:
            spans_path = self.ctx.out("cli_child_spans.json")
            cmd = [sys.executable, self.ctx.child, spans_path] + argv
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT] + argv
        t0 = time.perf_counter()
        proc = _run_child(cmd, self.ctx)
        seconds = time.perf_counter() - t0
        ok, detail = self.check(proc, to_file)
        if traced and proc is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh), self.tracer.current())
            os.remove(spans_path)
        self.tally.attempt(f"cli {'file' if to_file else 'stdout'}", ok, detail)
        return seconds, ok

    def check(self, proc, to_file):
        if proc is None:
            return False, f"timed out after {SUBPROCESS_TIMEOUT} s"
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr[-300:]!r}"
        counts, matrix = (proc.stdout, None) if to_file else (proc.stderr, proc.stdout)
        if counts.decode() != self.count_line:
            return False, f"count line {counts[-80:]!r}, expected {self.count_line!r}"
        if to_file:
            with open(self.output, "rb") as fh:
                matrix = fh.read()
            os.remove(self.output)
        # An output byte-identical to one that passed every check passes too;
        # this keeps the parse and the residual out of all but the first call.
        if self.passed.get(to_file) == matrix:
            return True, ""
        try:
            x = parse_csv(matrix.decode("ascii"), self.n)
        except ValueError as exc:
            return False, f"output does not parse: {exc}"
        ok, detail = check_inverse(self.a, x)
        if ok:
            self.passed[to_file] = matrix
        return ok, detail

    def items(self):
        i = 0
        while True:
            to_file = i % 2 == 0
            yield lambda traced, f=to_file: self.call(f, traced)
            i += 1


class DenseN1000(Workload):
    """In-process rounds of the seven methods at n=1000, without counters."""

    name = "dense_n1000"
    block = len(METHODS)
    round_is_call = True

    def __init__(self, ctx, tally):
        super().__init__(ctx, tally)
        self.n = 96 if ctx.smoke else 1000

    def setup(self, seed):
        self.a = generate(MatrixFamily("diag_dominant", self.n, seed))
        self.z = generate(MatrixFamily("zero_leading_minor", self.n, seed))

    def items(self):
        while True:
            for method in METHODS:
                a = method_input(method, self.a, self.z)
                yield lambda traced, m=method, a=a: run_method(self.tally, m, a)


WORKLOADS = {w.name: w for w in (CliCsv, DenseN1000)}


def _run_child(cmd, ctx):
    try:
        return subprocess.run(cmd, env=ctx.env, cwd=ctx.root, capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def measure(workload, seconds):
    """Untraced closed loop for *seconds*; returns the elapsed run time."""
    tally = workload.tally
    items = workload.items()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        results = [next(items)(False) for _ in range(workload.block)]
        if workload.round_is_call:
            if all(ok for _, ok in results):
                tally.call_seconds.append(sum(s for s, _ in results))
        else:
            tally.call_seconds.extend(s for s, ok in results if ok)
    return time.perf_counter() - t0


def measure_traced(workload, seconds, tracer, instrumentation):
    """Closed loop that runs every item twice, traced and untraced, in alternating order.

    The clock is read after every item: the pairs already compare like
    with like, so there is no block to complete.

    Returns (traced_seconds, untraced_seconds, pairs) summed over the
    pairs where both runs passed.
    """
    workload.tracer = tracer
    items = workload.items()
    traced_sum = untraced_sum = 0.0
    pairs = k = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = next(items)
        k += 1
        got = {}
        for traced in ((True, False) if k % 2 else (False, True)):
            if traced:
                tracer.call = k
                with instrumentation, tracer.span("bench.call"):
                    got[traced] = item(True)
            else:
                got[traced] = item(False)
        if got[True][1] and got[False][1]:
            traced_sum += got[True][0]
            untraced_sum += got[False][0]
            pairs += 1
    return traced_sum, untraced_sum, pairs
