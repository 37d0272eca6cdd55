"""Per-layer probes of a traced run.

Each probe calls one module's public functions from here, under spans,
at a fixed large order (n=1000) and a small one (n=32); the metrics are
read off the spans and the counters.  The probes are the same on every
workload, so every traced run reports every per-layer metric.
"""

from __future__ import annotations

import io
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy.linalg

import syminv.cli
from syminv import complexity, genbench, matcore, mmio
from syminv.genbench import FAMILY_KINDS, MatrixFamily, generate

from harness import (RecordingCounter, check_inverse, median, parse_csv,
                     repeat_median, subprocess_seconds, write_csv)
from spans import descendants, duration
from workloads import METHODS, method_input, run_method

REPS = 3


class Probe:
    def __init__(self, ctx, seed, tracer, instrumentation, tally):
        self.ctx, self.seed, self.tally = ctx, seed, tally
        self.tracer, self.instr = tracer, instrumentation
        self.big = 96 if ctx.smoke else 1000
        self.small = 16 if ctx.smoke else 32
        self.stream_size = 20 if ctx.smoke else 200
        self.metrics = {}
        self.notes = {}

    def put(self, name, value, unit, note=None):
        self.metrics[name] = (value if isinstance(value, int) else float(value), unit)
        if note:
            self.notes[name] = note

    def span(self, name, thunk):
        """Call thunk() traced, under a probe span; returns (span id, result).

        The thunk must look library functions up on their modules when it
        runs, so that it calls the traced wrappers.
        """
        self.tracer.call = "probe"
        with self.instr, self.tracer.span(f"probe.{name}") as sid:
            out = thunk()
        return sid, out

    def inner(self, sid, name):
        found = descendants(self.tracer.spans, sid, name)
        if not found:
            raise RuntimeError(f"no {name} span below probe span {sid}")
        return duration(found[0])

    def run(self):
        a = generate(MatrixFamily("diag_dominant", self.big, self.seed))
        z = generate(MatrixFamily("zero_leading_minor", self.big, self.seed))
        self.methods(a, z)
        self.counter_calls()
        self.cli_and_mmio(a)
        self.matcore(a)
        self.stream()
        self.genbench()
        self.reference(a)
        return self.metrics, self.notes

    def methods(self, a, z):
        n = self.big
        sid, counter = {}, {}
        for method in METHODS:
            counter[method] = RecordingCounter()
            sid[method], _ = self.span(method, lambda m=method: run_method(
                self.tally, m, method_input(m, a, z), counter[m]))
        v2 = [self.inner(sid["v2"], "symmetric.invert_v2")]
        for _ in range(REPS - 1):
            s, _ = self.span("v2", lambda: run_method(self.tally, "v2", a, RecordingCounter()))
            v2.append(self.inner(s, "symmetric.invert_v2"))
        v2_s = median(v2)
        q2 = complexity.q_theor("v2", n)
        self.put("symmetric.invert_v2_s.n1000", v2_s, "s")
        self.put("symmetric.v2_muldiv_per_s", q2 / v2_s, "1/s",
                 f"q_theor('v2', {n}) / symmetric.invert_v2_s.n1000")
        for metric, method, name in (
                ("symmetric.lower_stage_s", "v1", "symmetric.lower_stage"),
                ("symmetric.complete_lower_s", "v1", "symmetric.complete_lower"),
                ("modgauss.eliminate_trailing1_s", "v1", "modgauss.eliminate"),
                ("modgauss.invert_s", "gauss", "modgauss.invert"),
                ("modgauss.invert_swaps_s", "robust", "modgauss.invert")):
            self.put(metric, self.inner(sid[method], name), "s")
        for method, fn, factor in (("cholesky", "invert_cholesky", "cholesky_factor"),
                                   ("ldl", "invert_ldl", "ldl_factor"),
                                   ("km", "invert_km", "cholesky_factor")):
            whole = self.inner(sid[method], f"baselines.{fn}")
            part = self.inner(sid[method], f"baselines.{factor}")
            if method != "km":
                self.put(f"baselines.{factor}_s", part, "s")
            self.put(f"baselines.{method}_solve_s", whole - part, "s",
                     f"baselines.{fn} minus its {factor}")
        for method, name in (("v1", "symmetric.invert_v1"), ("ldl", "baselines.invert_ldl"),
                             ("cholesky", "baselines.invert_cholesky"),
                             ("km", "baselines.invert_km"),
                             ("robust", "symmetric.invert_symmetric_robust")):
            self.put(f"{name}_s", self.inner(sid[method], name), "s")
        for method in METHODS:
            note = None
            if method == "v2" and n > 64:
                note = ("replayed from the cost model by _invert_v2_blocked above "
                        "n=64, not measured")
            self.put(f"complexity.muldiv_per_call.{method}", counter[method].muldiv,
                     "count", note)
        self.put("symmetric.robust_muldiv_ratio", counter["robust"].muldiv / q2, "ratio",
                 f"robust counted muldiv / q_theor('v2', {n})")

    def counter_calls(self):
        n = self.small
        a = generate(MatrixFamily("diag_dominant", n, self.seed))
        z = generate(MatrixFamily("zero_leading_minor", n, self.seed))
        for method in METHODS:
            counter = RecordingCounter()
            self.span(f"{method}.n{n}", lambda: run_method(
                self.tally, method, method_input(method, a, z), counter))
            self.put(f"matcore.counter_calls.{method}", counter.calls, "count")

    def cli_and_mmio(self, a):
        ctx, n = self.ctx, self.big
        src, dst = ctx.out("probe_input.csv"), ctx.out("probe_output.csv")
        write_csv(src, a)
        want = f"muldiv={complexity.q_theor('v2', n)} sqrt=0\n"
        own, reads, writes = [], [], []
        for to_file in (True, False):
            argv = ["invert", "--method", "v2", "--count", "--input", src]
            argv += ["--output", dst] if to_file else []
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                sid, status = self.span("cli.main", lambda: syminv.cli.main(argv))
            counts, text = (out.getvalue(), None) if to_file else (err.getvalue(), out.getvalue())
            ok, detail = status == 0 and counts == want, f"status {status}, counts {counts!r}"
            if ok:
                if to_file:
                    with open(dst, encoding="ascii") as fh:
                        text = fh.read()
                try:
                    ok, detail = check_inverse(a, parse_csv(text, n))
                except ValueError as exc:
                    ok, detail = False, f"output does not parse: {exc}"
            self.tally.attempt("cli in-process", ok, detail)
            writer = "mmio.write_matrix" if to_file else "cli._print_matrix"
            parts = sum(self.inner(sid, name) for name in
                        ("mmio.read_matrix", "symmetric.invert_v2", writer))
            own.append(self.inner(sid, "cli.main") - parts)
            reads.append(self.inner(sid, "mmio.read_csv_matrix"))
            if to_file:
                writes.append(self.inner(sid, "mmio.write_csv_matrix"))
        sid, _ = self.span("mmio.write_csv", lambda: mmio.write_csv_matrix(dst, a))
        writes.append(self.inner(sid, "mmio.write_csv_matrix"))
        size = os.path.getsize(dst)
        os.remove(dst)
        self.put("cli.self_s", median(own), "s",
                 "cli.main minus its read_matrix, invert_v2 and write spans")
        self.put("cli.import_s", median([
            subprocess_seconds([sys.executable, "-c", "import syminv.cli"],
                               ctx.env, ctx.root) for _ in range(REPS)]), "s",
                 "fresh interpreter running 'import syminv.cli'")
        read_s, write_s = median(reads), median(writes)
        self.put("mmio.read_csv_s", read_s, "s")
        self.put("mmio.write_csv_s", write_s, "s")
        self.put("mmio.csv_bytes", size, "B",
                 f"computed: size of the CSV write_csv_matrix wrote at n={n}")
        self.put("mmio.read_csv_MBps", size / 1e6 / read_s, "MB/s",
                 "mmio.csv_bytes / mmio.read_csv_s")
        self.put("mmio.write_csv_MBps", size / 1e6 / write_s, "MB/s",
                 "mmio.csv_bytes / mmio.write_csv_s")
        mtx = ctx.out("probe.mtx")
        wr, rd = [], []
        for _ in range(REPS):
            sid, _ = self.span("mmio.write_mtx", lambda: mmio.write_matrix(mtx, a))
            wr.append(self.inner(sid, "mmio.write_mm_matrix"))
            sid, back = self.span("mmio.read_mtx", lambda: mmio.read_matrix(mtx))
            rd.append(self.inner(sid, "mmio.read_mm_matrix"))
            self.tally.attempt("mtx round trip", np.array_equal(back, a), "values differ")
        os.remove(mtx)
        os.remove(src)
        self.put("mmio.read_mtx_s", median(rd), "s")
        self.put("mmio.write_mtx_s", median(wr), "s")

    def matcore(self, a):
        check = matcore.SymmetryCheck()
        small = generate(MatrixFamily("diag_dominant", self.small, self.seed))
        for label, m, batch in (("n1000", a, 1), ("n32", small, 200)):
            for name, func in (("as_matrix", matcore.as_matrix),
                               ("symmetry_check", check.passes),
                               ("mirror_lower", matcore.mirror_lower)):
                def many(func=func, m=m):
                    for _ in range(batch):
                        func(m)
                self.tracer.call = "probe"
                with self.tracer.span(f"probe.matcore.{name}.{label}"):
                    seconds = repeat_median(many, 5) / batch
                self.put(f"matcore.{name}_s.{label}", seconds, "s",
                         f"n={m.shape[0]}, median of 5 batches of {batch}")

    def stream(self):
        hi = 16 if self.ctx.smoke else 64
        rng = np.random.default_rng(self.seed + 1)
        pool = [generate(MatrixFamily(kind, int(rng.integers(4, hi + 1)),
                                      int(rng.integers(0, 2**31 - 1))))
                for kind in ("diag_dominant", "non_dominant") * (self.stream_size // 2)]
        self.tracer.call = "probe"
        with self.tracer.span("probe.v2_stream"):
            times = [run_method(self.tally, "v2", m, RecordingCounter())[0] for m in pool]
        self.put("symmetric.invert_v2_s.stream", median(times), "s",
                 f"median over {len(pool)} counted calls, n in [4, {hi}], untraced")

    def genbench(self):
        for kind in FAMILY_KINDS:
            times = []
            for _ in range(REPS):
                sid, _ = self.span(f"generate.{kind}", lambda: genbench.generate(
                    MatrixFamily(kind, self.big, self.seed)))
                times.append(self.inner(sid, "genbench.generate"))
            self.put(f"genbench.generate_s.{kind}", median(times), "s")

    def reference(self, a):
        eye = np.eye(a.shape[0])

        def cho():
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), eye)

        self.tracer.call = "probe"
        with self.tracer.span("probe.ref"):
            inv_s = repeat_median(lambda: np.linalg.inv(a), REPS)
            cho_s = repeat_median(cho, REPS)
        self.put("ref.numpy_inv_s", inv_s, "s")
        self.put("ref.cho_solve_s", cho_s, "s", "cho_factor + cho_solve against I")
        self.put("ref.v2_gap", self.metrics["symmetric.invert_v2_s.n1000"][0] / inv_s,
                 "ratio", "symmetric.invert_v2_s.n1000 / ref.numpy_inv_s")
        self.put("ref.cholesky_gap", self.metrics["baselines.invert_cholesky_s"][0] / cho_s,
                 "ratio", "baselines.invert_cholesky_s / ref.cho_solve_s")


def probe_layers(ctx, seed, tracer, instrumentation, tally):
    """Run every probe; returns (metrics {name: (value, unit)}, notes {name: base})."""
    t0 = time.perf_counter()
    metrics, notes = Probe(ctx, seed, tracer, instrumentation, tally).run()
    notes["probe_seconds"] = f"{time.perf_counter() - t0:.3f}"
    return metrics, notes
