"""Shared measurement helpers: statistics, correctness checks, environment.

Imported by ``run.py`` after it has pinned the BLAS thread count and put
the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from syminv import complexity
from syminv.matcore import OpCounter

# The tail is the highest of these percentiles that leaves at least
# MIN_BEYOND samples above it.  With fewer than 2 * MIN_BEYOND samples no
# percentile at or above the median qualifies; the median is reported
# then, since a maximum over a dozen calls on a shared machine mostly
# measures the machine.
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10

# Same residual bound as genbench._verify_residuals.
RESIDUAL_FACTOR = 1e-10

SUBPROCESS_TIMEOUT = 120


def median(values):
    return float(statistics.median(values))


def tail(samples):
    """Return (value, percentile, samples_beyond) for the call-time tail."""
    n = len(samples)
    for p in TAIL_LADDER:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= MIN_BEYOND:
            return float(np.percentile(samples, p)), p, beyond
    p = TAIL_LADDER[-1]
    return float(np.percentile(samples, p)), p, int(n * (100.0 - p) / 100.0)


def repeat_median(func, reps):
    """Median wall time of *reps* calls of func()."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return median(times)


def check_inverse(a, x, symmetric=True):
    """(ok, detail) for a claimed inverse x of a: small residual, bitwise symmetric if asked."""
    if not isinstance(x, np.ndarray) or x.shape != a.shape:
        return False, f"output shape {getattr(x, 'shape', None)} != {a.shape}"
    if symmetric and not np.array_equal(x, x.T):
        return False, "output not bitwise symmetric"
    r = a @ x
    r[np.diag_indices_from(r)] -= 1.0
    res = float(np.sqrt((r * r).sum()))
    bound = RESIDUAL_FACTOR * (1.0 + float(np.sqrt((a * a).sum()))
                               * float(np.sqrt((x * x).sum())))
    if not res <= bound:
        return False, f"residual {res:.3e} exceeds {bound:.3e}"
    return True, ""


_FORMULA = {"gauss": "modgauss_full"}
_theory = {}


def theory(method, n):
    """(q_theor, s_theor) of a pivot-free run of *method* at order n."""
    key = (method, n)
    if key not in _theory:
        name = _FORMULA.get(method, method)
        _theory[key] = (complexity.q_theor(name, n), complexity.s_theor(name, n))
    return _theory[key]


class RecordingCounter(OpCounter):
    """OpCounter that also counts how often the library calls it."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def add_muldiv(self, count):
        self.calls += 1
        OpCounter.add_muldiv(self, count)

    def add_sqrt(self, count=1):
        self.calls += 1
        OpCounter.add_sqrt(self, count)


class Tally:
    """Outcome of every call a run makes: timings, failures and counts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.call_seconds = []  # one entry per successful workload call
        self.method_seconds = defaultdict(list)
        self.counted = 0  # pivot-free calls whose counts were checked
        self.count_mismatches = 0
        self.robust_calls = 0
        self.robust_fallbacks = 0

    def attempt(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")
        return ok

    def check_counts(self, method, n, counter):
        """Compare a counted call with the closed forms; robust is tallied apart."""
        q2, _ = theory("v2", n)
        if method == "robust":
            self.robust_calls += 1
            self.robust_fallbacks += counter.muldiv != q2
            return True, ""
        self.counted += 1
        q, s = theory(method, n)
        if counter.muldiv != q or counter.sqrt != s:
            self.count_mismatches += 1
            return False, (f"counted muldiv={counter.muldiv} sqrt={counter.sqrt}, "
                           f"expected {q} and {s}")
        return True, ""

    @property
    def failed(self):
        return len(self.failures)


def timed_call(func, *args):
    """(seconds, result, exception) of one call; exceptions are returned, not raised."""
    t0 = time.perf_counter()
    try:
        out = func(*args)
    except Exception as exc:  # a failing call is counted, not fatal
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def subprocess_seconds(argv, env, cwd):
    """Wall time of one child process that must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          timeout=SUBPROCESS_TIMEOUT)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    return seconds


def write_csv(path, a):
    """Write a matrix as CSV with round-trip exact entries (the benchmark's input).

    The file is synced so that its write-back happens here, in set-up,
    and not during the timed calls that follow.
    """
    with open(path, "w", encoding="ascii") as fh:
        for row in a.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


def parse_csv(text, n):
    """Parse an n x n CSV matrix as the CLI prints it; raise ValueError if malformed."""
    lines = text.splitlines()
    if len(lines) != n:
        raise ValueError(f"{len(lines)} rows, expected {n}")
    values = np.array(text.replace(",", " ").split(), dtype=np.float64)
    if values.size != n * n:
        raise ValueError(f"{values.size} entries, expected {n * n}")
    return values.reshape(n, n)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def git_commit(root):
    """HEAD commit of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    head = os.path.join(git, "HEAD")
    if not os.path.isfile(head):
        return None
    ref = _read(head)
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(git, name)
    if os.path.isfile(loose):
        return _read(loose)
    packed = os.path.join(git, "packed-refs")
    if os.path.isfile(packed):
        for line in _read(packed).splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src):
    """sha256 over the package sources, which identifies the code when .git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "syminv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root, src, seed, blas_vars):
    """Versions, hardware and settings that every result records."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "executable": os.path.basename(sys.executable),
    }
