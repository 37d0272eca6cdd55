"""In-memory spans around the calls into the syminv modules.

A span is ``[id, parent, call, name, start, end]``: ``call`` is the
workload call that caused it, ``parent`` the enclosing span.  Spans are
recorded by wrappers that ``Instrumentation`` swaps in for the library's
functions, wherever a module has bound them, and swaps out again on exit;
the library itself is not edited.  The layer of a span is the module
prefix of its name.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Functions wrapped in a traced run, by module.  Private names are the
# ones a layer metric is defined on (the CLI's stdout writer).
TRACED = {
    "cli": ("main", "cmd_invert", "_print_matrix"),
    "mmio": ("read_matrix", "write_matrix", "read_csv_matrix",
             "write_csv_matrix", "read_mm_matrix", "write_mm_matrix"),
    "matcore": ("as_matrix", "mirror_lower", "SymmetryCheck.passes"),
    "symmetric": ("invert_v1", "invert_v1_parts", "lower_stage",
                  "complete_lower", "invert_v2", "invert_symmetric_robust"),
    "modgauss": ("invert", "eliminate", "default_pivot_tol"),
    "baselines": ("cholesky_factor", "ldl_factor", "invert_cholesky",
                  "invert_ldl", "invert_km"),
    "genbench": ("generate",),
}

LAYERS = ("bench",) + tuple(TRACED)


class Tracer:
    def __init__(self):
        self.spans = []
        self.call = None
        self._stack = []

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.call, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    def current(self):
        return self._stack[-1] if self._stack else None

    def wrap(self, func, name):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(sid)
        traced.__wrapped__ = func
        return traced

    def adopt(self, spans, parent):
        """Append spans recorded in a child process below span *parent*."""
        base = len(self.spans)
        for sid, par, _, name, start, end in spans:
            self.spans.append([base + sid, parent if par is None else base + par,
                               self.call, name, start, end])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid = self.tracer.begin(self.name)
        return self.sid

    def __exit__(self, *exc):
        self.tracer.end(self.sid)
        return False


class Instrumentation:
    """Context manager that routes the TRACED functions through a tracer."""

    def __init__(self, tracer):
        import syminv.cli  # noqa: F401  (bind every module before scanning)

        modules = [m for k, m in sys.modules.items()
                   if k == "syminv" or k.startswith("syminv.")]
        # Dispatch tables such as genbench.METHOD_FUNCS and mmio._READERS
        # hold their own references to the functions.
        tables = [v for m in modules for v in vars(m).values() if isinstance(v, dict)]
        self.patches = []
        for short, names in TRACED.items():
            mod = sys.modules[f"syminv.{short}"]
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(mod, cls)
                orig = getattr(owner, attr)
                wrapper = tracer.wrap(orig, f"{short}.{name}")
                if owner is not mod:
                    self.patches.append((owner, attr, orig, wrapper))
                    continue
                for m in modules:
                    for key, value in vars(m).items():
                        if value is orig:
                            self.patches.append((m, key, orig, wrapper))
                for table in tables:
                    for key, value in table.items():
                        if value is orig:
                            self.patches.append((table, key, orig, wrapper))

    def __enter__(self):
        for owner, key, _, wrapper in self.patches:
            _set(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, orig, _ in self.patches:
            _set(owner, key, orig)
        return False


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(spans):
    """Seconds of each span not covered by its child spans, keyed by span id."""
    covered = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, _, start, end in spans}


def layer_self_times(spans):
    """Total self time per layer (module prefix of the span name)."""
    out = dict.fromkeys(LAYERS, 0.0)
    own = self_times(spans)
    for sid, _, _, name, _, _ in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[sid]
    return out


def descendants(spans, root, name):
    """Spans named *name* anywhere below span *root* (spans are in start order)."""
    below = {root}
    found = []
    for span in spans[root + 1:]:
        if span[1] in below:
            below.add(span[0])
            if span[3] == name:
                found.append(span)
    return found


def duration(span):
    return span[5] - span[4]
