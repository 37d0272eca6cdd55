"""The benchmark's trace table names functions the library still has.

``perfbench/spans.py`` wraps each name in ``TRACED`` for a traced run and
fails there on a name that no longer resolves; this keeps the table and
the library in step at test time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name",
                         [(m, name) for m, names in _traced().items() for name in names])
def test_traced_name_resolves(module, name):
    owner = importlib.import_module(f"syminv.{module}")
    for attr in name.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
