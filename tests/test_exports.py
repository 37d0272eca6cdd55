"""The package's export list: every public name it imports, and its version."""

import pydoc
import re
import types

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
