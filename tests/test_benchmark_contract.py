"""The benchmark's traced run wraps package functions where callers look them up.

perfbench/spans.py lists (module, attribute path, span) triples and replaces
each attribute in its owner's __dict__. A refactor that moves or renames one
of those names would break the traced run; this test catches it first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_traced_name_resolves_where_it_is_wrapped():
    wraps = _wraps()
    assert wraps
    for module_name, path, _span in wraps:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path} is not defined there"
        assert callable(owner.__dict__[attr]), f"{module_name}.{path} is not callable"
