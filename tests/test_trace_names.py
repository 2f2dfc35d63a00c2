"""Every function the benchmark's tracer wraps must still exist.

``perfbench/tracing.py`` wraps named ``aegeom`` functions, one layer each.
A rename would leave that layer's per-layer metrics empty without any other
test failing, so this loads the tracer by path and resolves each name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attr, _, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
