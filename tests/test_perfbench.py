"""The benchmark's tracing table names functions that exist.

``perfbench/spans.py`` looks every traced layer up with ``getattr`` when a
``--trace 1`` run starts, so a layer deleted or renamed in ``src/`` would
crash that run; this test fails first.  It only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name, target", sorted(_layers().items()))
def test_traced_layer_resolves(name, target):
    mod, attr = target
    assert callable(getattr(importlib.import_module(mod), attr, None)), name
