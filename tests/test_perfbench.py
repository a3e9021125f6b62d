"""The benchmark's tracing table names functions that exist, and one pass of
each workload passes the benchmark's own reference checks.

``perfbench/spans.py`` looks every traced layer up with ``getattr`` when a
``--trace 1`` run starts, so a layer deleted or renamed in ``src/`` would
crash that run; this test fails first.  Likewise a change that makes an
operation of ``perfbench/workloads.py`` fail its check fails here, not only
in a benchmark run.  These tests only read ``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")
SEED = 11


def _load(path: Path):
    """Import a perfbench file as a module, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _layers() -> dict:
    return _load(SPANS).LAYERS


@pytest.mark.parametrize("name, target", sorted(_layers().items()))
def test_traced_layer_resolves(name, target):
    mod, attr = target
    assert callable(getattr(importlib.import_module(mod), attr, None)), name


def test_one_pass_of_each_workload_passes_its_checks(tmp_path):
    workloads = _load(WORKLOADS)
    for wl in (workloads.build_certify(SEED, tmp_path), workloads.build_mc(SEED)):
        for op in wl.ops:
            assert op.check(op.call()) is None, op.label
