"""Every ```python block of README.md runs as written, and its ``SdeModel``
and ``StateDependentRates`` signatures list the dataclasses' fields, so the
documented examples cannot drift from the library's signatures."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from regime import SdeModel, StateDependentRates

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})  # noqa: S102
    assert capsys.readouterr().out


def documented_fields(cls):
    """The (name, default) pairs of the one `cls(...)` signature in the README."""
    sigs = re.findall(rf"`{cls.__name__}\(([^)`]*)\)`", README.read_text(encoding="utf-8"))
    assert len(sigs) == 1
    documented = []
    for param in sigs[0].split(", "):
        name, _, default = param.partition("=")
        documented.append((name, ast.literal_eval(default) if default else dataclasses.MISSING))
    return documented


def test_readme_sdemodel_signature_lists_its_fields():
    assert documented_fields(SdeModel) == [(f.name, f.default)
                                           for f in dataclasses.fields(SdeModel)]


def test_readme_state_dependent_rates_signature_lists_its_fields():
    assert documented_fields(StateDependentRates) == [
        (f.name, f.default) for f in dataclasses.fields(StateDependentRates)]
