"""The package's public names: ``from regime import *`` works, every name in
``regime.__all__`` is listed once and resolves, and nothing public that the
package imports is left out of it."""

import types
from collections import Counter

import regime


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from regime import *", namespace)  # noqa: S102
    assert sorted(set(regime.__all__) - namespace.keys()) == []


def test_every_exported_name_is_listed_once_and_resolves():
    assert [name for name, count in Counter(regime.__all__).items() if count > 1] == []
    assert [name for name in regime.__all__ if not hasattr(regime, name)] == []


def test_every_imported_public_name_is_exported():
    public = {name for name, value in vars(regime).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(regime.__all__)) == []
