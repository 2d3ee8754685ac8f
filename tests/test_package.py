from __future__ import annotations

import simcamp


def test_every_exported_name_resolves():
    missing = [name for name in simcamp.__all__ if not hasattr(simcamp, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from simcamp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(simcamp.__all__)


def test_export_list_is_sorted_and_duplicate_free():
    assert simcamp.__all__ == sorted(set(simcamp.__all__))
