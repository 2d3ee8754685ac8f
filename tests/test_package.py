from __future__ import annotations

from pathlib import Path

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


def test_readme_library_use_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "quanta, peak" in capsys.readouterr().out
