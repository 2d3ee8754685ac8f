from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", os.path.join(ROOT, "bench_trajectory.py")
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

MODULE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    s = """a string
that is no docstring"""
    return (x +
            1)


class C:
    "A class docstring."
    y = 1
'''


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    # import, def, the string's two lines, return's two lines, class, y.
    assert bench_trajectory.code_lines(MODULE) == 8
    assert bench_trajectory.code_lines("") == 0
    assert bench_trajectory.code_lines('"""Only a docstring."""\n') == 0


def test_source_lines_count_every_module_and_their_total():
    nonblank, code = bench_trajectory.source_lines()
    assert "optimizer.py" in nonblank and nonblank.keys() == code.keys()
    for counts in (nonblank, code):
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
    assert all(code[name] <= nonblank[name] for name in code)
