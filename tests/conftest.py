"""Let driver processes started by the tests import simcamp from this tree.

``pythonpath`` in pyproject.toml puts ``src/`` on the test process's own
path only; the echo driver runs as ``python -m simcamp.echo_driver`` in a
child process, which reads ``PYTHONPATH`` instead.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
