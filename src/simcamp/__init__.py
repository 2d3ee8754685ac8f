"""Memory-bounded simulation campaigns over large scenario corpora.

The package turns a set of piecewise-constant input scenarios into
executable campaigns that trade simulator memory (stored checkpoints)
against repeated re-simulation of shared scenario prefixes.
"""

from __future__ import annotations

import importlib

# Each exported name and the submodule that defines it.  The package
# imports a submodule only when one of its names is first used (PEP 562),
# so a process that imports one submodule, such as the echo driver,
# loads only what that submodule imports.
_EXPORTS = {
    "engine": (
        "ExecutionResult",
        "ReferenceModel",
        "Simulator",
        "SystemModel",
        "execute",
        "reference_model",
        "run_external",
    ),
    "generator": (
        "ConstraintSpec",
        "Dfa",
        "GeneratorTable",
        "read_constraint_file",
        "sample_indices",
    ),
    "metrics": (
        "CostModel",
        "completion_time",
        "estimate_seconds",
        "memory_efficiency",
        "omission_probability",
        "read_cost_file",
        "speedup",
    ),
    "optimizer": (
        "Campaign",
        "optimize_slice",
        "read_campaign_file",
        "write_campaign_file",
    ),
    "pipeline": ("RunConfig", "analyze_runs", "run_pipeline"),
    "slicing": ("external_sort", "order_slice", "slice_ranges"),
    "traces": (
        "Alphabet",
        "InputTrace",
        "TraceCorpus",
        "TraceFormatError",
        "read_trace_file",
    ),
    "tree": ("BranchTree", "TreeInvariantError", "build_tree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
