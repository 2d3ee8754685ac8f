"""Memory-bounded simulation campaigns over large scenario corpora.

The package turns a set of piecewise-constant input scenarios into
executable campaigns that trade simulator memory (stored checkpoints)
against repeated re-simulation of shared scenario prefixes.
"""

from __future__ import annotations

from .engine import (
    CostModel,
    ExecutionResult,
    ReferenceModel,
    Simulator,
    SystemModel,
    estimate_seconds,
    execute,
    read_cost_file,
    reference_model,
    run_external,
    write_cost_file,
)
from .generator import (
    ConstraintSpec,
    Dfa,
    GeneratorTable,
    read_constraint_file,
    sample_indices,
    satisfies,
    write_constraint_file,
)
from .metrics import (
    completion_time,
    inflation_table,
    memory_efficiency,
    omission_probability,
    speedup,
)
from .optimizer import (
    Campaign,
    Command,
    optimize_slice,
    read_campaign_file,
    write_campaign_file,
)
from .pipeline import RunConfig, analyze_runs, run_pipeline
from .slicing import external_sort, order_slice, slice_ranges
from .traces import (
    Alphabet,
    InputTrace,
    TraceCorpus,
    TraceFormatError,
    read_trace_file,
    write_trace_file,
)
from .tree import BranchNode, BranchTree, TreeInvariantError, build_tree

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BranchNode",
    "BranchTree",
    "Campaign",
    "Command",
    "ConstraintSpec",
    "CostModel",
    "Dfa",
    "ExecutionResult",
    "GeneratorTable",
    "InputTrace",
    "ReferenceModel",
    "RunConfig",
    "Simulator",
    "SystemModel",
    "TraceCorpus",
    "TraceFormatError",
    "TreeInvariantError",
    "analyze_runs",
    "build_tree",
    "completion_time",
    "estimate_seconds",
    "execute",
    "external_sort",
    "inflation_table",
    "memory_efficiency",
    "omission_probability",
    "optimize_slice",
    "order_slice",
    "read_campaign_file",
    "read_constraint_file",
    "read_cost_file",
    "read_trace_file",
    "reference_model",
    "run_external",
    "run_pipeline",
    "sample_indices",
    "satisfies",
    "slice_ranges",
    "speedup",
    "write_campaign_file",
    "write_constraint_file",
    "write_cost_file",
    "write_trace_file",
]
