"""Static conflict-freedom analysis for the struct-of-arrays engine.

The flow pass extracts per-kernel SoA column read/write sets from the
AST and enforces the discipline the vectorized kernels rely on: vector
stores into the same column must be provably disjoint, columns are read
once at entry, in-place ops must not overlap their own input, and RNG
draws must not hide inside data-dependent control flow.

The pass is stdlib-only and shares the lint pass's finding model and
exit-code contract; suppressions use the ``# repro-flow: ignore[rule]``
pragma namespace.  Its dynamic counterpart is the runtime sanitizer in
:mod:`repro.sim.fast.sanitize`, which cross-checks observed per-kernel
access sets against this pass's static ones.

Public API::

    from repro.analysis.flow import analyze_paths, exit_code, FLOW_RULES
"""

from __future__ import annotations

from repro.analysis.lint.findings import Finding, Severity, findings_to_json

from .access import FunctionAccess, class_access_sets, extract_function_access
from .engine import analyze_paths, analyze_source, exit_code
from .masks import provably_disjoint
from .model import SOA_COLUMNS
from .rules import FLOW_RULES, FLOW_RULES_BY_ID, FlowRule
from .unit import FlowUnit

__all__ = [
    "Finding",
    "Severity",
    "findings_to_json",
    "FunctionAccess",
    "class_access_sets",
    "extract_function_access",
    "analyze_paths",
    "analyze_source",
    "exit_code",
    "provably_disjoint",
    "SOA_COLUMNS",
    "FLOW_RULES",
    "FLOW_RULES_BY_ID",
    "FlowRule",
    "FlowUnit",
]
