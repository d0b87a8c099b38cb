"""SIMT correctness tooling: dynamic sanitizer + static lint.

The missing correctness gate for the paper's rewrites: every generated
variant can be executed under a shadow-state **dynamic sanitizer**
(data races between barriers, barrier divergence, shuffles from
mask-inactivated lanes) and checked by a **static lint** over VIR
(barrier-free cross-warp tree loops, multi-lane non-atomic
read-modify-writes). See ``docs/SANITIZER.md`` and the ``sanitize``
CLI verb.
"""

from .dynamic import Diagnostic, Sanitizer
from .lint import lint_kernel, lint_plan
from .negatives import NEGATIVE_BUILDERS, all_negatives
from .report import (
    NegativeReport,
    VariantReport,
    check_negatives,
    format_negative,
    format_variant,
    report_json,
    run_sanitized,
    sanitize_variant,
    sweep_catalog,
)

__all__ = [
    "Diagnostic",
    "Sanitizer",
    "lint_kernel",
    "lint_plan",
    "NEGATIVE_BUILDERS",
    "all_negatives",
    "NegativeReport",
    "VariantReport",
    "check_negatives",
    "format_negative",
    "format_variant",
    "report_json",
    "run_sanitized",
    "sanitize_variant",
    "sweep_catalog",
]
