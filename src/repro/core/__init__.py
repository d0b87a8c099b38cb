"""The paper's contribution: AST passes and code-variant generation."""

from .atomics_global import (
    GlobalAtomicResult,
    apply_global_atomic,
    classify_partition,
    infer_reduction_op,
)
from .atomics_shared import SharedAtomicResult, apply_shared_atomics
from .pipeline import (
    COOP_KEYS,
    CompoundVariants,
    CoopVariant,
    PreprocessResult,
    preprocess,
)
from .aggregate import AggregateResult, apply_warp_aggregation
from .shuffle import ShuffleMatch, ShuffleResult, apply_shuffle, detect_shuffle_loops
from .unroll import UnrollResult, apply_unroll
from .sources import load_reduction_program, reduction_source
from .variants import (
    BEST8,
    FIG6,
    Version,
    enumerate_versions,
    fig6_label,
    original_tangram_versions,
    prune_versions,
    search_space_summary,
)

__all__ = [
    "AggregateResult",
    "BEST8",
    "COOP_KEYS",
    "CompoundVariants",
    "CoopVariant",
    "FIG6",
    "GlobalAtomicResult",
    "PreprocessResult",
    "SharedAtomicResult",
    "ShuffleMatch",
    "ShuffleResult",
    "UnrollResult",
    "Version",
    "apply_global_atomic",
    "apply_unroll",
    "apply_warp_aggregation",
    "apply_shared_atomics",
    "apply_shuffle",
    "classify_partition",
    "detect_shuffle_loops",
    "enumerate_versions",
    "fig6_label",
    "infer_reduction_op",
    "load_reduction_program",
    "original_tangram_versions",
    "preprocess",
    "prune_versions",
    "reduction_source",
    "search_space_summary",
]
