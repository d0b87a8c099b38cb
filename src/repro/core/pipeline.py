"""Pre-processing pipeline for code-variant generation (Figure 5).

``preprocess`` runs the paper's pipeline over an analyzed reduction
program:

1. *Planner* — semantic analysis & codelet classification (already done
   by :mod:`repro.lang.semantic`);
2. *General transformations* — metadata gathering (reduction operator,
   partition patterns; argument linking and index calculation happen at
   lowering);
3. *CUDA-specific transformations* — the three new AST passes. Whenever
   a pass produces a new variant it is recorded, exactly the "new
   variant?" loop of Figure 5.

The result is the full set of cooperative codelet variants
(V, VS, VA1, VA2, VA2S) and both flavours (atomic / non-atomic) of each
compound codelet, ready for synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import AnalyzedProgram, ast
from ..lang.errors import TransformError
from ..obs import get_tracer
from .atomics_global import (
    GlobalAtomicResult,
    apply_global_atomic,
    infer_reduction_op,
)
from .aggregate import apply_warp_aggregation
from .atomics_shared import apply_shared_atomics
from .shuffle import apply_shuffle
from .unroll import apply_unroll

#: Cooperative codelet scheme keys (the legend of Figure 6).
COOP_KEYS = ("V", "VS", "VA1", "VA2", "VA2S")

#: Extension variants beyond the paper's Figure 6 (Section III-D's
#: future-work list): VA1A = VA1 with warp-aggregated atomics [25].
EXTENSION_COOP_KEYS = ("VA1A",)


@dataclass
class CoopVariant:
    """One cooperative codelet variant produced by the pipeline."""

    key: str
    codelet: ast.Codelet
    uses_shuffle: bool = False
    uses_shared_atomic: bool = False
    shared_atomic_op: str = None
    disabled_arrays: list = field(default_factory=list)
    unrolled: bool = False

    @property
    def description(self) -> str:
        return {
            "V": "cooperative tree-based (Figure 1c)",
            "VS": "cooperative + warp shuffle (Listing 4)",
            "VA1": "single shared atomic accumulator (Figure 3a)",
            "VA2": "two-step shared atomic (Figure 3b / Listing 3)",
            "VA2S": "two-step shared atomic + warp shuffle",
            "VA1A": "VA1 with warp-aggregated atomics (Section III-D, [25])",
        }[self.key]


@dataclass
class CompoundVariants:
    """Atomic and non-atomic flavours of one compound codelet."""

    tag: str
    pattern: str  # tile | stride
    atomic: GlobalAtomicResult
    non_atomic: GlobalAtomicResult


@dataclass
class PreprocessResult:
    analyzed: AnalyzedProgram
    spectrum: str
    reduction_op: str
    ctype: str  # the spectrum's DSL element type ('float' or 'int')
    coop: dict = field(default_factory=dict)  # key -> CoopVariant
    compound: dict = field(default_factory=dict)  # pattern -> CompoundVariants
    log: list = field(default_factory=list)  # human-readable pass log

    def coop_variant(self, key: str) -> CoopVariant:
        if key not in self.coop:
            raise KeyError(
                f"no cooperative variant {key!r}; available: {sorted(self.coop)}"
            )
        return self.coop[key]


def preprocess(
    analyzed: AnalyzedProgram, spectrum: str = "reduce", unroll: bool = False
) -> PreprocessResult:
    """Run the Figure 5 pipeline and collect every generated variant.

    ``unroll=True`` additionally runs the loop-unrolling pass (the
    future-work item of Section III-A) over every cooperative variant.
    """
    tracer = get_tracer()
    with tracer.span("pass.planner", spectrum=spectrum):
        op = infer_reduction_op(analyzed, spectrum)
    ctype = str(analyzed.spectrum(spectrum)[0].codelet.return_type)
    result = PreprocessResult(
        analyzed=analyzed, spectrum=spectrum, reduction_op=op, ctype=ctype
    )
    result.log.append(f"planner: spectrum {spectrum!r} reduces with op {op!r}")

    _build_coop_variants(analyzed, spectrum, result)
    _build_compound_variants(analyzed, spectrum, result)
    if unroll:
        with tracer.span("pass.unroll", spectrum=spectrum) as span:
            expanded = 0
            for key, variant in result.coop.items():
                unrolled = apply_unroll(variant.codelet)
                if unrolled.loops_unrolled:
                    variant.codelet = unrolled.codelet
                    variant.unrolled = True
                    expanded += unrolled.iterations_expanded
                    result.log.append(
                        f"unroll pass on {key}: {unrolled.loops_unrolled} loop(s), "
                        f"{unrolled.iterations_expanded} iterations expanded"
                    )
            span.set(iterations_expanded=expanded)
    return result


def _base_coop_codelet(analyzed: AnalyzedProgram, spectrum: str):
    """The plain tree-based cooperative codelet (no atomic qualifiers)."""
    for info in analyzed.spectrum(spectrum):
        if info.kind == "cooperative" and not any(s.atomic for s in info.shared):
            return info
    raise TransformError(
        f"spectrum {spectrum!r} has no plain cooperative codelet"
    )


def _atomic_coop_codelets(analyzed: AnalyzedProgram, spectrum: str) -> list:
    return [
        info
        for info in analyzed.spectrum(spectrum)
        if info.kind == "cooperative" and any(s.atomic for s in info.shared)
    ]


def _build_coop_variants(analyzed, spectrum, result) -> None:
    tracer = get_tracer()
    base = _base_coop_codelet(analyzed, spectrum)
    result.coop["V"] = CoopVariant(key="V", codelet=base.codelet.clone())
    result.log.append(f"coop variant V from {base.display_name!r}")

    with tracer.span("pass.shuffle", target="V"):
        shuffled = apply_shuffle(base.codelet)
    if shuffled.rewrites:
        result.coop["VS"] = CoopVariant(
            key="VS",
            codelet=shuffled.codelet,
            uses_shuffle=True,
            disabled_arrays=shuffled.disabled_arrays,
        )
        result.log.append(
            f"shuffle pass: {shuffled.rewrites} loop(s) rewritten in "
            f"{base.display_name!r}; disabled shared arrays: "
            f"{shuffled.disabled_arrays or 'none'} -> variant VS"
        )

    for info in _atomic_coop_codelets(analyzed, spectrum):
        with tracer.span("pass.shared_atomics", target=info.display_name):
            rewritten = apply_shared_atomics(info.codelet)
        n_arrays = sum(1 for s in info.shared if not s.atomic)
        key = "VA2" if n_arrays else "VA1"
        atomic_ops = set(rewritten.atomic_symbols.values())
        if len(atomic_ops) != 1:
            raise TransformError(
                f"codelet {info.display_name!r} mixes atomic qualifiers "
                f"{sorted(atomic_ops)}"
            )
        result.coop[key] = CoopVariant(
            key=key,
            codelet=rewritten.codelet,
            uses_shared_atomic=True,
            shared_atomic_op=next(iter(atomic_ops)),
        )
        result.log.append(
            f"shared-atomic pass: {rewritten.rewrites} write(s) rewritten in "
            f"{info.display_name!r} -> variant {key}"
        )
        if key == "VA1":
            with tracer.span("pass.warp_aggregation", target=key):
                aggregated = apply_warp_aggregation(rewritten.codelet)
            if aggregated.rewrites:
                result.coop["VA1A"] = CoopVariant(
                    key="VA1A",
                    codelet=aggregated.codelet,
                    uses_shuffle=True,
                    uses_shared_atomic=True,
                    shared_atomic_op=next(iter(atomic_ops)),
                )
                result.log.append(
                    f"warp-aggregation pass: {aggregated.rewrites} atomic(s) "
                    f"aggregated per warp -> variant VA1A"
                )
        if key == "VA2":
            with tracer.span("pass.shuffle", target=key):
                both = apply_shuffle(rewritten.codelet)
            if both.rewrites:
                result.coop["VA2S"] = CoopVariant(
                    key="VA2S",
                    codelet=both.codelet,
                    uses_shuffle=True,
                    uses_shared_atomic=True,
                    shared_atomic_op=next(iter(atomic_ops)),
                    disabled_arrays=both.disabled_arrays,
                )
                result.log.append(
                    f"shuffle pass on VA2: {both.rewrites} loop(s) rewritten; "
                    f"disabled shared arrays: {both.disabled_arrays or 'none'}"
                    f" -> variant VA2S"
                )


def _build_compound_variants(analyzed, spectrum, result) -> None:
    tracer = get_tracer()
    for info in analyzed.spectrum(spectrum):
        if info.kind != "compound":
            continue
        with tracer.span("pass.global_atomics", target=info.display_name):
            atomic = apply_global_atomic(info, analyzed, atomic=True)
            non_atomic = apply_global_atomic(info, analyzed, atomic=False)
        pattern = atomic.pattern
        result.compound[pattern] = CompoundVariants(
            tag=info.codelet.tag or pattern,
            pattern=pattern,
            atomic=atomic,
            non_atomic=non_atomic,
        )
        result.log.append(
            f"global-atomic pass on {info.display_name!r}: pattern "
            f"{pattern!r}, atomic op {atomic.atomic_op!r}, spectrum call "
            f"{'disabled' if atomic.spectrum_disabled else 'kept'}"
        )
