"""AST pass: atomic instructions on global memory (Section III-A).

A compound codelet may contain both a Map atomic API call
(``map.atomicAdd();``) and a non-atomic spectrum call (``reduce(map)``)
— they are mutually exclusive alternatives (Figure 1(b) lines 10–11).
This pass generates the two variants:

* **non-atomic** (Listing 1): drop the atomic API call; partial results
  go to a per-partition array and a second spectrum call combines them;
* **atomic** (Listing 2): check that the spectrum call applies *the same
  computation* as the atomic API; if so, disable the spectrum call — the
  partial results are accumulated into a single location with
  ``atomicAdd``/``atomicAdd_block``. If the computations differ, the
  spectrum call is left in place (the paper's rule).

The module also derives the metadata lowering needs from a compound
codelet: the partition access pattern (tiled or strided, read off the
``Sequence`` generator expressions) and the spectrum's reduction
operator (inferred from the atomic-autonomous codelet's accumulate
statement).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import AnalyzedProgram, CodeletInfo, ast
from ..lang.errors import TransformError
from ..lang.reductions import API_OPS, match_combine


@dataclass
class GlobalAtomicResult:
    codelet: ast.Codelet
    atomic: bool
    map_name: str
    atomic_op: str = None
    spectrum_disabled: bool = False
    pattern: str = None  # tile | stride


def infer_reduction_op(analyzed: AnalyzedProgram, spectrum: str) -> str:
    """The reduction operator a spectrum computes.

    Read from the atomic-autonomous codelet's accumulate statement:
    ``accum += x`` → add, ``accum -= x`` → sub,
    ``accum = max(accum, x)`` → max, ... .
    """
    for info in analyzed.spectrum(spectrum):
        if info.kind != "atomic_autonomous":
            continue
        op = _accumulate_op(info.codelet)
        if op is not None:
            return op
    raise TransformError(
        f"cannot infer the reduction operator of spectrum {spectrum!r}: "
        f"no atomic-autonomous codelet with a recognizable accumulate"
    )


def _accumulate_op(codelet: ast.Codelet):
    accumulator = _returned_name(codelet)
    if accumulator is None:
        return None
    for node in ast.walk(codelet):
        match = match_combine(node)
        if match is not None and match[1] == accumulator:
            return match[0]
    return None


def _returned_name(codelet: ast.Codelet):
    for node in ast.walk(codelet):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Ident):
            return node.value.name
    return None


def classify_partition(info: CodeletInfo, map_index: int = 0) -> str:
    """Read the access pattern off the Sequence generators (Figure 1(b)).

    ``inc(1)`` means consecutive elements per sub-container → **tile**;
    ``inc(p)`` (the partition count) means interleaved → **stride**.
    """
    if not info.maps:
        raise TransformError(
            f"codelet {info.display_name!r} is not compound (no Map)"
        )
    map_info = info.maps[map_index]
    args = map_info.partition.args
    count_arg = args[1]
    inc_arg = args[3]
    if not isinstance(inc_arg, ast.Ident):
        raise TransformError(
            "partition() inc argument must name a Sequence", inc_arg.span
        )
    inc_decl = info.sequences.get(inc_arg.name)
    if inc_decl is None:
        raise TransformError(
            f"unknown Sequence {inc_arg.name!r} in partition()", inc_arg.span
        )
    inc_expr = inc_decl.ctor_args[0]
    if isinstance(inc_expr, ast.IntLiteral) and inc_expr.value == 1:
        return "tile"
    if (
        isinstance(inc_expr, ast.Ident)
        and isinstance(count_arg, ast.Ident)
        and inc_expr.name == count_arg.name
    ):
        return "stride"
    raise TransformError(
        f"unsupported Sequence increment {ast.dump(inc_expr)!r}; expected 1 "
        f"(tiled) or the partition count (strided)",
        inc_expr.span,
    )


def apply_global_atomic(
    info: CodeletInfo, analyzed: AnalyzedProgram, atomic: bool
) -> GlobalAtomicResult:
    """Generate the atomic or non-atomic variant of a compound codelet.

    Returns a transformed **clone**; the original codelet is untouched.
    """
    if not info.maps:
        raise TransformError(
            f"codelet {info.display_name!r} has no Map to transform"
        )
    if len(info.maps) != 1:
        raise TransformError(
            f"codelet {info.display_name!r}: exactly one Map is supported"
        )
    map_info = info.maps[0]
    pattern = classify_partition(info)
    clone = info.codelet.clone()

    if not atomic:
        removed = _remove_atomic_api_calls(clone, map_info.decl.name)
        if map_info.atomic_op is not None and removed == 0:
            raise TransformError(
                f"failed to drop atomic API call on Map {map_info.decl.name!r}"
            )
        return GlobalAtomicResult(
            codelet=clone,
            atomic=False,
            map_name=map_info.decl.name,
            atomic_op=None,
            spectrum_disabled=False,
            pattern=pattern,
        )

    if map_info.atomic_op is None:
        raise TransformError(
            f"codelet {info.display_name!r} has no Map atomic API call; "
            f"cannot generate the atomic variant"
        )
    spectrum_op = infer_reduction_op(analyzed, map_info.spectrum)
    same_computation = spectrum_op == map_info.atomic_op
    disabled = False
    if same_computation:
        disabled = _disable_spectrum_calls_on_map(
            clone, map_info.spectrum, map_info.decl.name
        )
    return GlobalAtomicResult(
        codelet=clone,
        atomic=True,
        map_name=map_info.decl.name,
        atomic_op=map_info.atomic_op,
        spectrum_disabled=disabled,
        pattern=pattern,
    )


class _AtomicApiRemover(ast.NodeTransformer):
    def __init__(self, map_name: str):
        self.map_name = map_name
        self.removed = 0

    def visit_ExprStmt(self, node: ast.ExprStmt):
        expr = node.expr
        if (
            isinstance(expr, ast.MethodCall)
            and expr.method in API_OPS
            and isinstance(expr.obj, ast.Ident)
            and expr.obj.name == self.map_name
        ):
            self.removed += 1
            return None
        return node


def _remove_atomic_api_calls(codelet: ast.Codelet, map_name: str) -> int:
    remover = _AtomicApiRemover(map_name)
    remover.visit(codelet)
    return remover.removed


class _SpectrumCallDisabler(ast.NodeTransformer):
    """Replace ``return reduce(map)`` with ``return map`` — the partials
    are already combined atomically, so the result *is* the accumulator
    (Listing 2's single-variable allocation)."""

    def __init__(self, spectrum: str, map_name: str):
        self.spectrum = spectrum
        self.map_name = map_name
        self.disabled = 0

    def visit_Return(self, node: ast.Return):
        value = node.value
        if (
            isinstance(value, ast.Call)
            and value.name == self.spectrum
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Ident)
            and value.args[0].name == self.map_name
        ):
            self.disabled += 1
            node.value = ast.Ident(name=self.map_name, span=value.span)
        return node


def _disable_spectrum_calls_on_map(
    codelet: ast.Codelet, spectrum: str, map_name: str
) -> bool:
    disabler = _SpectrumCallDisabler(spectrum, map_name)
    disabler.visit(codelet)
    return disabler.disabled > 0
