"""AST pass: atomic instructions on shared memory (Section III-B).

The pass finds ``__shared`` declarations carrying an atomic qualifier
(``_atomicAdd``/``_atomicSub``/``_atomicMax``/``_atomicMin``) and rewrites
every write to such a variable into an :class:`~repro.lang.ast.AtomicUpdate`
node:

* ``partial = val;``      → ``atomicAdd(&partial, val);``   (Figure 3)
* ``hist[bin] += 1;``     → ``atomicAdd(&hist[bin], 1);``   (histograms [12])

A plain ``=`` write *becomes* the qualifier's read-modify-write — exactly
the paper's semantics for Figure 3(b) line 16 → Listing 3 line 27. A
compound assignment must agree with the qualifier (``+=`` with
``_atomicAdd``); mismatches are compile errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.errors import TransformError
from ..lang.reductions import REDUCTIONS


@dataclass
class SharedAtomicResult:
    codelet: ast.Codelet
    rewrites: int = 0
    atomic_symbols: dict = field(default_factory=dict)  # name -> op


def collect_atomic_shared(codelet: ast.Codelet) -> dict:
    """Map of shared-variable name -> atomic op for qualified declarations."""
    atomics = {}
    for node in ast.walk(codelet):
        if isinstance(node, ast.VarDecl) and node.shared and node.atomic:
            atomics[node.name] = node.atomic
    return atomics


class _SharedAtomicRewriter(ast.NodeTransformer):
    def __init__(self, atomics: dict):
        self.atomics = atomics
        self.rewrites = 0

    def visit_Assign(self, node: ast.Assign):
        name = _written_shared_name(node.target)
        if name is None or name not in self.atomics:
            return self.generic_visit(node)
        op = self.atomics[name]
        if node.op not in ("=", REDUCTIONS[op].compound):
            raise TransformError(
                f"write {node.op!r} to {name!r} conflicts with its "
                f"{REDUCTIONS[op].qualifier} qualifier",
                node.span,
            )
        self.rewrites += 1
        return ast.AtomicUpdate(
            target=node.target,
            op=op,
            value=node.value,
            space="shared",
            span=node.span,
        )


def _written_shared_name(target: ast.Expr):
    if isinstance(target, ast.Ident):
        return target.name
    if isinstance(target, ast.Index) and isinstance(target.base, ast.Ident):
        return target.base.name
    return None


def apply_shared_atomics(codelet: ast.Codelet) -> SharedAtomicResult:
    """Return a transformed **clone**; the input codelet is untouched."""
    clone = codelet.clone()
    atomics = collect_atomic_shared(clone)
    rewriter = _SharedAtomicRewriter(atomics)
    rewriter.visit(clone)
    if atomics and rewriter.rewrites == 0:
        raise TransformError(
            f"codelet {codelet.display_name()!r} declares atomic shared "
            f"variables {sorted(atomics)} but never writes them"
        )
    return SharedAtomicResult(
        codelet=clone, rewrites=rewriter.rewrites, atomic_symbols=atomics
    )
