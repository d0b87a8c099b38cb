"""AST pass: warp-aggregated atomics (the paper's Section III-D
extension, citing Adinets' warp-aggregated atomics [25]).

"The code variants with atomic and warp shuffle instructions can be
further extended ... For example, aggregate atomics [25] could be
supported through the atomic APIs and qualifiers described in Sections
III-A and III-B with new AST passes and transformations."

This pass implements that future-work item. For an
:class:`~repro.lang.ast.AtomicUpdate` on a *scalar* shared accumulator
that every thread executes (warp-uniform — i.e. not nested inside
divergent control flow), the update is rewritten into:

1. a warp-level shuffle reduction of the contribution, and
2. a single atomic update issued by lane 0 of each warp,

cutting same-address atomic traffic by the warp width. On Kepler —
whose shared atomics are a software lock loop — this is exactly the
trick library developers used to avoid shared atomics [25]; the
ablation bench quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.reductions import REDUCTIONS, combine_stmt
from ..vir.instructions import WARP


@dataclass
class AggregateResult:
    codelet: ast.Codelet
    rewrites: int = 0


def _build_aggregation(update: ast.AtomicUpdate, vector: str, index: int) -> list:
    """Statements replacing one warp-uniform AtomicUpdate."""
    agg_name = f"__agg{index}"
    offset_name = f"__agg_off{index}"
    decl = ast.VarDecl(
        name=agg_name,
        declared_type=update.value.ty if update.value.ty else None,
        init=update.value,
        span=update.span,
    )
    # shared scalar contributions are float/int scalars; default to the
    # value's inferred type, falling back to float
    if decl.declared_type is None or not decl.declared_type.is_scalar():
        from ..lang.types import FLOAT

        decl.declared_type = FLOAT

    shuffle = ast.WarpShuffle(
        value=ast.Ident(name=agg_name),
        offset=ast.Ident(name=offset_name),
        direction="down",
        width=WARP,
    )
    # a warp merges its contributions (a subtraction's add up), and the
    # leader's one update applies them
    combine = combine_stmt(REDUCTIONS[update.op].merge, agg_name, shuffle)
    loop = ast.For(
        init=ast.VarDecl(
            name=offset_name,
            declared_type=_int_type(),
            init=ast.IntLiteral(value=WARP // 2),
        ),
        cond=ast.Binary(op=">", lhs=ast.Ident(name=offset_name),
                        rhs=ast.IntLiteral(value=0)),
        step=ast.Assign(target=ast.Ident(name=offset_name), op="/=",
                        value=ast.IntLiteral(value=2)),
        body=ast.Block(stmts=[combine]),
        span=update.span,
    )
    lane_is_zero = ast.Binary(
        op="==",
        lhs=ast.MethodCall(obj=ast.Ident(name=vector), method="LaneId"),
        rhs=ast.IntLiteral(value=0),
    )
    leader_update = ast.AtomicUpdate(
        target=update.target,
        op=update.op,
        value=ast.Ident(name=agg_name),
        space=update.space,
        scope=update.scope,
        span=update.span,
    )
    guard = ast.If(cond=lane_is_zero, then=ast.Block(stmts=[leader_update]))
    return [decl, loop, guard]


def _int_type():
    from ..lang.types import INT

    return INT


def apply_warp_aggregation(codelet: ast.Codelet) -> AggregateResult:
    """Return a transformed **clone** with warp-uniform scalar atomic
    updates aggregated per warp. The input codelet is untouched."""
    clone = codelet.clone()
    vector = clone.vector_name()
    if vector is None:
        return AggregateResult(codelet=clone, rewrites=0)

    rewrites = 0
    body = clone.body.stmts
    new_body = []
    for stmt in body:
        if _is_uniform_scalar_atomic(stmt):
            new_body.extend(_build_aggregation(stmt, vector, rewrites))
            rewrites += 1
        else:
            new_body.append(stmt)
    clone.body.stmts = new_body
    return AggregateResult(codelet=clone, rewrites=rewrites)


def _is_uniform_scalar_atomic(stmt: ast.Stmt) -> bool:
    """Only *top-level* updates to a scalar accumulator are warp-uniform:
    anything nested in control flow may be divergent, and array targets
    (histograms) hit different addresses per lane."""
    return isinstance(stmt, ast.AtomicUpdate) and isinstance(
        stmt.target, ast.Ident
    )
