"""AST pass: loop unrolling (the future-work item of Section III-A,
citing optimal GPGPU loop unrolling [34]).

"We can use similar pre-processing steps with AST passes to enable other
advanced optimizations, such as loop unrolling [34]. We leave them for
future work."

This pass unrolls ``for`` loops whose trip count is statically known —
in the reduction codelets, the tree/shuffle loops
``for (offset = MaxSize()/2; offset > 0; offset /= 2)`` have exactly 5
iterations. Each iteration's body is cloned with the iterator replaced
by its constant value, removing per-iteration condition/step overhead
(and, downstream, the VIR loop machinery).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from .operators import BINARY_OPCODES, COMPOUND_OPCODES, evaluate, static_value

#: Loops longer than this are left rolled (code-size guard).
MAX_UNROLL = 64


@dataclass
class UnrollResult:
    codelet: ast.Codelet
    loops_unrolled: int = 0
    iterations_expanded: int = 0


def _is_ident(expr: ast.Expr, name: str) -> bool:
    return isinstance(expr, ast.Ident) and expr.name == name


def _trip_values(loop: ast.For, vector: str = None):
    """Iterator values per iteration, or ``None`` if not static.

    The loop must read ``for (T i = a; i <op> b; i <op>= d)`` with
    static ``a``, ``b`` and ``d``; the test and the step fold through
    the lowering's own opcodes (:mod:`repro.core.operators`), so the
    unrolled values are the ones the rolled loop would take.
    """
    init, cond, step = loop.init, loop.cond, loop.step
    if not (
        isinstance(init, ast.VarDecl)
        and init.init is not None
        and isinstance(cond, ast.Binary)
        and _is_ident(cond.lhs, init.name)
        and isinstance(step, ast.Assign)
        and _is_ident(step.target, init.name)
    ):
        return None, None
    test = BINARY_OPCODES.get(cond.op)
    update = COMPOUND_OPCODES.get(step.op)
    current = static_value(init.init, vector)
    bound = static_value(cond.rhs, vector)
    delta = static_value(step.value, vector)
    if any(part is None for part in (test, update, current, bound, delta)):
        return None, None

    values = []
    while len(values) <= MAX_UNROLL:
        stays = evaluate(test, [current, bound])
        if stays is None:
            return None, None
        if not stays:
            break
        values.append(current)
        current = evaluate(update, [current, delta])
        if current is None:
            return None, None
    if len(values) > MAX_UNROLL or not values:
        return None, None
    return init.name, values


class _IteratorSubstituter(ast.NodeTransformer):
    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value

    def visit_Ident(self, node: ast.Ident):
        if node.name == self.name:
            return ast.IntLiteral(value=self.value, span=node.span)
        return node


def _body_modifies(loop: ast.For, iterator: str) -> bool:
    for node in ast.walk(loop.body):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.target, ast.Ident)
            and node.target.name == iterator
        ):
            return True
        if isinstance(node, ast.VarDecl) and node.name == iterator:
            return True  # shadowing — bail out conservatively
    return False


class _Unroller(ast.NodeTransformer):
    def __init__(self, vector: str = None):
        self.vector = vector
        self.loops = 0
        self.iterations = 0

    def visit_For(self, node: ast.For):
        self.generic_visit(node)  # unroll inner loops first
        iterator, values = _trip_values(node, self.vector)
        if iterator is None or _body_modifies(node, iterator):
            return node
        statements = []
        for value in values:
            clone = node.body.clone()
            _IteratorSubstituter(iterator, value).visit(clone)
            statements.extend(clone.stmts)
        self.loops += 1
        self.iterations += len(values)
        return statements


def apply_unroll(codelet: ast.Codelet) -> UnrollResult:
    """Return a transformed **clone** with static loops fully unrolled."""
    clone = codelet.clone()
    unroller = _Unroller(vector=clone.vector_name())
    unroller.visit(clone)
    return UnrollResult(
        codelet=clone,
        loops_unrolled=unroller.loops,
        iterations_expanded=unroller.iterations,
    )
