"""What each DSL operator means: one opcode table and one constant
evaluator.

The lowering (:mod:`repro.codegen.compiler`) emits each C operator as
the VIR opcode :data:`BINARY_OPCODES` or :data:`UNARY_OPCODES` names,
and each compound assignment ``x op= v`` as ``x = x op v`` through
:data:`COMPOUND_OPCODES`, which is derived from the same table, so every
assignment the parser accepts lowers. Every pass that needs an AST
expression's compile-time value — the unroll pass's trip counts, the
shared-array sizes of the lowering and of the CUDA emitter — takes it
from :func:`static_value`, which folds through the same opcodes with
:func:`repro.vir.analysis.fold`. A folded constant is therefore what the
simulated registers would hold: int64 two's complement, with C's
truncating ``/`` and ``%`` on ints (:data:`repro.vir.instructions.ALU_IMPL`).
"""

from __future__ import annotations

from ..lang import ast
from ..vir.analysis import UNKNOWN, fold
from ..vir.instructions import WARP

#: Arithmetic and bitwise C operators (those with a compound assignment)
#: -> VIR opcode.
_ARITHMETIC = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
}

#: C binary operator -> VIR opcode.
BINARY_OPCODES = {
    **_ARITHMETIC,
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "!=": "ne",
    "&&": "land",
    "||": "lor",
}

#: C unary operator -> VIR opcode.
UNARY_OPCODES = {"-": "neg", "!": "lnot", "~": "bnot"}

#: Compound assignment (``+=``, ``>>=`` …) -> VIR opcode of its operator.
COMPOUND_OPCODES = {op + "=": opcode for op, opcode in _ARITHMETIC.items()}


def evaluate(opcode: str, values):
    """``opcode`` over constant operands, as the registers compute it, or
    None where it has no value (a zero divisor, say)."""
    result = fold(opcode, values)
    return None if result is UNKNOWN else result


def static_value(expr: ast.Expr, vector: str = None, sizes: dict = None):
    """The compile-time value of ``expr``, or None when it has none.

    Integer literals have one, and so do ``vector.MaxSize()``/``Size()``
    (the warp size, Figure 2) and ``c.Size()`` of a container ``c``
    whose static bound ``sizes`` holds. Unary and binary operators fold
    through their VIR opcode (:func:`evaluate`). A variable, a runtime
    size or a division by zero has no static value.
    """
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.MethodCall) and isinstance(expr.obj, ast.Ident):
        name = expr.obj.name
        if name == vector and expr.method in ("MaxSize", "Size"):
            return WARP
        if expr.method == "Size" and sizes:
            return sizes.get(name)
        return None
    if isinstance(expr, ast.Unary):
        opcode = UNARY_OPCODES.get(expr.op)
        operands = (expr.operand,)
    elif isinstance(expr, ast.Binary):
        opcode = BINARY_OPCODES.get(expr.op)
        operands = (expr.lhs, expr.rhs)
    else:
        return None
    values = [static_value(operand, vector, sizes) for operand in operands]
    if opcode is None or any(value is None for value in values):
        return None
    return evaluate(opcode, values)
