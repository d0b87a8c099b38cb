"""The reduction operators, each defined once for every layer.

The Map atomic API (``map.atomicAdd();``, Section III-A) and the shared
atomic qualifiers (``__shared _atomicAdd``, Section III-B) each name one
reduction operator. :data:`REDUCTIONS` holds everything a layer needs
to know about an operator:

* its identity per element type, as the one C literal that the DSL
  library and the CUDA listings print; :func:`identity_value` reads the
  value the lowering stores and the host memsets from that literal;
* its Map API name (``_block`` is derived from it) and its shared
  qualifier spelling, which the lexer, semantic analysis, the passes
  and the CUDA emitter read;
* the shape of its combine statement, ``acc += v`` or
  ``acc = max(acc, v)``: :func:`combine_stmt` builds it,
  :func:`combine_source` writes it as text and :func:`match_combine`
  recognises it.

What an atomic computes on the simulated device is defined beside the
ALU opcodes, in :data:`repro.vir.instructions.ATOMIC_IMPL`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast

#: Element types of a reduction program.
CTYPES = ("float", "int")

#: The max/min identities: the type's lowest and highest values
#: (``-FLT_MAX``/``FLT_MAX``, ``INT_MIN``/``INT_MAX``), so each is
#: neutral on every value of its type.
_FLT_MAX = "3.40282347e38f"
_INT_MIN = "(-2147483647 - 1)"
_INT_MAX = "2147483647"


@dataclass(frozen=True)
class Reduction:
    """One reduction operator."""

    op: str
    api: str  # Map atomic API method (Section III-A)
    qualifier: str  # shared atomic qualifier (Section III-B)
    identity: dict  # ctype -> C literal
    compound: str  # the combine is ``acc <compound> v``; None: ``acc = op(acc, v)``
    merge: str  # the op that merges two contributions before one update

    @property
    def block_api(self) -> str:
        """The block-scoped atomic (``atomicAdd_block``, Listing 2)."""
        return self.api + "_block"


REDUCTIONS = {
    r.op: r
    for r in (
        Reduction("add", "atomicAdd", "_atomicAdd",
                  {"float": "0.0f", "int": "0"}, "+=", "add"),
        # contributions to a subtraction add up; one atomicSub applies them
        Reduction("sub", "atomicSub", "_atomicSub",
                  {"float": "0.0f", "int": "0"}, "-=", "add"),
        Reduction("max", "atomicMax", "_atomicMax",
                  {"float": f"-{_FLT_MAX}", "int": _INT_MIN}, None, "max"),
        Reduction("min", "atomicMin", "_atomicMin",
                  {"float": _FLT_MAX, "int": _INT_MAX}, None, "min"),
    )
}

#: Every reduction operator of the Map atomic API.
REDUCTION_OPS = tuple(REDUCTIONS)

#: The associative and commutative operators (those that merge as
#: themselves): a tree or a warp shuffle may regroup them, so they have
#: a full DSL codelet library.
LIBRARY_OPS = tuple(op for op, r in REDUCTIONS.items() if r.merge == op)

#: Map API method -> op, and shared qualifier -> op.
API_OPS = {r.api: op for op, r in REDUCTIONS.items()}
QUALIFIER_OPS = {r.qualifier: op for op, r in REDUCTIONS.items()}

_COMPOUND_OPS = {r.compound: op for op, r in REDUCTIONS.items() if r.compound}


def reduction(op: str) -> Reduction:
    if op not in REDUCTIONS:
        raise ValueError(f"unknown reduction op {op!r}")
    return REDUCTIONS[op]


def identity_literal(op: str, ctype: str) -> str:
    """The identity of ``op`` on ``ctype`` as a C literal."""
    if ctype not in CTYPES:
        raise ValueError(f"ctype must be 'float' or 'int', got {ctype!r}")
    return reduction(op).identity[ctype]


def identity_value(op: str, ctype: str):
    """The identity as the lowering stores it: the Python float or int
    that :func:`identity_literal` spells (an int identity may be a
    constant expression, folded as the lowering folds it)."""
    literal = identity_literal(op, ctype)
    if ctype == "float":
        return float(literal.rstrip("f"))
    from ..core.operators import static_value  # core imports lang
    from .parser import parse_expression

    return static_value(parse_expression(literal))


def combine_stmt(op: str, accumulator: str, value: ast.Expr) -> ast.Assign:
    """``accumulator += value`` or ``accumulator = max(accumulator, value)``."""
    compound = reduction(op).compound
    if compound:
        return ast.Assign(target=ast.Ident(name=accumulator), op=compound, value=value)
    return ast.Assign(
        target=ast.Ident(name=accumulator),
        op="=",
        value=ast.Call(name=op, args=[ast.Ident(name=accumulator), value]),
    )


def combine_source(op: str, accumulator: str, value: str) -> str:
    """:func:`combine_stmt` as DSL (and C) text."""
    compound = reduction(op).compound
    if compound:
        return f"{accumulator} {compound} {value};"
    return f"{accumulator} = {op}({accumulator}, {value});"


def match_combine(stmt: ast.Stmt):
    """``(op, accumulator, value)`` when ``stmt`` is a statement
    :func:`combine_stmt` builds, else None."""
    if not (isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Ident)):
        return None
    accumulator = stmt.target.name
    if stmt.op in _COMPOUND_OPS:
        return _COMPOUND_OPS[stmt.op], accumulator, stmt.value
    call = stmt.value
    if (
        stmt.op == "="
        and isinstance(call, ast.Call)
        and call.name in REDUCTIONS
        and REDUCTIONS[call.name].compound is None
        and len(call.args) == 2
        and isinstance(call.args[0], ast.Ident)
        and call.args[0].name == accumulator
    ):
        return call.name, accumulator, call.args[1]
    return None
