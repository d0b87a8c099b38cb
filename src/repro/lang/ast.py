"""Abstract syntax tree for the Tangram-like DSL.

Nodes deliberately mirror the constructs that appear in Figures 1 and 3
of the paper: codelets with qualifiers (``__codelet``, ``__coop``,
``__tag``), variable declarations with memory qualifiers (``__shared``,
``__tunable``, ``_atomicAdd`` …), the ``Map``/``Partition``/``Sequence``/
``Vector`` primitives, tree-reduction ``for`` loops, and ternary guards.

Two traversal helpers are provided:

* :class:`NodeVisitor` — read-only dispatch on node class names;
* :class:`NodeTransformer` — rebuild-style traversal used by the AST
  passes in :mod:`repro.core`; returning a new node replaces the old one,
  returning ``None`` from a statement visit deletes the statement.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

from .source import DUMMY_SPAN, Span
from .types import Type


@dataclass
class Node:
    """Base class; every node records its source span.

    Subclasses list their semantic fields first; ``span`` is always
    keyword-optional so passes can synthesize nodes conveniently.
    """

    def children(self):
        """Yield ``(field_name, child)`` for every Node/list-of-Node field."""
        for f in fields(self):
            if f.name == "span":
                continue
            value = getattr(self, f.name)
            if isinstance(value, Node):
                yield f.name, value
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    if isinstance(item, Node):
                        yield f"{f.name}[{index}]", item

    def clone(self) -> "Node":
        """Deep copy; used by passes that must not mutate shared codelets."""
        return copy.deepcopy(self)


# ---------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions. ``ty`` is filled by semantic analysis."""


@dataclass
class IntLiteral(Expr):
    value: int
    unsigned: bool = False
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class FloatLiteral(Expr):
    value: float
    single: bool = True
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class BoolLiteral(Expr):
    value: bool
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Ident(Expr):
    name: str
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Unary(Expr):
    op: str  # one of: - ! ~
    operand: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Binary(Expr):
    op: str  # arithmetic/comparison/logical/bitwise operator text
    lhs: Expr = None
    rhs: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Ternary(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Call(Expr):
    """Free-function call: builtin (``min``, ``max``, ``partition``) or a
    spectrum call such as ``sum(map)``."""

    name: str
    args: list = field(default_factory=list)
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class MethodCall(Expr):
    """Member-function call on a primitive object, e.g.
    ``vthread.LaneId()``, ``in.Size()``, ``map.atomicAdd()``."""

    obj: Expr = None
    method: str = ""
    args: list = field(default_factory=list)
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


# ---------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Stmt):
    """Variable declaration, covering plain scalars, raw arrays, and the
    primitive objects ``Vector``/``Sequence``/``Map``.

    ``atomic`` is the paper's shared-memory atomic qualifier (Section
    III-B): one of ``None``/``"add"``/``"sub"``/``"max"``/``"min"``.
    """

    name: str
    declared_type: Type = None
    dims: list = field(default_factory=list)  # array dimension exprs
    init: Expr = None
    ctor_args: list = field(default_factory=list)  # Vector/Sequence/Map
    shared: bool = False
    tunable: bool = False
    atomic: str = None
    span: Span = field(default=DUMMY_SPAN, compare=False)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Assign(Stmt):
    """Assignment or compound assignment to an lvalue."""

    target: Expr = None
    op: str = "="  # = += -= *= /= %=
    value: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class Block(Stmt):
    stmts: list = field(default_factory=list)
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Block = None
    otherwise: Block = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class For(Stmt):
    """C-style for loop. ``init`` and ``step`` are statements (or None)."""

    init: Stmt = None
    cond: Expr = None
    step: Stmt = None
    body: Block = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Block = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class Return(Stmt):
    value: Expr = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


# ---------------------------------------------------------------------
# Pass-introduced nodes (Section III of the paper)
# ---------------------------------------------------------------------


@dataclass
class WarpShuffle(Expr):
    """``__shfl_down(value, offset)`` / ``__shfl_up`` — produced by the
    warp-shuffle detection pass (Section III-C); never written by users."""

    value: Expr = None
    offset: Expr = None
    direction: str = "down"  # down | up
    width: int = 32
    span: Span = field(default=DUMMY_SPAN, compare=False)
    ty: Type = field(default=None, compare=False)


@dataclass
class AtomicUpdate(Stmt):
    """``atomicAdd(&target, value)`` — produced by the shared-memory
    atomic-qualifier pass (Section III-B) and by the Map global-atomic
    pass (Section III-A)."""

    target: Expr = None  # Ident or Index lvalue
    op: str = "add"  # add | sub | max | min
    value: Expr = None
    space: str = "shared"  # shared | global
    scope: str = "device"  # device | block (Pascal scoped atomics)
    span: Span = field(default=DUMMY_SPAN, compare=False)


# ---------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str
    declared_type: Type = None
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass
class Codelet(Node):
    """One ``__codelet`` definition.

    ``kind`` is filled in by semantic analysis with one of
    ``"atomic_autonomous"``, ``"compound"``, or ``"cooperative"``
    (the classification of Section II-B-1).
    """

    name: str
    return_type: Type = None
    params: list = field(default_factory=list)
    body: Block = None
    coop: bool = False
    tag: str = None
    span: Span = field(default=DUMMY_SPAN, compare=False)
    kind: str = field(default=None, compare=False)

    def display_name(self) -> str:
        if self.tag:
            return f"{self.name}@{self.tag}"
        return self.name

    def vector_name(self):
        """The name of the codelet's ``Vector`` (semantic analysis allows
        at most one), or None: a codelet with one is cooperative."""
        for node in walk(self):
            if isinstance(node, VarDecl) and str(node.declared_type) == "Vector":
                return node.name
        return None

    def shared_names(self) -> frozenset:
        """The names of the codelet's ``__shared`` variables."""
        return frozenset(
            node.name for node in walk(self)
            if isinstance(node, VarDecl) and node.shared
        )


@dataclass
class Program(Node):
    codelets: list = field(default_factory=list)
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def spectrums(self) -> dict:
        """Group codelets by spectrum name, preserving source order."""
        grouped = {}
        for codelet in self.codelets:
            grouped.setdefault(codelet.name, []).append(codelet)
        return grouped


# ---------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------


class NodeVisitor:
    """Read-only visitor with ``visit_<ClassName>`` dispatch."""

    def visit(self, node: Node):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node):
        for _, child in node.children():
            self.visit(child)
        return None


class NodeTransformer(NodeVisitor):
    """Rebuild-style transformer.

    ``visit`` must return the (possibly new) node. For statements inside a
    :class:`Block`, returning ``None`` removes the statement and returning
    a list splices several statements in its place.
    """

    def generic_visit(self, node: Node):
        for f in fields(node):
            if f.name == "span":
                continue
            value = getattr(node, f.name)
            if isinstance(value, Node):
                setattr(node, f.name, self.visit(value))
            elif isinstance(value, list):
                new_items = []
                for item in value:
                    if not isinstance(item, Node):
                        new_items.append(item)
                        continue
                    result = self.visit(item)
                    if result is None:
                        continue
                    if isinstance(result, list):
                        new_items.extend(result)
                    else:
                        new_items.append(result)
                setattr(node, f.name, new_items)
        return node


def walk(node: Node):
    """Yield ``node`` and all descendants in pre-order."""
    yield node
    for _, child in node.children():
        yield from walk(child)


def find_all(node: Node, node_type) -> list:
    """All descendants (including ``node``) of the given class."""
    return [n for n in walk(node) if isinstance(n, node_type)]


def dump(node: Node, indent: int = 0) -> str:
    """Readable multi-line dump used in tests and debugging."""
    pad = "  " * indent
    name = type(node).__name__
    scalars = []
    for f in fields(node):
        if f.name in ("span", "ty"):
            continue
        value = getattr(node, f.name)
        if isinstance(value, (str, int, float, bool, Type)) or value is None:
            scalars.append(f"{f.name}={value!r}")
    lines = [f"{pad}{name}({', '.join(scalars)})"]
    for label, child in node.children():
        lines.append(f"{pad}  .{label}:")
        lines.append(dump(child, indent + 2))
    return "\n".join(lines)
