"""Semantic analysis for the Tangram-like DSL.

Responsibilities:

* build lexically scoped symbol tables and resolve every identifier;
* type every expression (annotating ``expr.ty`` in place);
* validate the DSL-specific rules — atomic qualifiers only on
  ``__shared`` declarations, ``__tunable`` only on uninitialised integer
  scalars, ``Map``/``partition``/``Sequence``/``Vector`` constructor
  shapes, spectrum call signatures;
* classify each codelet as *atomic autonomous*, *compound*, or
  *cooperative* (Section II-B-1 of the paper);
* record the metadata later passes need: the ``Vector`` handle of a
  cooperative codelet, shared declarations with their atomic qualifiers,
  ``Map`` declarations with their atomic-API calls (Section III-A), and
  tunable parameters.

The entry point is :func:`analyze`, returning an :class:`AnalyzedProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import SemanticError, TypeMismatchError
from .reductions import API_OPS, REDUCTIONS
from .symbols import Scope, Symbol
from .types import (
    BOOL,
    BufferType,
    ContainerType,
    DOUBLE,
    FLOAT,
    INT,
    MapType,
    PartitionType,
    ScalarType,
    SequenceType,
    Type,
    UNSIGNED,
    VectorType,
    VOID,
    assignable,
    promote,
)

#: Implicit identifier bound to the partition index inside ``Sequence``
#: constructor expressions, e.g. ``Sequence start(i * tile);``.
PARTITION_INDEX_NAME = "i"

VECTOR_METHODS = {
    "Size": INT,
    "MaxSize": INT,
    "ThreadId": INT,
    "LaneId": INT,
    "VectorId": INT,
}

CONTAINER_METHODS = {
    "Size": UNSIGNED,
    "Stride": UNSIGNED,
}

@dataclass
class MapInfo:
    """Metadata for one ``Map(f, partition(...))`` declaration."""

    decl: ast.VarDecl
    spectrum: str
    partition: ast.Call
    symbol: Symbol
    atomic_op: str = None  # set when map.atomicAdd() etc. appears
    atomic_call: ast.ExprStmt = None


@dataclass
class CodeletInfo:
    """Semantic summary of one codelet, consumed by the AST passes."""

    codelet: ast.Codelet
    kind: str  # atomic_autonomous | compound | cooperative
    scope: Scope
    vector: Symbol = None
    shared: list = field(default_factory=list)  # shared Symbols
    tunables: list = field(default_factory=list)
    maps: list = field(default_factory=list)  # MapInfo
    sequences: dict = field(default_factory=dict)  # name -> VarDecl
    spectrum_calls: list = field(default_factory=list)  # ast.Call nodes

    @property
    def name(self) -> str:
        return self.codelet.name

    @property
    def display_name(self) -> str:
        return self.codelet.display_name()


@dataclass
class AnalyzedProgram:
    program: ast.Program
    codelets: list = field(default_factory=list)  # CodeletInfo, source order

    def spectrum(self, name: str) -> list:
        infos = [info for info in self.codelets if info.name == name]
        if not infos:
            raise SemanticError(f"unknown spectrum {name!r}")
        return infos

    def find(self, name: str, tag: str) -> CodeletInfo:
        """Codelet of spectrum ``name`` with the given ``__tag``."""
        for info in self.spectrum(name):
            if info.codelet.tag == tag:
                return info
        raise SemanticError(f"spectrum {name!r} has no codelet tagged {tag!r}")


def analyze(program: ast.Program) -> AnalyzedProgram:
    """Run full semantic analysis over a parsed program."""
    _check_spectrum_signatures(program)
    analyzer = _Analyzer(program)
    infos = [analyzer.analyze_codelet(codelet) for codelet in program.codelets]
    return AnalyzedProgram(program=program, codelets=infos)


def _check_spectrum_signatures(program: ast.Program) -> None:
    """All codelets of one spectrum must share a call signature."""
    for name, codelets in program.spectrums().items():
        first = codelets[0]
        for other in codelets[1:]:
            if other.return_type != first.return_type:
                raise SemanticError(
                    f"codelets of spectrum {name!r} disagree on return type "
                    f"({other.return_type} vs {first.return_type})",
                    other.span,
                )
            if len(other.params) != len(first.params) or any(
                a.declared_type != b.declared_type
                for a, b in zip(other.params, first.params)
            ):
                raise SemanticError(
                    f"codelets of spectrum {name!r} disagree on parameters",
                    other.span,
                )
        tags = [c.tag for c in codelets if c.tag is not None]
        if len(tags) != len(set(tags)):
            raise SemanticError(
                f"spectrum {name!r} has duplicate __tag names", first.span
            )


class _Analyzer:
    def __init__(self, program: ast.Program):
        self.program = program
        self.spectrums = program.spectrums()
        self.info = None  # CodeletInfo under construction

    # -- codelet level -------------------------------------------------

    def analyze_codelet(self, codelet: ast.Codelet) -> CodeletInfo:
        scope = Scope()
        self.info = CodeletInfo(codelet=codelet, kind=None, scope=scope)
        if not codelet.params:
            raise SemanticError(
                f"codelet {codelet.name!r} must take at least one parameter",
                codelet.span,
            )
        first = codelet.params[0]
        if not isinstance(first.declared_type, ContainerType):
            raise SemanticError(
                f"codelet {codelet.name!r}: first parameter must be an "
                f"Array<rank,T> container",
                first.span,
            )
        for param in codelet.params:
            kind = "param"
            scope.declare(
                Symbol(param.name, param.declared_type, kind, decl=param),
                param.span,
            )
        for extra in codelet.params[1:]:
            if not isinstance(extra.declared_type, ScalarType):
                raise SemanticError(
                    "extra codelet parameters must be scalars", extra.span
                )

        self._check_block(codelet.body, Scope(scope))
        self._classify(codelet)
        if codelet.return_type != VOID and not self._has_return(codelet.body):
            raise SemanticError(
                f"codelet {codelet.name!r} returns {codelet.return_type} but has "
                f"no return statement",
                codelet.span,
            )
        info = self.info
        self.info = None
        return info

    def _classify(self, codelet: ast.Codelet) -> None:
        is_coop = codelet.coop or self.info.vector is not None
        is_compound = bool(self.info.maps)
        if is_coop and is_compound:
            raise SemanticError(
                f"codelet {codelet.name!r} cannot be both cooperative (Vector) "
                f"and compound (Map)",
                codelet.span,
            )
        if is_coop:
            if self.info.vector is None:
                raise SemanticError(
                    f"__coop codelet {codelet.name!r} must declare a Vector",
                    codelet.span,
                )
            self.info.kind = "cooperative"
        elif is_compound:
            self.info.kind = "compound"
        else:
            self.info.kind = "atomic_autonomous"
        codelet.kind = self.info.kind

    @staticmethod
    def _has_return(block: ast.Block) -> bool:
        return any(isinstance(node, ast.Return) for node in ast.walk(block))

    # -- statements ------------------------------------------------------

    def _check_block(self, block: ast.Block, scope: Scope) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr_stmt(stmt, scope)
        elif isinstance(stmt, ast.If):
            cond_ty = self._type_expr(stmt.cond, scope)
            self._require_scalar(cond_ty, stmt.cond, "if condition")
            self._check_block(stmt.then, Scope(scope))
            if stmt.otherwise is not None:
                self._check_block(stmt.otherwise, Scope(scope))
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                cond_ty = self._type_expr(stmt.cond, inner)
                self._require_scalar(cond_ty, stmt.cond, "for condition")
            if stmt.step is not None:
                self._check_stmt(stmt.step, inner)
            self._check_block(stmt.body, Scope(inner))
        elif isinstance(stmt, ast.While):
            cond_ty = self._type_expr(stmt.cond, scope)
            self._require_scalar(cond_ty, stmt.cond, "while condition")
            self._check_block(stmt.body, Scope(scope))
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt, scope)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt, Scope(scope))
        else:
            raise SemanticError(f"unhandled statement {type(stmt).__name__}", stmt.span)

    def _check_return(self, stmt: ast.Return, scope: Scope) -> None:
        expected = self.info.codelet.return_type
        if stmt.value is None:
            if expected != VOID:
                raise TypeMismatchError(
                    f"return without a value in codelet returning {expected}",
                    stmt.span,
                )
            return
        actual = self._type_expr(stmt.value, scope)
        if not assignable(expected, actual):
            raise TypeMismatchError(
                f"cannot return {actual} from codelet returning {expected}",
                stmt.span,
            )

    def _check_expr_stmt(self, stmt: ast.ExprStmt, scope: Scope) -> None:
        expr = stmt.expr
        # `map.atomicAdd();` — the Map atomic API of Section III-A.
        if (
            isinstance(expr, ast.MethodCall)
            and isinstance(expr.obj, ast.Ident)
            and expr.method in API_OPS
        ):
            symbol = scope.lookup(expr.obj.name)
            if symbol is not None and isinstance(symbol.ty, MapType):
                self._record_map_atomic(expr, stmt, symbol, scope)
                return
        self._type_expr(expr, scope)

    def _record_map_atomic(self, expr, stmt, symbol, scope) -> None:
        if expr.args:
            raise SemanticError(
                f"Map.{expr.method}() takes no arguments", expr.span
            )
        map_info = self._map_info_for(symbol)
        if map_info.atomic_op is not None:
            raise SemanticError(
                f"Map {symbol.name!r} already has an atomic API call", expr.span
            )
        map_info.atomic_op = API_OPS[expr.method]
        map_info.atomic_call = stmt
        expr.obj.ty = symbol.ty
        expr.ty = VOID

    def _map_info_for(self, symbol: Symbol) -> MapInfo:
        for map_info in self.info.maps:
            if map_info.symbol is symbol:
                return map_info
        raise SemanticError(f"no Map metadata for symbol {symbol.name!r}")

    def _check_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        target_ty = self._type_expr(stmt.target, scope, lvalue=True)
        value_ty = self._type_expr(stmt.value, scope)
        if isinstance(stmt.target, ast.Ident):
            symbol = scope.resolve(stmt.target.name, stmt.target.span)
            if symbol.kind == "param":
                raise SemanticError(
                    f"cannot assign to parameter {symbol.name!r}", stmt.span
                )
            if symbol.kind == "tunable":
                raise SemanticError(
                    f"cannot assign to __tunable {symbol.name!r}", stmt.span
                )
            if isinstance(symbol.ty, (VectorType, SequenceType, MapType)):
                raise SemanticError(
                    f"cannot assign to {symbol.ty} object {symbol.name!r}",
                    stmt.span,
                )
        if stmt.op != "=" and not (
            target_ty.is_numeric() and value_ty.is_numeric()
        ):
            raise TypeMismatchError(
                f"compound assignment {stmt.op!r} requires numeric operands "
                f"({target_ty} {stmt.op} {value_ty})",
                stmt.span,
            )
        if not assignable(target_ty, value_ty):
            raise TypeMismatchError(
                f"cannot assign {value_ty} to {target_ty}", stmt.span
            )

    def _check_var_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        if decl.atomic is not None and not decl.shared:
            raise SemanticError(
                f"{REDUCTIONS[decl.atomic].qualifier} qualifier requires __shared "
                f"(declaration of {decl.name!r})",
                decl.span,
            )
        if isinstance(decl.declared_type, VectorType):
            self._declare_vector(decl, scope)
            return
        if isinstance(decl.declared_type, SequenceType):
            self._declare_sequence(decl, scope)
            return
        if decl.declared_type is None and len(decl.ctor_args) == 2:
            self._declare_map(decl, scope)
            return
        self._declare_scalar_or_array(decl, scope)

    def _declare_vector(self, decl: ast.VarDecl, scope: Scope) -> None:
        if decl.ctor_args:
            raise SemanticError("Vector declaration takes no arguments", decl.span)
        if decl.shared or decl.tunable:
            raise SemanticError(
                "Vector declaration cannot carry memory qualifiers", decl.span
            )
        if self.info.vector is not None:
            raise SemanticError(
                "a codelet may declare at most one Vector", decl.span
            )
        symbol = scope.declare(
            Symbol(decl.name, VectorType(), "vector", decl=decl), decl.span
        )
        self.info.vector = symbol

    def _declare_sequence(self, decl: ast.VarDecl, scope: Scope) -> None:
        if len(decl.ctor_args) != 1:
            raise SemanticError(
                "Sequence declaration takes exactly one expression "
                f"(in terms of the partition index {PARTITION_INDEX_NAME!r})",
                decl.span,
            )
        # Type the generator expression with the partition index in scope.
        seq_scope = Scope(scope)
        seq_scope.declare(Symbol(PARTITION_INDEX_NAME, UNSIGNED, "local"))
        expr_ty = self._type_expr(decl.ctor_args[0], seq_scope)
        if not expr_ty.is_numeric():
            raise TypeMismatchError(
                f"Sequence expression must be numeric, got {expr_ty}",
                decl.ctor_args[0].span,
            )
        scope.declare(
            Symbol(decl.name, SequenceType(), "sequence", decl=decl), decl.span
        )
        self.info.sequences[decl.name] = decl

    def _declare_map(self, decl: ast.VarDecl, scope: Scope) -> None:
        func_arg, part_arg = decl.ctor_args
        if not isinstance(func_arg, ast.Ident):
            raise SemanticError(
                "first Map argument must name a spectrum", func_arg.span
            )
        spectrum_name = func_arg.name
        if spectrum_name not in self.spectrums:
            raise SemanticError(
                f"Map references unknown spectrum {spectrum_name!r}", func_arg.span
            )
        if not isinstance(part_arg, ast.Call) or part_arg.name != "partition":
            raise SemanticError(
                "second Map argument must be a partition(...) call", part_arg.span
            )
        partition_ty = self._type_partition(part_arg, scope)
        element = self.spectrums[spectrum_name][0].return_type
        map_ty = MapType(element=element)
        func_arg.ty = map_ty  # the spectrum reference itself
        symbol = scope.declare(
            Symbol(decl.name, map_ty, "map", decl=decl), decl.span
        )
        self.info.maps.append(
            MapInfo(decl=decl, spectrum=spectrum_name, partition=part_arg, symbol=symbol)
        )
        del partition_ty  # typing happens for its side effects on args

    def _declare_scalar_or_array(self, decl: ast.VarDecl, scope: Scope) -> None:
        declared = decl.declared_type
        if isinstance(declared, ContainerType):
            raise SemanticError(
                "Array<rank,T> containers may only appear as parameters",
                decl.span,
            )
        if not isinstance(declared, ScalarType) or declared == VOID:
            raise SemanticError(
                f"cannot declare a variable of type {declared}", decl.span
            )
        if decl.tunable:
            if not declared.is_integral():
                raise SemanticError(
                    "__tunable parameters must be integral", decl.span
                )
            if decl.init is not None or decl.dims:
                raise SemanticError(
                    "__tunable parameters take no initializer or dimensions",
                    decl.span,
                )
            symbol = scope.declare(
                Symbol(decl.name, declared, "tunable", decl=decl), decl.span
            )
            self.info.tunables.append(symbol)
            return

        for dim in decl.dims:
            dim_ty = self._type_expr(dim, scope)
            if not dim_ty.is_integral():
                raise TypeMismatchError(
                    f"array dimension must be integral, got {dim_ty}", dim.span
                )
        if decl.init is not None:
            if decl.dims:
                raise SemanticError(
                    "array declarations take no initializer", decl.span
                )
            init_ty = self._type_expr(decl.init, scope)
            if not assignable(declared, init_ty):
                raise TypeMismatchError(
                    f"cannot initialize {declared} with {init_ty}", decl.span
                )

        kind = "shared" if decl.shared else "local"
        ty = BufferType(declared) if decl.dims else declared
        symbol = scope.declare(
            Symbol(
                decl.name,
                ty,
                kind,
                decl=decl,
                atomic=decl.atomic,
                dims=list(decl.dims),
            ),
            decl.span,
        )
        if decl.shared:
            self.info.shared.append(symbol)

    # -- expressions ---------------------------------------------------

    def _require_scalar(self, ty: Type, expr: ast.Expr, what: str) -> None:
        if not isinstance(ty, ScalarType) or ty == VOID:
            raise TypeMismatchError(f"{what} must be scalar, got {ty}", expr.span)

    def _type_expr(self, expr: ast.Expr, scope: Scope, lvalue: bool = False) -> Type:
        ty = self._type_expr_inner(expr, scope, lvalue)
        expr.ty = ty
        return ty

    def _type_expr_inner(self, expr, scope, lvalue):
        if isinstance(expr, ast.IntLiteral):
            return UNSIGNED if expr.unsigned else INT
        if isinstance(expr, ast.FloatLiteral):
            return FLOAT if expr.single else DOUBLE
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.Ident):
            symbol = scope.resolve(expr.name, expr.span)
            return symbol.ty
        if isinstance(expr, ast.Unary):
            return self._type_unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._type_binary(expr, scope)
        if isinstance(expr, ast.Ternary):
            return self._type_ternary(expr, scope)
        if isinstance(expr, ast.Index):
            return self._type_index(expr, scope, lvalue)
        if isinstance(expr, ast.MethodCall):
            return self._type_method_call(expr, scope)
        if isinstance(expr, ast.Call):
            return self._type_call(expr, scope)
        raise SemanticError(f"unhandled expression {type(expr).__name__}", expr.span)

    def _type_unary(self, expr: ast.Unary, scope: Scope) -> Type:
        operand = self._type_expr(expr.operand, scope)
        if expr.op == "-":
            if not operand.is_numeric():
                raise TypeMismatchError(
                    f"unary '-' requires a numeric operand, got {operand}", expr.span
                )
            return promote(operand, INT)
        if expr.op == "!":
            self._require_scalar(operand, expr.operand, "operand of '!'")
            return BOOL
        if expr.op == "~":
            if not operand.is_integral():
                raise TypeMismatchError(
                    f"unary '~' requires an integral operand, got {operand}",
                    expr.span,
                )
            return promote(operand, INT)
        raise SemanticError(f"unknown unary operator {expr.op!r}", expr.span)

    def _type_binary(self, expr: ast.Binary, scope: Scope) -> Type:
        lhs = self._type_expr(expr.lhs, scope)
        rhs = self._type_expr(expr.rhs, scope)
        op = expr.op
        if op in ("&&", "||"):
            self._require_scalar(lhs, expr.lhs, f"operand of {op!r}")
            self._require_scalar(rhs, expr.rhs, f"operand of {op!r}")
            return BOOL
        if op in ("==", "!=", "<", "<=", ">", ">="):
            try:
                promote(lhs, rhs)
            except TypeError as exc:
                raise TypeMismatchError(str(exc), expr.span) from None
            return BOOL
        if op in ("&", "|", "^", "<<", ">>", "%"):
            if not (lhs.is_integral() and rhs.is_integral()):
                raise TypeMismatchError(
                    f"operator {op!r} requires integral operands "
                    f"({lhs} {op} {rhs})",
                    expr.span,
                )
            return promote(lhs, rhs)
        if op in ("+", "-", "*", "/"):
            if not (lhs.is_numeric() and rhs.is_numeric()):
                raise TypeMismatchError(
                    f"operator {op!r} requires numeric operands ({lhs} {op} {rhs})",
                    expr.span,
                )
            return promote(lhs, rhs)
        raise SemanticError(f"unknown binary operator {op!r}", expr.span)

    def _type_ternary(self, expr: ast.Ternary, scope: Scope) -> Type:
        cond = self._type_expr(expr.cond, scope)
        self._require_scalar(cond, expr.cond, "ternary condition")
        then = self._type_expr(expr.then, scope)
        otherwise = self._type_expr(expr.otherwise, scope)
        try:
            return promote(then, otherwise)
        except TypeError:
            if then == otherwise:
                return then
            raise TypeMismatchError(
                f"ternary branches have incompatible types {then} and {otherwise}",
                expr.span,
            ) from None

    def _type_index(self, expr: ast.Index, scope: Scope, lvalue: bool) -> Type:
        base = self._type_expr(expr.base, scope)
        index = self._type_expr(expr.index, scope)
        if not index.is_integral():
            raise TypeMismatchError(
                f"array index must be integral, got {index}", expr.index.span
            )
        if isinstance(base, ContainerType):
            if lvalue and base.const:
                raise SemanticError(
                    "cannot write to a const Array container", expr.span
                )
            return base.element
        if isinstance(base, (BufferType, MapType)):
            return base.element
        raise TypeMismatchError(f"type {base} is not indexable", expr.span)

    def _type_method_call(self, expr: ast.MethodCall, scope: Scope) -> Type:
        obj_ty = self._type_expr(expr.obj, scope)
        method = expr.method
        if isinstance(obj_ty, VectorType):
            result = VECTOR_METHODS.get(method)
            if result is None:
                raise SemanticError(
                    f"Vector has no member function {method!r}", expr.span
                )
            if expr.args:
                raise SemanticError(
                    f"Vector.{method}() takes no arguments", expr.span
                )
            return result
        if isinstance(obj_ty, ContainerType):
            result = CONTAINER_METHODS.get(method)
            if result is None:
                raise SemanticError(
                    f"Array has no member function {method!r}", expr.span
                )
            if expr.args:
                raise SemanticError(f"Array.{method}() takes no arguments", expr.span)
            return result
        if isinstance(obj_ty, MapType):
            if method == "Size":
                if expr.args:
                    raise SemanticError("Map.Size() takes no arguments", expr.span)
                return UNSIGNED
            if method in API_OPS:
                raise SemanticError(
                    f"Map.{method}() is a statement-level API, not an expression",
                    expr.span,
                )
            raise SemanticError(f"Map has no member function {method!r}", expr.span)
        raise TypeMismatchError(
            f"type {obj_ty} has no member functions", expr.span
        )

    def _type_call(self, expr: ast.Call, scope: Scope) -> Type:
        if expr.name in ("min", "max"):
            if len(expr.args) != 2:
                raise SemanticError(
                    f"{expr.name}() takes exactly two arguments", expr.span
                )
            left = self._type_expr(expr.args[0], scope)
            right = self._type_expr(expr.args[1], scope)
            if not (left.is_numeric() and right.is_numeric()):
                raise TypeMismatchError(
                    f"{expr.name}() requires numeric arguments", expr.span
                )
            return promote(left, right)
        if expr.name == "partition":
            return self._type_partition(expr, scope)
        if expr.name in self.spectrums:
            return self._type_spectrum_call(expr, scope)
        raise SemanticError(f"call to unknown function {expr.name!r}", expr.span)

    def _type_partition(self, expr: ast.Call, scope: Scope) -> Type:
        if len(expr.args) != 5:
            raise SemanticError(
                "partition(container, n, start, inc, end) takes 5 arguments",
                expr.span,
            )
        container_ty = self._type_expr(expr.args[0], scope)
        if not isinstance(container_ty, (ContainerType, MapType)):
            raise TypeMismatchError(
                f"partition() first argument must be a container, got {container_ty}",
                expr.args[0].span,
            )
        count_ty = self._type_expr(expr.args[1], scope)
        if not count_ty.is_integral():
            raise TypeMismatchError(
                f"partition() count must be integral, got {count_ty}",
                expr.args[1].span,
            )
        for seq_arg, label in zip(expr.args[2:], ("start", "inc", "end")):
            seq_ty = self._type_expr(seq_arg, scope)
            if not isinstance(seq_ty, SequenceType):
                raise TypeMismatchError(
                    f"partition() {label} argument must be a Sequence, got {seq_ty}",
                    seq_arg.span,
                )
        element = container_ty.element
        return PartitionType(element=element)

    def _type_spectrum_call(self, expr: ast.Call, scope: Scope) -> Type:
        codelets = self.spectrums[expr.name]
        signature = codelets[0]
        if len(expr.args) != len(signature.params):
            raise SemanticError(
                f"spectrum {expr.name!r} takes {len(signature.params)} argument(s), "
                f"got {len(expr.args)}",
                expr.span,
            )
        first_ty = self._type_expr(expr.args[0], scope)
        if not isinstance(first_ty, (ContainerType, MapType, PartitionType)):
            raise TypeMismatchError(
                f"spectrum call {expr.name!r} needs a container argument, "
                f"got {first_ty}",
                expr.args[0].span,
            )
        for arg, param in zip(expr.args[1:], signature.params[1:]):
            arg_ty = self._type_expr(arg, scope)
            if not assignable(param.declared_type, arg_ty):
                raise TypeMismatchError(
                    f"argument {param.name!r} of spectrum {expr.name!r} expects "
                    f"{param.declared_type}, got {arg_ty}",
                    arg.span,
                )
        self.info.spectrum_calls.append(expr)
        return signature.return_type


def analyze_source(text: str, name: str = "<dsl>") -> AnalyzedProgram:
    """Parse and analyze DSL source text in one step."""
    from .parser import parse_program

    return analyze(parse_program(text, name))
