"""Generic lowering of (transformed) codelet ASTs to VIR.

This is the stage that turns the output of the AST passes into
executable code. It compiles:

* **cooperative codelets** (V / VS / VA1 / VA2 / VA2S) — ``Vector``
  member functions map to SIMT special registers, ``__shared``
  declarations become shared buffers (initialized to the reduction
  identity, like Listing 3 lines 5–11), :class:`~repro.lang.ast.AtomicUpdate`
  becomes ``atom.shared``, :class:`~repro.lang.ast.WarpShuffle` becomes
  ``shfl``; barriers follow the statements that write shared memory
  (:func:`writes_shared`, the ``__syncthreads()`` placement of
  Listings 3 and 4);
* **scalar (atomic autonomous) codelets** — the per-thread serial loop
  of Figure 1(a), over an affine view of global memory.

The codelet's container parameter is bound by the synthesizer to one of:

* :class:`GlobalView` — an affine slice ``buf[base + i*stride]`` of a
  global buffer (a block's sub-container);
* :class:`RegisterPartials` — per-thread partial results living in a
  register, indexable only by ``ThreadId()`` (the compound-block combine
  stage, where "contents come directly from the input").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.operators import (
    BINARY_OPCODES,
    COMPOUND_OPCODES,
    UNARY_OPCODES,
    static_value,
)
from ..lang import ast
from ..lang.errors import LoweringError
from ..vir import IRBuilder, Imm, Reg, SharedDecl
from ..vir.instructions import WARP

# ---------------------------------------------------------------------
# Container bindings
# ---------------------------------------------------------------------


@dataclass
class GlobalView:
    """Affine view ``buf[base + i * stride]`` with ``size`` elements."""

    buf: str
    base: object  # operand
    stride: object  # operand or int
    size: object  # operand (runtime element count)
    size_static: int = None  # compile-time bound for shared allocation

    def load(self, compiler: "CodeletToVIR", index_expr: ast.Expr):
        b = compiler.builder
        idx = compiler.compile_expr(index_expr)
        stride = self.stride
        if isinstance(stride, int):
            stride = Imm(stride)
        if isinstance(stride, Imm) and stride.value == 1:
            scaled = idx
        else:
            scaled = b.binop("mul", idx, stride)
        base = self.base
        if isinstance(base, Imm) and base.value == 0:
            addr = scaled
        else:
            addr = b.binop("add", base, scaled)
        return b.ld_global(self.buf, addr)


@dataclass
class RegisterPartials:
    """Per-thread partials in a register; only ``in[ThreadId()]`` is legal."""

    value: Reg
    count: int  # blockDim

    @property
    def size(self):
        return Imm(self.count)

    @property
    def size_static(self):
        return self.count

    def load(self, compiler: "CodeletToVIR", index_expr: ast.Expr):
        if not compiler.is_thread_id(index_expr):
            raise LoweringError(
                "register-partials containers may only be indexed with "
                "Vector.ThreadId()",
                index_expr.span,
            )
        return self.value


# ---------------------------------------------------------------------
# Variable slots
# ---------------------------------------------------------------------


@dataclass
class _RegSlot:
    reg: Reg


@dataclass
class _SharedScalarSlot:
    buf: str
    atomic: str = None


@dataclass
class _SharedArraySlot:
    buf: str
    size: int
    atomic: str = None


@dataclass
class _VectorSlot:
    pass


@dataclass
class _ContainerSlot:
    binding: object


class CodeletToVIR:
    """Compiles one codelet body into the current builder region."""

    def __init__(
        self,
        builder: IRBuilder,
        codelet: ast.Codelet,
        binding,
        *,
        identity: float = 0.0,
        prefix: str = "c",
    ):
        self.builder = builder
        self.codelet = codelet
        self.binding = binding
        self.identity = identity
        self.prefix = prefix
        self.shared_decls = []
        self.env = {}
        self.ret_reg = None
        self.vector = codelet.vector_name()
        self.shared = codelet.shared_names()
        self._specials = {}

    # -- public ----------------------------------------------------------

    def compile(self) -> Reg:
        """Compile the codelet body; returns the register holding the
        codelet's return value."""
        params = self.codelet.params
        self.env[params[0].name] = _ContainerSlot(self.binding)
        for extra in params[1:]:
            raise LoweringError(
                f"extra codelet parameter {extra.name!r} is not supported by "
                f"lowering yet",
                extra.span,
            )
        self.ret_reg = self.builder.fresh(f"{self.prefix}_ret")
        self._compile_block(self.codelet.body)
        return self.ret_reg

    # -- specials -----------------------------------------------------------

    def _special(self, kind: str) -> Reg:
        if kind not in self._specials:
            self._specials[kind] = self.builder.special(kind)
        return self._specials[kind]

    def is_thread_id(self, expr: ast.Expr) -> bool:
        return (
            isinstance(expr, ast.MethodCall)
            and expr.method == "ThreadId"
            and isinstance(expr.obj, ast.Ident)
            and expr.obj.name == self.vector
        )

    # -- statements -----------------------------------------------------------

    def _compile_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._compile_stmt(stmt)
            # Only a cooperative codelet (one with a Vector) has barriers.
            if self.vector is not None and writes_shared(stmt, self.shared):
                self.builder.bar()

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._compile_var_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._compile_assign(stmt)
        elif isinstance(stmt, ast.AtomicUpdate):
            self._compile_atomic_update(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.compile_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._compile_return(stmt)
        elif isinstance(stmt, ast.Block):
            self._compile_block(stmt)
        else:
            raise LoweringError(
                f"cannot lower statement {type(stmt).__name__}", stmt.span
            )

    def _compile_var_decl(self, decl: ast.VarDecl) -> None:
        type_name = str(decl.declared_type) if decl.declared_type else ""
        if type_name == "Vector":
            self.env[decl.name] = _VectorSlot()
            return
        if type_name in ("Sequence",) or decl.ctor_args:
            raise LoweringError(
                f"{type_name or 'Map'} declarations belong to compound "
                f"codelets and are lowered by the synthesizer",
                decl.span,
            )
        if decl.shared:
            self._compile_shared_decl(decl)
            return
        reg = self.builder.fresh(f"{self.prefix}_{decl.name}")
        self.env[decl.name] = _RegSlot(reg)
        if decl.init is not None:
            value = self.compile_expr(decl.init)
            self.builder.mov(value, dst=reg)

    def _compile_shared_decl(self, decl: ast.VarDecl) -> None:
        buf = f"{self.prefix}_{decl.name}"
        b = self.builder
        if decl.dims:
            if len(decl.dims) != 1:
                raise LoweringError("only 1-D shared arrays supported", decl.span)
            size = self._static_size(decl.dims[0])
            self.shared_decls.append(SharedDecl(buf, size))
            self.env[decl.name] = _SharedArraySlot(buf, size, atomic=decl.atomic)
            # Cooperative initialization to the reduction identity
            # (Listing 3 lines 9-11; identity generalizes the 0 of sums).
            tid = self._special("tid")
            idx = b.mov(tid)
            cond = b.fresh(f"{self.prefix}_initc")
            loop = b.while_(cond)
            with loop.cond:
                b.binop("lt", idx, size, dst=cond)
            with loop.body:
                b.st_shared(buf, idx, Imm(self.identity))
                b.binop("add", idx, self._block_dim_operand(), dst=idx)
            return
        # shared scalar (the single accumulator of Figure 3).
        self.shared_decls.append(SharedDecl(buf, 1))
        self.env[decl.name] = _SharedScalarSlot(buf, atomic=decl.atomic)
        tid = self._special("tid")
        is_zero = b.binop("eq", tid, 0)
        with b.if_(is_zero):
            b.st_shared(buf, 0, Imm(self.identity))

    def _block_dim_operand(self):
        return self._special("ntid")

    def _compile_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Ident):
            slot = self._lookup(target.name, target.span)
            if isinstance(slot, _RegSlot):
                value = self.compile_expr(stmt.value)
                if stmt.op == "=":
                    self.builder.mov(value, dst=slot.reg)
                else:
                    op = self._compound_op(stmt.op, stmt.span)
                    self.builder.binop(op, slot.reg, value, dst=slot.reg)
                return
            if isinstance(slot, _SharedScalarSlot):
                value = self.compile_expr(stmt.value)
                if stmt.op == "=":
                    self.builder.st_shared(slot.buf, 0, value)
                else:
                    op = self._compound_op(stmt.op, stmt.span)
                    old = self.builder.ld_shared(slot.buf, 0)
                    new = self.builder.binop(op, old, value)
                    self.builder.st_shared(slot.buf, 0, new)
                return
            raise LoweringError(
                f"cannot assign to {target.name!r}", stmt.span
            )
        if isinstance(target, ast.Index) and isinstance(target.base, ast.Ident):
            slot = self._lookup(target.base.name, target.span)
            if not isinstance(slot, _SharedArraySlot):
                raise LoweringError(
                    f"cannot store into {target.base.name!r}", stmt.span
                )
            idx = self.compile_expr(target.index)
            value = self.compile_expr(stmt.value)
            if stmt.op == "=":
                self.builder.st_shared(slot.buf, idx, value)
            else:
                op = self._compound_op(stmt.op, stmt.span)
                old = self.builder.ld_shared(slot.buf, idx)
                new = self.builder.binop(op, old, value)
                self.builder.st_shared(slot.buf, idx, new)
            return
        raise LoweringError("unsupported assignment target", stmt.span)

    @staticmethod
    def _compound_op(op_text: str, span) -> str:
        op = COMPOUND_OPCODES.get(op_text)
        if op is None:
            raise LoweringError(f"unsupported assignment {op_text!r}", span)
        return op

    def _compile_atomic_update(self, stmt: ast.AtomicUpdate) -> None:
        if stmt.space != "shared":
            raise LoweringError(
                "global AtomicUpdate is emitted by the synthesizer", stmt.span
            )
        value = self.compile_expr(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Ident):
            slot = self._lookup(target.name, target.span)
            if isinstance(slot, _SharedScalarSlot):
                self.builder.atom_shared(stmt.op, slot.buf, 0, value)
                return
        if isinstance(target, ast.Index) and isinstance(target.base, ast.Ident):
            slot = self._lookup(target.base.name, target.span)
            if isinstance(slot, _SharedArraySlot):
                idx = self.compile_expr(target.index)
                self.builder.atom_shared(stmt.op, slot.buf, idx, value)
                return
        raise LoweringError("unsupported AtomicUpdate target", stmt.span)

    def _compile_if(self, stmt: ast.If) -> None:
        cond = self._as_reg(self.compile_expr(stmt.cond))
        instr, then_region, else_region = self.builder.if_else(cond)
        with then_region:
            self._compile_block(stmt.then)
        if stmt.otherwise is not None:
            with else_region:
                self._compile_block(stmt.otherwise)

    def _compile_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._compile_stmt(stmt.init)
        cond_reg = self.builder.fresh(f"{self.prefix}_loopc")
        loop = self.builder.while_(cond_reg)
        with loop.cond:
            if stmt.cond is None:
                self.builder.mov(Imm(True), dst=cond_reg)
            else:
                self.builder.mov(self.compile_expr(stmt.cond), dst=cond_reg)
        with loop.body:
            self._compile_block(stmt.body)
            if stmt.step is not None:
                self._compile_stmt(stmt.step)

    def _compile_while(self, stmt: ast.While) -> None:
        cond_reg = self.builder.fresh(f"{self.prefix}_loopc")
        loop = self.builder.while_(cond_reg)
        with loop.cond:
            self.builder.mov(self.compile_expr(stmt.cond), dst=cond_reg)
        with loop.body:
            self._compile_block(stmt.body)

    def _compile_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            raise LoweringError("codelets must return a value", stmt.span)
        value = self.compile_expr(stmt.value)
        self.builder.mov(value, dst=self.ret_reg)

    # -- expressions -----------------------------------------------------------

    def compile_expr(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLiteral):
            return Imm(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return Imm(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return Imm(expr.value)
        if isinstance(expr, ast.Ident):
            return self._compile_ident(expr)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr)
        if isinstance(expr, ast.Binary):
            op = BINARY_OPCODES.get(expr.op)
            if op is None:
                raise LoweringError(f"cannot lower operator {expr.op!r}", expr.span)
            lhs = self.compile_expr(expr.lhs)
            rhs = self.compile_expr(expr.rhs)
            return self.builder.binop(op, lhs, rhs)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.MethodCall):
            return self._compile_method_call(expr)
        if isinstance(expr, ast.Index):
            return self._compile_index(expr)
        if isinstance(expr, ast.WarpShuffle):
            return self._compile_shuffle(expr)
        raise LoweringError(f"cannot lower {type(expr).__name__}", expr.span)

    def _compile_ident(self, expr: ast.Ident):
        slot = self._lookup(expr.name, expr.span)
        if isinstance(slot, _RegSlot):
            return slot.reg
        if isinstance(slot, _SharedScalarSlot):
            return self.builder.ld_shared(slot.buf, 0)
        raise LoweringError(
            f"{expr.name!r} cannot be used as a value here", expr.span
        )

    def _compile_unary(self, expr: ast.Unary):
        op = UNARY_OPCODES.get(expr.op)
        if op is None:
            raise LoweringError(f"cannot lower unary {expr.op!r}", expr.span)
        return self.builder.unop(op, self.compile_expr(expr.operand))

    def _compile_ternary(self, expr: ast.Ternary):
        # CUDA's ?: short-circuits, so memory accesses must stay guarded
        # (out-of-bounds loads would fault). Side-effect-free ternaries
        # lower to a select, like predicated hardware execution.
        if not (_touches_memory(expr.then) or _touches_memory(expr.otherwise)):
            cond = self.compile_expr(expr.cond)
            a = self.compile_expr(expr.then)
            b = self.compile_expr(expr.otherwise)
            return self.builder.sel(cond, a, b)
        dst = self.builder.fresh(f"{self.prefix}_t")
        cond = self._as_reg(self.compile_expr(expr.cond))
        instr, then_region, else_region = self.builder.if_else(cond)
        with then_region:
            self.builder.mov(self.compile_expr(expr.then), dst=dst)
        with else_region:
            self.builder.mov(self.compile_expr(expr.otherwise), dst=dst)
        return dst

    def _compile_call(self, expr: ast.Call):
        if expr.name in ("min", "max"):
            lhs = self.compile_expr(expr.args[0])
            rhs = self.compile_expr(expr.args[1])
            return self.builder.binop(expr.name, lhs, rhs)
        raise LoweringError(
            f"call to {expr.name!r} cannot be lowered inside a codelet "
            f"(spectrum calls are resolved by the synthesizer)",
            expr.span,
        )

    def _compile_method_call(self, expr: ast.MethodCall):
        if not isinstance(expr.obj, ast.Ident):
            raise LoweringError("unsupported method receiver", expr.span)
        slot = self._lookup(expr.obj.name, expr.span)
        if isinstance(slot, _VectorSlot):
            return self._compile_vector_method(expr)
        if isinstance(slot, _ContainerSlot):
            if expr.method == "Size":
                return slot.binding.size
            if expr.method == "Stride":
                stride = getattr(slot.binding, "stride", 1)
                return Imm(stride) if isinstance(stride, int) else stride
            raise LoweringError(
                f"container method {expr.method!r} cannot be lowered", expr.span
            )
        raise LoweringError(
            f"{expr.obj.name!r} has no lowerable methods", expr.span
        )

    def _compile_vector_method(self, expr: ast.MethodCall):
        method = expr.method
        if method == "ThreadId":
            return self._special("tid")
        if method == "LaneId":
            return self._special("laneid")
        if method == "VectorId":
            return self._special("warpid")
        if method in ("MaxSize", "Size"):
            # Size() maps to warpSize, exactly as in Figure 2's table.
            return Imm(WARP)
        raise LoweringError(f"unknown Vector method {method!r}", expr.span)

    def _compile_index(self, expr: ast.Index):
        if not isinstance(expr.base, ast.Ident):
            raise LoweringError("unsupported indexing base", expr.span)
        slot = self._lookup(expr.base.name, expr.span)
        if isinstance(slot, _ContainerSlot):
            return slot.binding.load(self, expr.index)
        if isinstance(slot, _SharedArraySlot):
            idx = self.compile_expr(expr.index)
            return self.builder.ld_shared(slot.buf, idx)
        raise LoweringError(f"{expr.base.name!r} is not indexable", expr.span)

    def _compile_shuffle(self, expr: ast.WarpShuffle):
        value = self._as_reg(self.compile_expr(expr.value))
        offset = self.compile_expr(expr.offset)
        mode = expr.direction
        return self.builder.shfl(value, mode, offset, width=expr.width)

    # -- helpers -----------------------------------------------------------

    def _as_reg(self, operand) -> Reg:
        if isinstance(operand, Reg):
            return operand
        return self.builder.mov(operand)

    def _lookup(self, name: str, span):
        slot = self.env.get(name)
        if slot is None:
            raise LoweringError(f"unknown variable {name!r} in lowering", span)
        return slot

    def _static_size(self, dim: ast.Expr) -> int:
        """A shared array's size: its dimension's static value."""
        container = self.codelet.params[0].name
        size = static_value(
            dim, self.vector, {container: self.binding.size_static}
        )
        if size is None:
            raise LoweringError(
                "shared array dimension has no static value (a constant, "
                "the warp size or a statically bounded in.Size())",
                dim.span,
            )
        return size


def writes_shared(stmt: ast.Stmt, shared: frozenset) -> bool:
    """The barrier rule: whether a barrier follows ``stmt``.

    In a cooperative codelet a barrier goes after each statement that
    itself writes shared memory — a ``__shared`` declaration (its
    cooperative initialization), a store to one of the ``shared`` names
    or a shared atomic update — in the block that holds the statement.
    A compound statement never gets one: the statements inside it carry
    their own. The lowering and the CUDA emitter (Listings 3 and 4) both
    place barriers by this rule, so a listing shows exactly the barriers
    the simulated kernel executes.
    """
    if isinstance(stmt, ast.VarDecl):
        return stmt.shared
    if isinstance(stmt, ast.AtomicUpdate):
        return stmt.space == "shared"
    if isinstance(stmt, ast.Assign):
        target = stmt.target
        if isinstance(target, ast.Index):
            target = target.base
        return isinstance(target, ast.Ident) and target.name in shared
    return False


def _touches_memory(expr: ast.Expr) -> bool:
    """Whether evaluating the expression may access memory."""
    return any(isinstance(node, ast.Index) for node in ast.walk(expr))
