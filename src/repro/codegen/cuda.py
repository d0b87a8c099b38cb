"""CUDA C source emission (the paper's Listings 1–4).

The emitter renders transformed codelet ASTs as CUDA C so that the
effect of each AST pass is visible in the generated source:

* :func:`emit_coop_kernel` — a ``Reduce_Block`` ``__global__`` kernel
  from a cooperative codelet variant. The shared-atomic pass shows up as
  ``atomicAdd(&partial, val)`` (Listing 3), the shuffle pass as
  ``__shfl_down(val, offset, 32)`` with the disabled ``tmp`` array gone
  (Listing 4).
* :func:`emit_compound_pair` — the Listing 1 / Listing 2 pair for a
  compound codelet: the non-atomic version allocates a partials array
  and keeps the second spectrum call; the atomic version allocates a
  single accumulator and uses ``atomicAdd_block`` / ``atomicAdd``.
* :func:`emit_version` — a full program for one Figure 6 version.

Identifier conventions follow the listings: the kernel signature is
``(Return, input_x, SourceSize, ObjectSize)``; ``vthread.ThreadId()``
renders as ``threadIdx.x``, ``LaneId()`` as ``threadIdx.x % warpSize``,
``VectorId()`` as ``threadIdx.x / warpSize`` (Figure 2's table).
"""

from __future__ import annotations

from ..core.operators import static_value
from ..core.pipeline import CoopVariant, PreprocessResult
from ..core.variants import Version, fig6_label
from ..lang import ast
from ..lang.errors import LoweringError
from ..lang.reductions import (
    combine_source,
    identity_literal,
    identity_value,
    reduction,
)
from ..vir.instructions import WARP
from .compiler import writes_shared

_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class CudaEmitter:
    """Stateful expression/statement renderer for one codelet."""

    def __init__(self, identity: str, input_name: str = "input_x"):
        self.identity = identity  # C literal every shared variable starts at
        self.input_name = input_name
        self.vector_name = None
        self.container_name = None
        self.shared = frozenset()  # the codelet's __shared names (barrier rule)

    # -- expressions ------------------------------------------------------

    def expr(self, node: ast.Expr, parent_prec: int = 0) -> str:
        text, prec = self._expr(node)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr(self, node: ast.Expr):
        if isinstance(node, ast.IntLiteral):
            return str(node.value) + ("u" if node.unsigned else ""), 99
        if isinstance(node, ast.FloatLiteral):
            suffix = "f" if node.single else ""
            return f"{node.value!r}{suffix}", 99
        if isinstance(node, ast.BoolLiteral):
            return ("true" if node.value else "false"), 99
        if isinstance(node, ast.Ident):
            return node.name, 99
        if isinstance(node, ast.Unary):
            inner = self.expr(node.operand, 11)
            return f"{node.op}{inner}", 11
        if isinstance(node, ast.Binary):
            prec = _PRECEDENCE[node.op]
            lhs = self.expr(node.lhs, prec)
            rhs = self.expr(node.rhs, prec + 1)
            return f"{lhs} {node.op} {rhs}", prec
        if isinstance(node, ast.Ternary):
            cond = self.expr(node.cond, 1)
            cond = self._augment_bounds_guard(cond, node.then)
            then = self.expr(node.then, 0)
            otherwise = self.expr(node.otherwise, 0)
            return f"({cond}) ? {then} : {otherwise}", 0
        if isinstance(node, ast.Call):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"{node.name}({args})", 99
        if isinstance(node, ast.MethodCall):
            return self._method(node), 99
        if isinstance(node, ast.Index):
            return self._index(node), 99
        if isinstance(node, ast.WarpShuffle):
            fn = "__shfl_down" if node.direction == "down" else "__shfl_up"
            value = self.expr(node.value)
            offset = self.expr(node.offset)
            return f"{fn}({value}, {offset}, {node.width})", 99
        raise LoweringError(f"cannot emit {type(node).__name__} as CUDA")

    def _method(self, node: ast.MethodCall) -> str:
        obj = node.obj.name if isinstance(node.obj, ast.Ident) else None
        if obj == self.vector_name:
            return {
                "ThreadId": "threadIdx.x",
                "LaneId": "threadIdx.x % warpSize",
                "VectorId": "threadIdx.x / warpSize",
                "MaxSize": str(WARP),
                "Size": "warpSize",
            }[node.method]
        if obj == self.container_name:
            if node.method == "Size":
                return "ObjectSize"
            if node.method == "Stride":
                return "1"
        raise LoweringError(f"cannot emit method {node.method!r} as CUDA")

    def _index(self, node: ast.Index) -> str:
        base = node.base.name if isinstance(node.base, ast.Ident) else None
        idx = self.expr(node.index)
        if base == self.container_name:
            return f"{self.input_name}[blockIdx.x * blockDim.x + {idx}]"
        return f"{base}[{idx}]"

    def _augment_bounds_guard(self, cond: str, then: ast.Expr) -> str:
        """Listing 3 lines 13-14: reads of the block's input slice also
        guard against the end of the whole array (SourceSize)."""
        reads_input = any(
            isinstance(sub, ast.Index)
            and isinstance(sub.base, ast.Ident)
            and sub.base.name == self.container_name
            for sub in ast.walk(then)
        )
        if not reads_input:
            return cond
        return (
            f"(({cond})) && "
            f"((blockIdx.x * blockDim.x + threadIdx.x) < SourceSize)"
        )

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt, indent: int) -> list:
        pad = "  " * indent
        if isinstance(node, ast.VarDecl):
            return self._var_decl(node, indent)
        if isinstance(node, ast.Assign):
            target = self.expr(node.target)
            value = self.expr(node.value)
            return [f"{pad}{target} {node.op} {value};"]
        if isinstance(node, ast.AtomicUpdate):
            atomic = reduction(node.op)
            fn = atomic.block_api if node.scope == "block" else atomic.api
            target = self.expr(node.target)
            value = self.expr(node.value)
            return [f"{pad}{fn}(&{target}, {value});"]
        if isinstance(node, ast.ExprStmt):
            return [f"{pad}{self.expr(node.expr)};"]
        if isinstance(node, ast.If):
            lines = [f"{pad}if ({self.expr(node.cond)}) {{"]
            lines += self.block(node.then, indent + 1)
            if node.otherwise is not None:
                lines.append(f"{pad}}} else {{")
                lines += self.block(node.otherwise, indent + 1)
            lines.append(f"{pad}}}")
            return lines
        if isinstance(node, ast.For):
            init = self._inline_stmt(node.init)
            cond = self.expr(node.cond) if node.cond is not None else ""
            step = self._inline_stmt(node.step)
            lines = [f"{pad}for ({init}; {cond}; {step}) {{"]
            lines += self.block(node.body, indent + 1)
            lines.append(f"{pad}}}")
            return lines
        if isinstance(node, ast.While):
            lines = [f"{pad}while ({self.expr(node.cond)}) {{"]
            lines += self.block(node.body, indent + 1)
            lines.append(f"{pad}}}")
            return lines
        if isinstance(node, ast.Return):
            if node.value is None:
                return [f"{pad}return;"]
            return [f"{pad}return {self.expr(node.value)};"]
        if isinstance(node, ast.Block):
            return self.block(node, indent)
        raise LoweringError(f"cannot emit statement {type(node).__name__}")

    def _inline_stmt(self, node) -> str:
        if node is None:
            return ""
        if isinstance(node, ast.VarDecl):
            init = f" = {self.expr(node.init)}" if node.init is not None else ""
            return f"{node.declared_type} {node.name}{init}"
        if isinstance(node, ast.Assign):
            return f"{self.expr(node.target)} {node.op} {self.expr(node.value)}"
        raise LoweringError("unsupported inline statement")

    def block(self, node: ast.Block, indent: int) -> list:
        lines = []
        for stmt in node.stmts:
            lines += self.stmt(stmt, indent)
            if writes_shared(stmt, self.shared):
                lines.append("  " * indent + "__syncthreads();")
        return lines

    def _var_decl(self, node: ast.VarDecl, indent: int) -> list:
        pad = "  " * indent
        if str(node.declared_type) == "Vector":
            return [f"{pad}// Vector {node.name} -> SIMT thread group"]
        if node.shared:
            return self._shared_decl(node, indent)
        init = f" = {self.expr(node.init)}" if node.init is not None else ""
        return [f"{pad}{node.declared_type} {node.name}{init};"]

    def _shared_decl(self, node: ast.VarDecl, indent: int) -> list:
        pad = "  " * indent
        lines = []
        if not node.dims:
            # single shared accumulator (Listing 3 lines 5-8)
            lines.append(f"{pad}__shared__ {node.declared_type} {node.name};")
            lines.append(f"{pad}if (threadIdx.x == 0)")
            lines.append(f"{pad}  {node.name} = {self.identity};")
            return lines
        size = static_value(node.dims[0], self.vector_name)
        if size is not None:
            lines.append(
                f"{pad}__shared__ {node.declared_type} {node.name}[{size}];"
            )
            lines.append(f"{pad}if (threadIdx.x < {size})")
        else:
            # dynamically sized by in.Size() -> extern (Listing 3 line 9)
            lines.append(
                f"{pad}extern __shared__ {node.declared_type} {node.name}[];"
            )
            lines.append(f"{pad}if (threadIdx.x < ObjectSize)")
        lines.append(f"{pad}  {node.name}[threadIdx.x] = {self.identity};")
        return lines


def emit_coop_kernel(
    variant: CoopVariant, identity: str = None, kernel_name: str = None
) -> str:
    """Render a cooperative codelet variant as a ``__global__`` kernel
    (the shape of Listings 3 and 4).

    The element type is the codelet's. Shared memory starts at
    ``identity``, the C literal of the program's reduction identity,
    which is what the lowering stores there (default: a sum's).
    """
    codelet = variant.codelet
    ctype = str(codelet.return_type)
    emitter = CudaEmitter(identity or identity_literal("add", ctype))
    emitter.container_name = codelet.params[0].name
    emitter.vector_name = codelet.vector_name()
    emitter.shared = codelet.shared_names()

    name = kernel_name or f"Reduce_Block_{variant.key}"
    lines = [
        "__global__",
        f"void {name}({ctype} *Return, {ctype} *{emitter.input_name}, "
        f"int SourceSize, int ObjectSize) {{",
        "  unsigned int blockID = blockIdx.x;",
    ]
    stmts = codelet.body.stmts
    returns = [stmt for stmt in stmts if isinstance(stmt, ast.Return)]
    if not returns:
        raise LoweringError("cooperative codelet has no return")
    body = [stmt for stmt in stmts if not isinstance(stmt, ast.Return)]
    lines += emitter.block(ast.Block(stmts=body), 1)
    lines.append("  if (threadIdx.x == 0)")
    lines.append(f"    Return[blockID] = {emitter.expr(returns[-1].value)};")
    lines.append("}")
    return "\n".join(lines)


def emit_compound_pair(pre: PreprocessResult, pattern: str = "tile") -> dict:
    """The Listing 1 / Listing 2 pair for a compound codelet."""
    compound = pre.compound[pattern]
    return {
        "non_atomic": _emit_grid_code(pre, atomic=False),
        "atomic": _emit_grid_code(pre, atomic=True),
        "pattern": compound.pattern,
        "spectrum_disabled": compound.atomic.spectrum_disabled,
    }


def _emit_grid_code(pre: PreprocessResult, atomic: bool) -> str:
    """Host + device scaffolding following Listings 1 and 2, in the
    program's element type and reduction operator."""
    op, ctype = pre.reduction_op, pre.ctype
    # Listing 1 starts a sum at 0; other ops start at their identity
    start = "0" if identity_value(op, ctype) == 0 else identity_literal(op, ctype)
    accumulate = combine_source(op, "accum", "input_x[idx * Stride]")
    reducer = reduction(op)
    if atomic:
        thread_tail = f"  {reducer.block_api}(Return, accum);"
        alloc_block = "    map_return = new {t}[1];".format(t=ctype)
        block_tail = f"    {reducer.api}(Return, map_return[0]);"
        grid_alloc = f"  cudaMalloc(&map_return_block, sizeof({ctype}));"
    else:
        thread_tail = "  Return[threadIdx.x] = accum;"
        alloc_block = "    map_return = new {t}[p];".format(t=ctype)
        block_tail = "    Return[blockIdx.x] = Reduce_Partials(map_return, p);"
        grid_alloc = (
            f"  cudaMalloc(&map_return_block, (p) * sizeof({ctype}));"
        )
    return f"""__inline__ __device__
void Reduce_Thread({ctype} *Return, {ctype} *input_x, int Count, int Stride) {{
  {ctype} accum = {start};
  for (int idx = 0; idx < Count; idx += 1)
    {accumulate}
{thread_tail}
}}

__global__
void Reduce_Block({ctype} *Return, {ctype} *input_x, int SourceSize) {{
  int p = blockDim.x;
  __shared__ {ctype} *map_return;
  if (threadIdx.x == 0)
{alloc_block}
  __syncthreads();
  Reduce_Thread(map_return, input_x + blockIdx.x * blockDim.x, SourceSize, 1);
  __syncthreads();
  if (threadIdx.x == 0)
{block_tail}
}}

template <unsigned int TGM_TEMPLATE_0>
{ctype} Reduce_Grid({ctype} *input_x, int SourceSize) {{
  int p = TGM_TEMPLATE_0;
  {ctype} *map_return_block;
{grid_alloc}
  Reduce_Block<<<p, 256>>>(map_return_block, input_x, SourceSize);
  return Collect(map_return_block);
}}
"""


def emit_version(pre: PreprocessResult, version: Version) -> str:
    """Full CUDA program text for one Figure 6 version."""
    label = fig6_label(version)
    header = [
        f"// Tangram-synthesized parallel reduction",
        f"// version: {version.identifier}"
        + (f"  (Figure 6 ({label}))" if label else ""),
        f"// reduction op: {pre.reduction_op}",
        "",
    ]
    parts = []
    coop = pre.coop_variant(version.combine)
    identity = identity_literal(pre.reduction_op, pre.ctype)
    parts.append(emit_coop_kernel(coop, identity))
    if version.block_kind == "compound":
        pair = emit_compound_pair(pre, version.block_pattern)
        parts.append(pair["atomic" if version.uses_global_atomic else "non_atomic"])
    return "\n".join(header) + "\n\n".join(parts) + "\n"
