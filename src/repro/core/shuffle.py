"""AST pass: automatic warp-shuffle detection (Section III-C, Figure 4).

The pass scans cooperative codelets for tree-reduction ``for`` loops and
rewrites them into warp shuffle instructions, following the seven steps
of the paper's detection algorithm:

1. the loop bound comes from a ``Vector`` member function
   (``MaxSize()``/``Size()``);
2. the iterator decreases by a constant every iteration (``/= 2`` or a
   ``-=`` step);
3. the body reads a ``__shared`` array and reduces it into a local
   accumulator;
4. the shared-array read index is a function of ``Vector.ThreadId()``
   and the loop iterator;
5./6. the accumulator is written back to the *same* shared array;
7. at an index that is a function of ``ThreadId()`` only.

On a match, the loop body is replaced with
``val <op>= __shfl_down(val, offset)`` (``__shfl_up`` when the index is
``ThreadId() - offset``), matching Listing 4. Afterwards, shared arrays
whose remaining uses are only writes ("contents come directly from the
input array") are *disabled*: their stores and declarations are removed,
shrinking the shared-memory footprint. Arrays still read (the
producer-consumer ``partial`` array of Figure 1(c)) are retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.reductions import LIBRARY_OPS, combine_stmt, match_combine
from ..vir.instructions import WARP

_VECTOR_BOUND_METHODS = ("MaxSize", "Size")


@dataclass
class ShuffleMatch:
    """One for-loop that satisfies all seven conditions of Figure 4."""

    loop: ast.For
    iterator: str
    accumulator: str
    shared_array: str
    direction: str  # down | up
    combine: str  # the reduction op of the combine statement


@dataclass
class ShuffleResult:
    codelet: ast.Codelet
    rewrites: int = 0
    disabled_arrays: list = field(default_factory=list)


# ---------------------------------------------------------------------
# Detection (read-only; works on original or cloned codelets)
# ---------------------------------------------------------------------


def detect_shuffle_loops(codelet: ast.Codelet) -> list:
    """All :class:`ShuffleMatch` opportunities in a codelet."""
    vector_name = codelet.vector_name()
    if vector_name is None:
        return []
    shared_arrays = {
        node.name
        for node in ast.walk(codelet)
        if isinstance(node, ast.VarDecl) and node.shared and node.dims
    }
    matches = []
    for node in ast.walk(codelet):
        if isinstance(node, ast.For):
            match = _match_loop(node, vector_name, shared_arrays)
            if match is not None:
                matches.append(match)
    return matches


def _is_vector_method(expr, vector_name: str, methods) -> bool:
    return (
        isinstance(expr, ast.MethodCall)
        and isinstance(expr.obj, ast.Ident)
        and expr.obj.name == vector_name
        and expr.method in methods
    )


def _uses_vector_method(expr, vector_name: str, method: str) -> bool:
    return any(
        _is_vector_method(node, vector_name, (method,)) for node in ast.walk(expr)
    )


def _uses_ident(expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Ident) and node.name == name for node in ast.walk(expr)
    )


def _match_loop(loop: ast.For, vector_name: str, shared_arrays: set):
    # Step (1): bound derived from a Vector member function.
    init = loop.init
    if not (isinstance(init, ast.VarDecl) and init.init is not None):
        return None
    iterator = init.name
    if not any(
        _is_vector_method(node, vector_name, _VECTOR_BOUND_METHODS)
        for node in ast.walk(init.init)
    ):
        return None
    # Step (2): iterator decreases by a constant each iteration.
    if not _iterator_decreases(loop, iterator):
        return None
    # Steps (3)-(7): body shape.
    body = [s for s in loop.body.stmts if not isinstance(s, ast.Block)]
    if len(body) != 2:
        return None
    reduce_stmt, writeback = body
    parsed = _match_reduction_stmt(reduce_stmt, shared_arrays)
    if parsed is None:
        return None
    accumulator, shared_array, read_index, combine = parsed
    # Step (4): read index uses ThreadId() and the iterator.
    if not (
        _uses_vector_method(read_index, vector_name, "ThreadId")
        and _uses_ident(read_index, iterator)
    ):
        return None
    direction = _index_direction(read_index, iterator)
    if direction is None:
        return None
    # Steps (5)+(6): accumulator written to the same shared array.
    if not (
        isinstance(writeback, ast.Assign)
        and writeback.op == "="
        and isinstance(writeback.target, ast.Index)
        and isinstance(writeback.target.base, ast.Ident)
        and writeback.target.base.name == shared_array
        and isinstance(writeback.value, ast.Ident)
        and writeback.value.name == accumulator
    ):
        return None
    # Step (7): write index depends on ThreadId() only (not the iterator).
    write_index = writeback.target.index
    if not _uses_vector_method(write_index, vector_name, "ThreadId"):
        return None
    if _uses_ident(write_index, iterator):
        return None
    return ShuffleMatch(
        loop=loop,
        iterator=iterator,
        accumulator=accumulator,
        shared_array=shared_array,
        direction=direction,
        combine=combine,
    )


def _iterator_decreases(loop: ast.For, iterator: str) -> bool:
    cond_ok = (
        isinstance(loop.cond, ast.Binary)
        and loop.cond.op in (">", ">=")
        and isinstance(loop.cond.lhs, ast.Ident)
        and loop.cond.lhs.name == iterator
    )
    if not cond_ok:
        return False
    step = loop.step
    if not (
        isinstance(step, ast.Assign)
        and isinstance(step.target, ast.Ident)
        and step.target.name == iterator
        and isinstance(step.value, ast.IntLiteral)
    ):
        return False
    if step.op == "/=" and step.value.value >= 2:
        return True
    if step.op == "-=" and step.value.value >= 1:
        return True
    if step.op == ">>=" and step.value.value >= 1:
        return True
    return False


def _match_reduction_stmt(stmt, shared_arrays: set):
    """Step (3): the combine statement of an associative, commutative
    op (``acc += <read>``, ``acc = max(acc, <read>)`` …).

    Returns ``(accumulator, shared_array, read_index_expr, combine)``.
    """
    match = match_combine(stmt)
    if match is None or match[0] not in LIBRARY_OPS:
        return None
    combine, accumulator, read = match
    access = _find_shared_read(read, shared_arrays)
    if access is None:
        return None
    shared_array, read_index = access
    return accumulator, shared_array, read_index, combine


def _find_shared_read(expr, shared_arrays: set):
    """The (guarded) shared-array read inside the reduce expression."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Index)
            and isinstance(node.base, ast.Ident)
            and node.base.name in shared_arrays
        ):
            return node.base.name, node.index
    return None


def _index_direction(index_expr, iterator: str):
    """``ThreadId() + offset`` → down; ``ThreadId() - offset`` → up."""
    if not isinstance(index_expr, ast.Binary):
        return None
    rhs_is_iter = isinstance(index_expr.rhs, ast.Ident) and (
        index_expr.rhs.name == iterator
    )
    lhs_is_iter = isinstance(index_expr.lhs, ast.Ident) and (
        index_expr.lhs.name == iterator
    )
    if index_expr.op == "+" and (rhs_is_iter or lhs_is_iter):
        return "down"
    if index_expr.op == "-" and rhs_is_iter:
        return "up"
    return None


# ---------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------


def apply_shuffle(codelet: ast.Codelet, width: int = WARP) -> ShuffleResult:
    """Return a transformed **clone** with shuffle loops rewritten and
    dead shared arrays disabled. The input codelet is untouched."""
    clone = codelet.clone()
    matches = detect_shuffle_loops(clone)
    for match in matches:
        _rewrite_loop(match, width)
    disabled = _disable_dead_shared_arrays(clone) if matches else []
    return ShuffleResult(
        codelet=clone, rewrites=len(matches), disabled_arrays=disabled
    )


def _rewrite_loop(match: ShuffleMatch, width: int) -> None:
    shuffle = ast.WarpShuffle(
        value=ast.Ident(name=match.accumulator),
        offset=ast.Ident(name=match.iterator),
        direction=match.direction,
        width=width,
    )
    new_stmt = combine_stmt(match.combine, match.accumulator, shuffle)
    match.loop.body = ast.Block(stmts=[new_stmt], span=match.loop.body.span)


def _disable_dead_shared_arrays(codelet: ast.Codelet) -> list:
    """Remove shared arrays that are only written, plus their stores.

    This is the paper's "the AST pass disables array tmp, because its
    contents come directly from the input array" (Listing 4).
    """
    # Pure write targets: `arr[i] = v` overwrites without reading. Compound
    # assignments and AtomicUpdate targets are read-modify-write, so they
    # keep an array alive (conservative for e.g. histograms).
    pure_write_targets = set()
    for node in ast.walk(codelet):
        if (
            isinstance(node, ast.Assign)
            and node.op == "="
            and isinstance(node.target, ast.Index)
        ):
            pure_write_targets.add(id(node.target))

    read_arrays = set()
    for node in ast.walk(codelet):
        if (
            isinstance(node, ast.Index)
            and isinstance(node.base, ast.Ident)
            and id(node) not in pure_write_targets
        ):
            read_arrays.add(node.base.name)

    dead = set()
    for node in ast.walk(codelet):
        if (
            isinstance(node, ast.VarDecl)
            and node.shared
            and node.dims
            and node.name not in read_arrays
        ):
            dead.add(node.name)
    if dead:
        _DeadArrayPruner(dead).visit(codelet)
    return sorted(dead)


class _DeadArrayPruner(ast.NodeTransformer):
    def __init__(self, dead: set):
        self.dead = dead

    def visit_VarDecl(self, node: ast.VarDecl):
        if node.shared and node.name in self.dead:
            return None
        return self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign):
        target = node.target
        if (
            isinstance(target, ast.Index)
            and isinstance(target.base, ast.Ident)
            and target.base.name in self.dead
        ):
            return None
        return self.generic_visit(node)
