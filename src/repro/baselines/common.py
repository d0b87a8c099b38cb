"""Shared VIR builders for the hand-written baseline kernels."""

from __future__ import annotations

from ..lang.reductions import LIBRARY_OPS, identity_value
from ..vir import IRBuilder, Imm, Kernel, Reg, SharedDecl

#: Threads per block of every baseline kernel.
BLOCK = 256
#: Elements per vectorized load (one float4).
VECTOR_WIDTH = 4


def _identity(op: str) -> float:
    """The float identity of a baseline's op; each op combines with the
    ALU opcode of its name."""
    if op not in LIBRARY_OPS:
        raise ValueError(f"baselines support {'/'.join(LIBRARY_OPS)}, got {op!r}")
    return identity_value(op, "float")


def emit_block_tree_reduce(
    b: IRBuilder, value: Reg, block: int, smem: str, op: str = "add"
) -> Reg:
    """Classic shared-memory tree reduction of one value per thread.

    Assumes a shared buffer ``smem`` of ``block`` elements was declared.
    Returns a register that holds the block total in thread 0.
    """
    tid = b.special("tid")
    b.st_shared(smem, tid, value)
    b.bar()
    offset = b.mov(Imm(block // 2))
    cond = b.fresh("tree_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("gt", offset, 0, dst=cond)
    with loop.body:
        take = b.binop("lt", tid, offset)
        with b.if_(take):
            other_idx = b.binop("add", tid, offset)
            other = b.ld_shared(smem, other_idx)
            mine = b.ld_shared(smem, tid)
            merged = b.binop(op, mine, other)
            b.st_shared(smem, tid, merged)
        b.bar()
        b.binop("div", offset, 2, dst=offset)
    return b.ld_shared(smem, 0)


def accumulate_kernel(name: str, out: str, op: str, meta: dict) -> Kernel:
    """Grid-stride accumulate of ``in`` with float4 loads and a scalar
    tail, then a block tree reduce; thread 0 stores its block's total to
    ``out[ctaid]``. Reads params ``n`` and ``n4`` (whole float4s)."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    ntid = b.special("ntid")
    nctaid = b.special("nctaid")
    n = b.ld_param("n")
    n4 = b.ld_param("n4")

    gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
    gsize = b.binop("mul", ntid, nctaid)
    acc = b.mov(Imm(_identity(op)))

    # vectorized main loop: thread handles float4 number i
    i = b.mov(gid)
    cond = b.fresh("vec_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, n4, dst=cond)
    with loop.body:
        base = b.binop("mul", i, Imm(VECTOR_WIDTH))
        lanes = b.ld_global_vec("in", base, width=VECTOR_WIDTH)
        for value in lanes:
            b.binop(op, acc, value, dst=acc)
        b.binop("add", i, gsize, dst=i)

    # scalar tail: elements [4*n4, n)
    tail_start = b.binop("mul", n4, Imm(VECTOR_WIDTH))
    j = b.binop("add", tail_start, gid)
    cond2 = b.fresh("tail_c")
    loop2 = b.while_(cond2)
    with loop2.cond:
        b.binop("lt", j, n, dst=cond2)
    with loop2.body:
        value = b.ld_global("in", j)
        b.binop(op, acc, value, dst=acc)
        b.binop("add", j, gsize, dst=j)

    total = emit_block_tree_reduce(b, acc, BLOCK, "smem", op)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global(out, ctaid, total)
    return Kernel(
        name=name,
        params=["n", "n4"],
        buffers=["in", out],
        shared=[SharedDecl("smem", BLOCK)],
        body=b.finish(),
        meta=meta,
    )


def combine_kernel(name: str, partials: str, out: str, op: str,
                   meta: dict) -> Kernel:
    """One block combines ``count`` (a param) per-block partials of
    ``partials`` into ``out[0]``."""
    b = IRBuilder()
    tid = b.special("tid")
    count = b.ld_param("count")
    acc = b.mov(Imm(_identity(op)))
    i = b.mov(tid)
    cond = b.fresh("comb_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, count, dst=cond)
    with loop.body:
        value = b.ld_global(partials, i)
        b.binop(op, acc, value, dst=acc)
        b.binop("add", i, Imm(BLOCK), dst=i)
    total = emit_block_tree_reduce(b, acc, BLOCK, "smem", op)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global(out, 0, total)
    return Kernel(
        name=name,
        params=["count"],
        buffers=[partials, out],
        shared=[SharedDecl("smem", BLOCK)],
        body=b.finish(),
        meta=meta,
    )
