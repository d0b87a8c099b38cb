"""Shared VIR emission helpers for the hand-written baseline kernels."""

from __future__ import annotations

from ..vir import IRBuilder, Imm, Reg

_COMBINE = {"add": "add", "max": "max", "min": "min"}


def combine_op(op: str) -> str:
    if op not in _COMBINE:
        raise ValueError(f"baselines support add/max/min, got {op!r}")
    return _COMBINE[op]


def identity_of(op: str) -> float:
    if op == "add":
        return 0.0
    if op == "max":
        return -3.402823e38
    return 3.402823e38


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
            merged = b.binop(combine_op(op), mine, other)
            b.st_shared(smem, tid, merged)
        b.bar()
        b.binop("div", offset, 2, dst=offset)
    return b.ld_shared(smem, 0)
