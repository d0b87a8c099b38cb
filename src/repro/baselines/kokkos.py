"""Kokkos-like staged reduction baseline (Section IV-A).

Models the Kokkos GPU-backend ``parallel_reduce`` behaviour the paper
profiles (Section IV-C-2): **multiple kernels**, where "the most
time-consuming kernel is compute-bound, not memory-bound ... The Kokkos
code works by staging memory accesses for the main kernel through other
sister kernels." We encode that structure:

* kernel 1 (*stage*) — a sister kernel that streams the input with wide
  vector accesses into per-block partials (the staging pass; it moves
  the bytes at near-peak efficiency → the ``staged`` DRAM tier);
* kernel 2 (*main*) — the compute-bound combine over staged partials;
* kernel 3 (*finalize*) — a tiny kernel publishing the scalar result.

Three launches make Kokkos slow for small arrays (visible at the bottom
of Figures 8-10) while the staged bandwidth makes it the fastest code
beyond ~10M elements (2-3x over CUB in the paper).
"""

from __future__ import annotations

import functools

from ..vir import IRBuilder, Imm, Kernel, KernelStep, Plan, SharedDecl
from .common import combine_op, emit_block_tree_reduce, identity_of

_BLOCK = 256
_GRID = 256
_VECTOR_WIDTH = 4


def _build_stage_kernel(op: str) -> Kernel:
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    ntid = b.special("ntid")
    nctaid = b.special("nctaid")
    n = b.ld_param("n")
    n4 = b.ld_param("n4")

    gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
    gsize = b.binop("mul", ntid, nctaid)
    acc = b.mov(Imm(identity_of(op)))

    i = b.mov(gid)
    cond = b.fresh("kst_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, n4, dst=cond)
    with loop.body:
        base = b.binop("mul", i, Imm(_VECTOR_WIDTH))
        lanes = b.ld_global_vec("in", base, width=_VECTOR_WIDTH)
        for value in lanes:
            b.binop(combine_op(op), acc, value, dst=acc)
        b.binop("add", i, gsize, dst=i)

    tail_start = b.binop("mul", n4, Imm(_VECTOR_WIDTH))
    j = b.binop("add", tail_start, gid)
    cond2 = b.fresh("ktl_c")
    loop2 = b.while_(cond2)
    with loop2.cond:
        b.binop("lt", j, n, dst=cond2)
    with loop2.body:
        value = b.ld_global("in", j)
        b.binop(combine_op(op), acc, value, dst=acc)
        b.binop("add", j, gsize, dst=j)

    total = emit_block_tree_reduce(b, acc, _BLOCK, "smem", op)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global("staged", ctaid, total)
    return Kernel(
        name="kokkos_stage",
        params=["n", "n4"],
        buffers=["in", "staged"],
        shared=[SharedDecl("smem", _BLOCK)],
        body=b.finish(),
        meta={"load_pattern": "staged", "baseline": "kokkos"},
    )


def _build_main_kernel(op: str) -> Kernel:
    """Compute-bound combine of the staged per-block partials."""
    b = IRBuilder()
    tid = b.special("tid")
    count = b.ld_param("count")
    acc = b.mov(Imm(identity_of(op)))
    i = b.mov(tid)
    cond = b.fresh("km_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, count, dst=cond)
    with loop.body:
        value = b.ld_global("staged", i)
        b.binop(combine_op(op), acc, value, dst=acc)
        b.binop("add", i, Imm(_BLOCK), dst=i)
    total = emit_block_tree_reduce(b, acc, _BLOCK, "smem", op)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global("mid", 0, total)
    return Kernel(
        name="kokkos_main",
        params=["count"],
        buffers=["staged", "mid"],
        shared=[SharedDecl("smem", _BLOCK)],
        body=b.finish(),
        meta={"load_pattern": "staged", "baseline": "kokkos"},
    )


def _build_finalize_kernel() -> Kernel:
    b = IRBuilder()
    tid = b.special("tid")
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        value = b.ld_global("mid", 0)
        b.st_global("out", 0, value)
    return Kernel(
        name="kokkos_finalize",
        params=[],
        buffers=["mid", "out"],
        shared=[],
        body=b.finish(),
        meta={"load_pattern": "staged", "baseline": "kokkos"},
    )


@functools.cache
def _kernels(op: str) -> tuple:
    """The three kernels, built once per operator: they read ``n``,
    ``n4`` and ``count`` as params, so every input size shares them."""
    return _build_stage_kernel(op), _build_main_kernel(op), _build_finalize_kernel()


def build_kokkos_plan(n: int, op: str = "add") -> Plan:
    """The Kokkos-like three-kernel parallel_reduce plan."""
    if n < 1:
        raise ValueError(f"reduction needs n >= 1, got {n}")
    stage, main, finalize = _kernels(op)
    steps = [
        KernelStep(
            stage,
            grid=_GRID,
            block=_BLOCK,
            args={"n": n, "n4": n // _VECTOR_WIDTH},
            buffers={"in": "in", "staged": "staged"},
        ),
        KernelStep(
            main,
            grid=1,
            block=_BLOCK,
            args={"count": _GRID},
            buffers={"staged": "staged", "mid": "mid"},
        ),
        KernelStep(
            finalize,
            grid=1,
            block=32,
            args={},
            buffers={"mid": "mid", "out": "out"},
        ),
    ]
    plan = Plan(
        name="kokkos_parallel_reduce",
        steps=steps,
        scratch={"staged": _GRID, "mid": 1, "out": 1},
        result_buffer="out",
        meta={"dtype": "float32", "baseline": "kokkos", "op": op, "n": n},
    )
    plan.validate()
    return plan
