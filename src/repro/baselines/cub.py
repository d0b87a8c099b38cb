"""CUB-like hand-written reduction baseline (Section IV-A).

Models NVIDIA CUB 1.8's ``DeviceReduce``: a fixed two-kernel pipeline —
a tiled reduction kernel with **vectorized (float4) loads** [37] feeding
a single-tile kernel that combines the per-block partials — plus the
per-call temp-storage management on the host.

Behavioural properties the paper observes, encoded here structurally:

* bandwidth optimizations for large arrays (vector loads → the
  ``vector`` DRAM-efficiency tier and 4× fewer load instructions);
* **no special casing for small arrays**: always two kernel launches and
  the same host-side temp-storage handling, which is why CUB loses to
  the single-kernel Tangram variants below ~1M elements (Figures 7-10);
* a fixed launch configuration (256 threads, even-share grid capped at
  ``_GRID_CAP``).

``CUB_HOST_OVERHEAD_S`` models the per-call temp-storage query/allocation
cost included in the paper's CUB timings — without a flat host-side cost
of this magnitude the paper's reported 2-6x medium-size speedups are not
reproducible from launch overheads alone (see EXPERIMENTS.md).
"""

from __future__ import annotations

import functools

from ..vir import IRBuilder, Imm, Kernel, KernelStep, Plan, SharedDecl
from .common import combine_op, emit_block_tree_reduce, identity_of

_BLOCK = 256
_ITEMS_PER_THREAD = 4  # one float4 per iteration
_GRID_CAP = 512

#: Host-side temp-storage management per DeviceReduce call (seconds).
CUB_HOST_OVERHEAD_S = 20e-6


def cub_grid(n: int) -> int:
    per_block = _BLOCK * _ITEMS_PER_THREAD
    return max(1, min(_GRID_CAP, -(-n // per_block)))


def _build_upsweep_kernel(op: str) -> Kernel:
    """Kernel 1: vectorized grid-stride accumulate + block tree reduce."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    ntid = b.special("ntid")
    nctaid = b.special("nctaid")
    n = b.ld_param("n")
    n4 = b.ld_param("n4")  # number of whole float4s

    gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
    gsize = b.binop("mul", ntid, nctaid)
    acc = b.mov(Imm(identity_of(op)))

    # vectorized main loop: thread handles float4 number i
    i = b.mov(gid)
    cond = b.fresh("vec_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, n4, dst=cond)
    with loop.body:
        base = b.binop("mul", i, Imm(4))
        lanes = b.ld_global_vec("in", base, width=4)
        for value in lanes:
            b.binop(combine_op(op), acc, value, dst=acc)
        b.binop("add", i, gsize, dst=i)

    # scalar tail: elements [4*n4, n)
    tail_start = b.binop("mul", n4, Imm(4))
    j = b.binop("add", tail_start, gid)
    cond2 = b.fresh("tail_c")
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
        b.st_global("partials", ctaid, total)
    return Kernel(
        name="cub_device_reduce",
        params=["n", "n4"],
        buffers=["in", "partials"],
        shared=[SharedDecl("smem", _BLOCK)],
        body=b.finish(),
        meta={"load_pattern": "vector", "baseline": "cub"},
    )


def _build_single_tile_kernel(op: str) -> Kernel:
    """Kernel 2: one block combines the per-block partials."""
    b = IRBuilder()
    tid = b.special("tid")
    count = b.ld_param("count")
    acc = b.mov(Imm(identity_of(op)))
    i = b.mov(tid)
    cond = b.fresh("st_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", i, count, dst=cond)
    with loop.body:
        value = b.ld_global("partials", i)
        b.binop(combine_op(op), acc, value, dst=acc)
        b.binop("add", i, Imm(_BLOCK), dst=i)
    total = emit_block_tree_reduce(b, acc, _BLOCK, "smem", op)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global("out", 0, total)
    return Kernel(
        name="cub_single_tile",
        params=["count"],
        buffers=["partials", "out"],
        shared=[SharedDecl("smem", _BLOCK)],
        body=b.finish(),
        meta={"load_pattern": "vector", "baseline": "cub"},
    )


@functools.cache
def _kernels(op: str) -> tuple:
    """Both kernels, built once per operator: they read ``n``, ``n4``
    and ``count`` as params, so every input size shares them."""
    return _build_upsweep_kernel(op), _build_single_tile_kernel(op)


def build_cub_plan(n: int, op: str = "add") -> Plan:
    """The full CUB-like DeviceReduce plan for n elements."""
    if n < 1:
        raise ValueError(f"reduction needs n >= 1, got {n}")
    grid = cub_grid(n)
    upsweep, single = _kernels(op)
    steps = [
        KernelStep(
            upsweep,
            grid=grid,
            block=_BLOCK,
            args={"n": n, "n4": n // 4},
            buffers={"in": "in", "partials": "partials"},
        ),
        KernelStep(
            single,
            grid=1,
            block=_BLOCK,
            args={"count": grid},
            buffers={"partials": "partials", "out": "out"},
        ),
    ]
    plan = Plan(
        name="cub_device_reduce",
        steps=steps,
        scratch={"partials": grid, "out": 1},
        result_buffer="out",
        meta={
            "dtype": "float32",
            "baseline": "cub",
            "op": op,
            "n": n,
            "host_overhead_s": CUB_HOST_OVERHEAD_S,
        },
    )
    plan.validate()
    return plan
