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

from ..vir import IRBuilder, Kernel, KernelStep, Plan
from .common import BLOCK, VECTOR_WIDTH, accumulate_kernel, combine_kernel

_GRID = 256
_META = {"load_pattern": "staged", "baseline": "kokkos"}


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
        meta=dict(_META),
    )


@functools.cache
def _kernels(op: str) -> tuple:
    """The three kernels, built once per operator: they read ``n``,
    ``n4`` and ``count`` as params, so every input size shares them."""
    return (
        accumulate_kernel("kokkos_stage", "staged", op, dict(_META)),
        combine_kernel("kokkos_main", "staged", "mid", op, dict(_META)),
        _build_finalize_kernel(),
    )


def build_kokkos_plan(n: int, op: str = "add") -> Plan:
    """The Kokkos-like three-kernel parallel_reduce plan."""
    if n < 1:
        raise ValueError(f"reduction needs n >= 1, got {n}")
    stage, main, finalize = _kernels(op)
    steps = [
        KernelStep(
            stage,
            grid=_GRID,
            block=BLOCK,
            args={"n": n, "n4": n // VECTOR_WIDTH},
            buffers={"in": "in", "staged": "staged"},
        ),
        KernelStep(
            main,
            grid=1,
            block=BLOCK,
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
