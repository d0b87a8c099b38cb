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

from ..vir import KernelStep, Plan
from .common import BLOCK, VECTOR_WIDTH, accumulate_kernel, combine_kernel

_GRID_CAP = 512

#: Host-side temp-storage management per DeviceReduce call (seconds).
CUB_HOST_OVERHEAD_S = 20e-6


def cub_grid(n: int) -> int:
    per_block = BLOCK * VECTOR_WIDTH  # one float4 per thread
    return max(1, min(_GRID_CAP, -(-n // per_block)))


@functools.cache
def _kernels(op: str) -> tuple:
    """Both kernels, built once per operator: they read ``n``, ``n4``
    and ``count`` as params, so every input size shares them."""
    meta = {"load_pattern": "vector", "baseline": "cub"}
    return (
        accumulate_kernel("cub_device_reduce", "partials", op, dict(meta)),
        combine_kernel("cub_single_tile", "partials", "out", op, dict(meta)),
    )


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
            block=BLOCK,
            args={"n": n, "n4": n // 4},
            buffers={"in": "in", "partials": "partials"},
        ),
        KernelStep(
            single,
            grid=1,
            block=BLOCK,
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
