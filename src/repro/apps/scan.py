"""Inclusive prefix sum (scan) — the paper's other motivating algorithm.

Section I names Scan [14] (with Histogram) as a fundamental building
block that parallel reduction enables. This module implements a full
device-wide inclusive scan on the simulator substrate, with the two
block-scan strategies the paper's instruction-set discussion contrasts:

* ``strategy="shared"`` — classic Kogge-Stone scan through shared
  memory (a barrier per step, the pre-Kepler idiom);
* ``strategy="shuffle"`` — warp scan via ``__shfl_up`` register
  exchanges (Section II-A-1's warp shuffle instructions), warp totals
  combined through a small shared array.

The device-wide scan is the standard three-kernel pipeline:
block scans + block sums → scan of block sums → offset add-back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim.engine import WARP, Executor
from ..vir import Imm, IRBuilder, Kernel, KernelStep, Plan, SharedDecl

_STRATEGIES = ("shared", "shuffle")


def _emit_block_scan_shared(b, val, block):
    """Kogge-Stone inclusive scan of one value per thread (shared mem)."""
    tid = b.special("tid")
    b.st_shared("scan_smem", tid, val)
    b.bar()
    offset = b.mov(Imm(1))
    cond = b.fresh("ks_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", offset, block, dst=cond)
    with loop.body:
        take = b.binop("ge", tid, offset)
        with b.if_(take):
            left = b.ld_shared("scan_smem", b.binop("sub", tid, offset))
            b.binop("add", val, left, dst=val)
        b.bar()
        b.st_shared("scan_smem", tid, val)
        b.bar()
        b.binop("mul", offset, Imm(2), dst=offset)
    return val, [SharedDecl("scan_smem", block)]


def _emit_block_scan_shuffle(b, val, block):
    """Warp scan with __shfl_up, then scan of warp totals (cf. [18])."""
    tid = b.special("tid")
    lane = b.special("laneid")
    warp = b.special("warpid")
    warps = block // WARP

    offset = b.mov(Imm(1))
    cond = b.fresh("ws_c")
    loop = b.while_(cond)
    with loop.cond:
        b.binop("lt", offset, Imm(WARP), dst=cond)
    with loop.body:
        shifted = b.shfl(val, "up", offset, width=WARP)
        take = b.binop("ge", lane, offset)
        with b.if_(take):
            b.binop("add", val, shifted, dst=val)
        b.binop("mul", offset, Imm(2), dst=offset)

    # last lane of each warp publishes the warp total
    is_last = b.binop("eq", lane, Imm(WARP - 1))
    with b.if_(is_last):
        b.st_shared("warp_totals", warp, val)
    b.bar()

    # exclusive scan of warp totals, serially by thread 0 (warps <= 32)
    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        running = b.mov(Imm(0.0))
        index = b.mov(Imm(0))
        cond2 = b.fresh("wt_c")
        loop2 = b.while_(cond2)
        with loop2.cond:
            b.binop("lt", index, Imm(warps), dst=cond2)
        with loop2.body:
            total = b.ld_shared("warp_totals", index)
            b.st_shared("warp_offsets", index, running)
            b.binop("add", running, total, dst=running)
            b.binop("add", index, Imm(1), dst=index)
    b.bar()
    warp_offset = b.ld_shared("warp_offsets", warp)
    b.binop("add", val, warp_offset, dst=val)
    return val, [SharedDecl("warp_totals", warps), SharedDecl("warp_offsets", warps)]


@dataclass
class Scan:
    """Device-wide inclusive prefix sum over float32 values."""

    block: int = 256
    strategy: str = "shuffle"

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.block % 32 or not 32 <= self.block <= 1024:
            raise ValueError(f"bad block size {self.block}")

    # -- kernels ----------------------------------------------------------

    def _build_block_scan_kernel(self) -> Kernel:
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        n_reg = b.ld_param("n")
        gid = b.binop("add", b.binop("mul", ctaid, Imm(self.block)), tid)
        in_range = b.binop("lt", gid, n_reg)
        val = b.mov(Imm(0.0))
        with b.if_(in_range):
            loaded = b.ld_global("in", gid)
            b.mov(loaded, dst=val)
        if self.strategy == "shared":
            val, shared = _emit_block_scan_shared(b, val, self.block)
        else:
            val, shared = _emit_block_scan_shuffle(b, val, self.block)
        with b.if_(in_range):
            b.st_global("out", gid, val)
        is_last_thread = b.binop("eq", tid, Imm(self.block - 1))
        with b.if_(is_last_thread):
            b.st_global("block_sums", ctaid, val)
        return Kernel(
            name=f"scan_block_{self.strategy}",
            params=["n"],
            buffers=["in", "out", "block_sums"],
            shared=shared,
            body=b.finish(),
            meta={"load_pattern": "scalar", "app": "scan",
                  "uses_shuffle": self.strategy == "shuffle"},
        )

    def _build_sums_scan_kernel(self, grid: int) -> Kernel:
        """Single-block scan of the per-block sums (thread-coarsened)."""
        b = IRBuilder()
        tid = b.special("tid")
        count = b.ld_param("count")
        chunk = b.ld_param("chunk")
        # thread t serially scans sums[t*chunk : (t+1)*chunk) in place,
        # recording its chunk total
        start = b.binop("mul", tid, chunk)
        end_raw = b.binop("add", start, chunk)
        end = b.binop("min", end_raw, count)
        running = b.mov(Imm(0.0))
        i = b.mov(start)
        cond = b.fresh("sc_c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", i, end, dst=cond)
        with loop.body:
            value = b.ld_global("block_sums", i)
            b.binop("add", running, value, dst=running)
            b.st_global("block_sums", i, running)
            b.binop("add", i, Imm(1), dst=i)
        # scan the per-thread chunk totals across the block; the scan
        # mutates its input register, so keep a copy of the own total
        own_total = b.mov(running)
        total, shared = _emit_block_scan_shared(b, running, self.block)
        # chunk offset = inclusive-scan value minus own chunk total
        offset = b.binop("sub", total, own_total)
        # add the offset back to this thread's chunk
        j = b.mov(start)
        cond2 = b.fresh("sc2_c")
        loop2 = b.while_(cond2)
        with loop2.cond:
            b.binop("lt", j, end, dst=cond2)
        with loop2.body:
            value = b.ld_global("block_sums", j)
            b.st_global("block_sums", j, b.binop("add", value, offset))
            b.binop("add", j, Imm(1), dst=j)
        return Kernel(
            name="scan_block_sums",
            params=["count", "chunk"],
            buffers=["block_sums"],
            shared=shared,
            body=b.finish(),
            meta={"load_pattern": "scalar", "app": "scan"},
        )

    def _build_offset_kernel(self) -> Kernel:
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        n_reg = b.ld_param("n")
        gid = b.binop("add", b.binop("mul", ctaid, Imm(self.block)), tid)
        in_range = b.binop("lt", gid, n_reg)
        not_first = b.binop("gt", ctaid, 0)
        apply = b.binop("land", in_range, not_first)
        with b.if_(apply):
            prev = b.binop("sub", ctaid, Imm(1))
            offset = b.ld_global("block_sums", prev)
            value = b.ld_global("out", gid)
            b.st_global("out", gid, b.binop("add", value, offset))
        return Kernel(
            name="scan_add_offsets",
            params=["n"],
            buffers=["out", "block_sums"],
            shared=[],
            body=b.finish(),
            meta={"load_pattern": "scalar", "app": "scan"},
        )

    # -- plan / execution -----------------------------------------------------

    def build_plan(self, n: int) -> Plan:
        if n < 1:
            raise ValueError(f"scan needs n >= 1, got {n}")
        grid = -(-n // self.block)
        max_sums = self.block * self.block  # one coarsened single block
        if grid > max_sums:
            raise ValueError(
                f"scan supports up to {max_sums * self.block} elements at "
                f"block={self.block}; got n={n}"
            )
        chunk = -(-grid // self.block)
        steps = [
            KernelStep(
                self._build_block_scan_kernel(),
                grid=grid,
                block=self.block,
                args={"n": n},
                buffers={"in": "in", "out": "out", "block_sums": "block_sums"},
            ),
            KernelStep(
                self._build_sums_scan_kernel(grid),
                grid=1,
                block=self.block,
                args={"count": grid, "chunk": chunk},
                buffers={"block_sums": "block_sums"},
            ),
            KernelStep(
                self._build_offset_kernel(),
                grid=grid,
                block=self.block,
                args={"n": n},
                buffers={"out": "out", "block_sums": "block_sums"},
            ),
        ]
        plan = Plan(
            name=f"scan_{self.strategy}",
            steps=steps,
            scratch={"out": n, "block_sums": grid},
            result_buffer="out",
            result_index=n - 1,
            meta={"dtype": "float32", "strategy": self.strategy},
        )
        plan.validate()
        return plan

    def run(self, data: np.ndarray):
        """Inclusive scan; returns (scanned array, profile)."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("run() needs a non-empty 1-D array")
        plan = self.build_plan(data.size)
        executor = Executor()
        executor.device.upload("in", data)
        profile = executor.run_plan(plan)
        return executor.device.download("out"), profile

    def time(self, n: int, arch) -> float:
        """Modelled wall time of the device-wide scan."""
        from ..gpusim import get_architecture, plan_time
        from ..runtime.session import _profile_plan

        arch = get_architecture(arch)
        profile = _profile_plan(self.build_plan(n), n)
        return plan_time(profile, arch)
