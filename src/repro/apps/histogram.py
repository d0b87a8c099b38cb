"""Histogram built on the shared-atomic qualifier (Sections I, III-B).

Histogramming is the paper's motivating application for atomic
instructions on shared memory ([12], [13]): per-block *privatized*
histograms live in shared memory, updated with shared atomics, and are
merged into the global histogram at block end. The alternative —
updating global memory directly — avoids the privatization but pays
global atomic contention per element.

Both strategies are provided:

* ``strategy="shared"`` — the DSL codelet declares
  ``__shared _atomicAdd int hist[BINS]`` and the shared-atomic AST pass
  rewrites the ``+=`` into shared atomics (the paper's Section III-B
  pipeline, applied to a second application);
* ``strategy="global"`` — every element update is a device-scope global
  atomic.

Use :class:`Histogram` for end-to-end runs; see
``benchmarks/bench_histogram.py`` for the shared-vs-global study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen.compiler import CodeletToVIR, GlobalView
from ..core.atomics_shared import apply_shared_atomics
from ..gpusim.engine import Executor
from ..lang import analyze_source
from ..vir import Imm, IRBuilder, Kernel, KernelStep, MemsetStep, Plan

_STRATEGIES = ("shared", "global")


def histogram_source(bins: int) -> str:
    """The DSL codelet: one element per thread, shared-atomic updates."""
    return f"""
__codelet __coop __tag(hist_shared)
int histogram(const Array<1,int> in) {{
  Vector vt();
  __shared _atomicAdd int hist[{bins}];
  if (vt.ThreadId() < in.Size()) {{
    int bin = in[vt.ThreadId()] % {bins};
    hist[bin] += 1;
  }}
  return 0;
}}
"""


@dataclass
class Histogram:
    """End-to-end histogram over int32 keys (bin = key % bins)."""

    bins: int = 64
    block: int = 256
    strategy: str = "shared"
    coarsen: int = 1  # elements per thread

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.bins < 1 or self.bins > 4096:
            raise ValueError(f"bins must be in [1, 4096], got {self.bins}")
        if self.block % 32 or not 32 <= self.block <= 1024:
            raise ValueError(f"bad block size {self.block}")
        if self.coarsen < 1:
            raise ValueError("coarsen must be >= 1")
        if self.strategy == "shared" and self.coarsen != 1:
            raise ValueError(
                "the privatized (shared) strategy processes one element per "
                "thread; use strategy='global' for coarsening"
            )

    # -- plan construction ------------------------------------------------

    def build_plan(self, n: int) -> Plan:
        if n < 1:
            raise ValueError(f"histogram needs n >= 1, got {n}")
        if self.strategy == "shared":
            kernel = self._build_shared_kernel()
        else:
            kernel = self._build_global_kernel()
        per_block = self.block * self.coarsen
        grid = -(-n // per_block)
        plan = Plan(
            name=f"histogram_{self.strategy}",
            steps=[
                MemsetStep("hist", 0),
                KernelStep(
                    kernel,
                    grid=grid,
                    block=self.block,
                    args={"n": n},
                    buffers={"in": "in", "hist": "hist"},
                ),
            ],
            scratch={"hist": self.bins},
            result_buffer="hist",
            meta={"dtype": "int32", "bins": self.bins,
                  "strategy": self.strategy},
        )
        plan.validate()
        return plan

    def _build_shared_kernel(self) -> Kernel:
        """Privatized histogram: DSL codelet -> shared-atomic pass -> VIR."""
        analyzed = analyze_source(histogram_source(self.bins), "histogram.tgm")
        info = analyzed.codelets[0]
        transformed = apply_shared_atomics(info.codelet)

        b = IRBuilder()
        tid = b.special("tid")
        gbase, kcount = self._grid_view(b)
        binding = GlobalView(
            buf="in", base=gbase, stride=Imm(1), size=kcount,
            size_static=self.block,
        )
        compiler = CodeletToVIR(
            b, transformed.codelet, binding, identity=0.0, prefix="h"
        )
        compiler.compile()
        shared = compiler.shared_decls
        # merge the privatized histogram into global memory
        merge_idx = b.mov(tid)
        cond = b.fresh("hm_c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", merge_idx, Imm(self.bins), dst=cond)
        with loop.body:
            value = b.ld_shared(shared[0].name, merge_idx)
            b.atom_global("add", "hist", merge_idx, value)
            b.binop("add", merge_idx, Imm(self.block), dst=merge_idx)
        return Kernel(
            name="histogram_shared",
            params=["n"],
            buffers=["in", "hist"],
            shared=shared,
            body=b.finish(),
            meta={"load_pattern": "scalar", "app": "histogram"},
        )

    def _build_global_kernel(self) -> Kernel:
        """Direct global atomics, one per element (no privatization)."""
        b = IRBuilder()
        gbase, kcount = self._grid_view(b)
        tid = b.special("tid")
        j = b.mov(tid)
        cond = b.fresh("hg_c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", j, kcount, dst=cond)
        with loop.body:
            idx = b.binop("add", gbase, j)
            key = b.ld_global("in", idx)
            bin_reg = b.binop("mod", key, Imm(self.bins))
            b.atom_global("add", "hist", bin_reg, Imm(1.0))
            b.binop("add", j, Imm(self.block), dst=j)
        return Kernel(
            name="histogram_global",
            params=["n"],
            buffers=["in", "hist"],
            shared=[],
            body=b.finish(),
            meta={"load_pattern": "scalar", "app": "histogram"},
        )

    def _grid_view(self, b):
        ctaid = b.special("ctaid")
        n_reg = b.ld_param("n")
        per_block = self.block * self.coarsen
        gbase = b.binop("mul", ctaid, Imm(per_block))
        remaining = b.binop("sub", n_reg, gbase)
        clamped = b.binop("max", remaining, Imm(0))
        kcount = b.binop("min", clamped, Imm(per_block))
        return gbase, kcount

    # -- execution -----------------------------------------------------------

    def run(self, keys: np.ndarray):
        """Compute the histogram functionally; returns int64 counts."""
        keys = np.ascontiguousarray(keys, dtype=np.int32)
        if keys.ndim != 1 or keys.size == 0:
            raise ValueError("run() needs a non-empty 1-D int array")
        plan = self.build_plan(keys.size)
        executor = Executor()
        executor.device.upload("in", keys)
        profile = executor.run_plan(plan)
        counts = executor.device.download("hist").astype(np.int64)
        return counts, profile

    def time(self, n: int, arch) -> float:
        """Modelled wall time of the histogram on one architecture."""
        from ..gpusim import get_architecture, plan_time
        from ..runtime.session import _profile_plan

        arch = get_architecture(arch)
        profile = _profile_plan(self.build_plan(n), n)
        return plan_time(profile, arch, num_memsets=1)


def reference_histogram(keys: np.ndarray, bins: int) -> np.ndarray:
    """numpy reference used by tests and benches."""
    return np.bincount(np.asarray(keys, dtype=np.int64) % bins, minlength=bins)
