"""Kernel synthesis: compose a code version into a VIR plan.

This implements the Map/Partition semantics of Section II-B-2: at the
**grid level** the input array is partitioned across blocks (tiled or
strided access pattern), at the **block level** either a cooperative
codelet reduces the block's elements directly or a compound codelet
distributes them to threads (tiled or strided) for serial reduction,
after which a cooperative codelet combines the per-thread partials.
Per-block results are combined with a global atomic (Listing 2) or
written to a partials array consumed by a second kernel launch
(Listing 1).

The synthesizer owns the "argument linker / index calculation" stages of
Figure 5: all address arithmetic lives here, while the codelet bodies are
compiled generically by :mod:`repro.codegen.compiler`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..core.pipeline import PreprocessResult
from ..core.sources import identity_value
from ..core.variants import Version, fig6_label
from ..lang.errors import SynthesisError
from ..perf import content_key
from ..vir import IRBuilder, Imm, Kernel, KernelStep, MemsetStep, Plan
from .compiler import CodeletToVIR, GlobalView, RegisterPartials

#: Default second-kernel block size (reduction of per-block partials).
_SECOND_KERNEL_BLOCK = 256

#: Cap on the partition count of compound versions when untuned (the
#: paper's tunable ``p``; the autotuner sweeps around this default).
_DEFAULT_COMPOUND_GRID_CAP = 1024


@dataclass(frozen=True)
class Tunables:
    """The paper's ``__tunable`` launch parameters (Section IV-C)."""

    block: int = 256
    grid: int = None  # partition count p for compound versions

    def __post_init__(self):
        if self.block < 32 or self.block % 32 or self.block > 1024:
            raise SynthesisError(
                f"block size must be a multiple of 32 in [32, 1024], got "
                f"{self.block}"
            )
        if self.grid is not None and self.grid < 1:
            raise SynthesisError(f"grid must be positive, got {self.grid}")


def launch_geometry(version: Version, n: int, tunables: Tunables) -> dict:
    """Grid/block shape and coarsening for a version at input size n."""
    if n < 1:
        raise SynthesisError(f"reduction needs n >= 1, got {n}")
    block = tunables.block
    if version.block_kind == "coop":
        grid = _ceil_div(n, block)
        return {"block": block, "grid": grid, "epb": block, "coarsen": 1}
    grid = tunables.grid or min(_DEFAULT_COMPOUND_GRID_CAP, _ceil_div(n, block))
    grid = min(grid, _ceil_div(n, 1))
    epb = _ceil_div(n, grid)
    coarsen = _ceil_div(epb, block)
    epb = coarsen * block  # pad so thread tiling is uniform
    return {"block": block, "grid": grid, "epb": epb, "coarsen": coarsen}


def build_plan(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
) -> Plan:
    """Synthesize the full host plan for one version at input size n."""
    tunables = tunables or Tunables()
    geometry = launch_geometry(version, n, tunables)
    op = pre.reduction_op
    ctype = _element_ctype(pre)
    identity = identity_value(op, ctype)
    label = fig6_label(version)

    kernel = _build_main_kernel(pre, version, n, geometry, identity)
    plan_name = f"tangram_{label or version.identifier}"
    steps = []
    scratch = {"out": 1}
    if version.final_combine == "global_atomic":
        steps.append(MemsetStep("out", identity))
        steps.append(
            KernelStep(
                kernel,
                grid=geometry["grid"],
                block=geometry["block"],
                args={"n": n},
                buffers={"in": "in", "out": "out"},
            )
        )
    else:
        scratch["partials"] = geometry["grid"]
        steps.append(
            KernelStep(
                kernel,
                grid=geometry["grid"],
                block=geometry["block"],
                args={"n": n},
                buffers={"in": "in", "partials": "partials"},
            )
        )
        second = _build_second_kernel(pre, geometry["grid"], identity)
        steps.append(
            KernelStep(
                second,
                grid=1,
                block=_SECOND_KERNEL_BLOCK,
                args={"n": geometry["grid"]},
                buffers={"partials": "partials", "out": "out"},
            )
        )
    plan = Plan(
        name=plan_name,
        steps=steps,
        scratch=scratch,
        result_buffer="out",
        result_index=0,
        meta={
            "dtype": "int32" if ctype == "int" else "float32",
            "version": version.identifier,
            "label": label,
            "op": op,
            "n": n,
            "geometry": geometry,
        },
    )
    plan.validate()
    return plan


# ---------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------


def _pipeline_fingerprint(pre) -> str:
    """sha256 prefix of the preprocessing pass log, memoized on ``pre``.

    The log records every pass that ran (including the unroll flag), so
    any change to the frontend configuration changes the fingerprint and
    with it every plan-cache key derived from this result.
    """
    sig = getattr(pre, "_pipeline_fingerprint", None)
    if sig is None:
        sig = hashlib.sha256("\n".join(pre.log).encode("utf-8")).hexdigest()[:16]
        pre._pipeline_fingerprint = sig
    return sig


def plan_key(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
    backend: str = "compiled",
) -> str:
    """Content-hash key identifying one built plan (see ``repro.perf``).

    The execution backend is part of the key: a cached plan is
    pre-warmed for exactly one backend's per-kernel artifact (compiled
    closures, ...), and artifact memoization is by
    kernel object identity — so plans warmed for different backends
    must be distinct entries.
    """
    t = tunables or Tunables()
    return content_key(
        kind="plan",
        op=pre.reduction_op,
        ctype=_element_ctype(pre),
        version=version.identifier,
        n=int(n),
        block=t.block,
        grid=t.grid,
        passes=_pipeline_fingerprint(pre),
        backend=backend,
    )


def build_plan_cached(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
    backend: str = "compiled",
) -> Plan:
    """:func:`build_plan` through the process-wide plan cache.

    On a miss the plan is built and *pre-warmed*: each kernel step's
    per-kernel backend artifact (resolved through the backend registry
    — compiled closure trace, ...) and batchability
    summary are computed before the plan is published, so every later
    executor — any framework instance, any sweep worker thread —
    starts hot. Keys are content hashes (:func:`plan_key`), so two
    frameworks with the same frontend configuration *and backend*
    share one built plan.
    """
    # Imported lazily: codegen must stay importable without dragging in
    # the simulator (and gpusim must never import codegen at top level).
    from ..gpusim import analyze_batchability, get_backend
    from ..obs import get_tracer
    from ..perf import default_plan_cache

    cache = default_plan_cache()
    key = plan_key(pre, version, n, tunables, backend=backend)
    plan = cache.get(key)
    if plan is None:
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span(
            "plan.build", version=version.identifier, n=int(n)
        ) as span:
            plan = build_plan(pre, version, n, tunables)
            span.set(name_=plan.name, steps=len(plan.steps))
        with tracer.span(
            "plan.compile", version=version.identifier, n=int(n)
        ) as span:
            prepare = get_backend(backend).prepare
            traces = 0
            for step in plan.kernel_steps():
                artifact = prepare(step.kernel)
                trace = getattr(artifact, "trace", None)
                if trace is not None:
                    traces += len(trace)
                analyze_batchability(step.kernel)
            span.set(closures=traces, backend=backend)
        cache.put(key, plan, cost_s=time.perf_counter() - start)
    return plan


# ---------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _element_ctype(pre) -> str:
    """The DSL element type of the spectrum ('float' or 'int')."""
    return str(pre.analyzed.spectrum(pre.spectrum)[0].codelet.return_type)


def _build_main_kernel(pre, version, n, geometry, identity) -> Kernel:
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    n_reg = b.ld_param("n")
    grid = geometry["grid"]
    block = geometry["block"]
    epb = geometry["epb"]

    # Grid-level sub-container: global index = gbase + k * gstride for
    # k in [0, kcount).
    if version.grid_pattern == "tile":
        gbase = b.binop("mul", ctaid, Imm(epb))
        gstride = Imm(1)
        remaining = b.binop("sub", n_reg, gbase)
        clamped = b.binop("max", remaining, Imm(0))
        kcount = b.binop("min", clamped, Imm(epb))
    else:  # stride
        gbase = b.mov(ctaid)
        gstride = Imm(grid)
        numer = b.binop("sub", n_reg, ctaid)
        numer = b.binop("add", numer, Imm(grid - 1))
        numer = b.binop("max", numer, Imm(0))
        raw = b.binop("div", numer, Imm(grid))
        kcount = b.binop("min", raw, Imm(epb))

    if version.block_kind == "coop":
        coop = pre.coop_variant(version.combine)
        binding = GlobalView(
            buf="in", base=gbase, stride=gstride, size=kcount, size_static=block
        )
        compiler = CodeletToVIR(
            b, coop.codelet, binding, identity=identity, prefix="blk"
        )
        ret = compiler.compile()
        shared = compiler.shared_decls
        meta = {
            "load_pattern": "scalar",
            "uses_shuffle": coop.uses_shuffle,
            "uses_shared_atomic": coop.uses_shared_atomic,
            "cross_block_interleaved": version.grid_pattern == "stride",
        }
    else:
        ret, shared, meta = _compile_compound_block(
            pre, version, b, geometry, gbase, gstride, kcount, identity
        )

    is_zero = b.binop("eq", tid, 0)
    if version.final_combine == "global_atomic":
        with b.if_(is_zero):
            b.atom_global(pre.reduction_op, "out", 0, ret)
        buffers = ["in", "out"]
    else:
        with b.if_(is_zero):
            b.st_global("partials", ctaid, ret)
        buffers = ["in", "partials"]

    label = fig6_label(version)
    name = f"reduce_{label}" if label else "reduce_block"
    return Kernel(
        name=name,
        params=["n"],
        buffers=buffers,
        shared=shared,
        body=b.finish(),
        meta=meta,
    )


def _compile_compound_block(
    pre, version, b, geometry, gbase, gstride, kcount, identity
):
    """Thread-level serial reduction + cooperative combine of partials."""
    block = geometry["block"]
    coarsen = geometry["coarsen"]
    tid = b.special("tid")

    if version.block_pattern == "tile":
        k0 = b.binop("mul", tid, Imm(coarsen))
        t_remaining = b.binop("sub", kcount, k0)
        t_clamped = b.binop("max", t_remaining, Imm(0))
        tcount = b.binop("min", t_clamped, Imm(coarsen))
        tstride = gstride
    else:  # stride: k = tid + j * block
        k0 = b.mov(tid)
        numer = b.binop("sub", kcount, tid)
        numer = b.binop("add", numer, Imm(block - 1))
        numer = b.binop("max", numer, Imm(0))
        tcount = b.binop("div", numer, Imm(block))
        if isinstance(gstride, Imm):
            tstride = Imm(block * gstride.value)
        else:
            tstride = b.binop("mul", gstride, Imm(block))

    if isinstance(gstride, Imm) and gstride.value == 1:
        scaled_k0 = k0
    else:
        scaled_k0 = b.binop("mul", k0, gstride)
    tbase = b.binop("add", gbase, scaled_k0)

    scalar_info = pre.analyzed.find(pre.spectrum, "scalar")
    thread_view = GlobalView(
        buf="in", base=tbase, stride=tstride, size=tcount, size_static=None
    )
    thread_compiler = CodeletToVIR(
        b, scalar_info.codelet, thread_view, identity=identity, prefix="thr"
    )
    val = thread_compiler.compile()

    combine = pre.coop_variant(version.combine)
    partials = RegisterPartials(value=val, count=block)
    combine_compiler = CodeletToVIR(
        b, combine.codelet, partials, identity=identity, prefix="cmb"
    )
    ret = combine_compiler.compile()
    shared = thread_compiler.shared_decls + combine_compiler.shared_decls
    meta = {
        "load_pattern": "scalar",
        "uses_shuffle": combine.uses_shuffle,
        "uses_shared_atomic": combine.uses_shared_atomic,
        "coarsen": coarsen,
        "cross_block_interleaved": version.grid_pattern == "stride",
    }
    return ret, shared, meta


def _build_second_kernel(pre, num_partials, identity) -> Kernel:
    """Single-block reduction of per-block partials (the second launch
    the pruning rule of Section IV-B removes)."""
    b = IRBuilder()
    tid = b.special("tid")
    n_reg = b.ld_param("n")
    block = _SECOND_KERNEL_BLOCK

    # serial grid-stride accumulate per thread over the partials array
    numer = b.binop("sub", n_reg, tid)
    numer = b.binop("add", numer, Imm(block - 1))
    numer = b.binop("max", numer, Imm(0))
    tcount = b.binop("div", numer, Imm(block))
    scalar_info = pre.analyzed.find(pre.spectrum, "scalar")
    view = GlobalView(
        buf="partials", base=tid, stride=Imm(block), size=tcount, size_static=None
    )
    thread_compiler = CodeletToVIR(
        b, scalar_info.codelet, view, identity=identity, prefix="thr2"
    )
    val = thread_compiler.compile()

    combine = pre.coop_variant("V")
    partials = RegisterPartials(value=val, count=block)
    combine_compiler = CodeletToVIR(
        b, combine.codelet, partials, identity=identity, prefix="cmb2"
    )
    ret = combine_compiler.compile()

    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global("out", 0, ret)
    return Kernel(
        name="reduce_partials",
        params=["n"],
        buffers=["partials", "out"],
        shared=thread_compiler.shared_decls + combine_compiler.shared_decls,
        body=b.finish(),
        meta={"load_pattern": "scalar"},
    )
