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
from ..core.variants import Version, fig6_label
from ..lang.errors import SynthesisError
from ..lang.reductions import identity_value
from ..vir import (
    Arg,
    IRBuilder,
    Imm,
    Kernel,
    KernelStep,
    MemsetStep,
    Plan,
    walk_instrs,
)
from ..vir.instructions import reads
from .compiler import CodeletToVIR, GlobalView, RegisterPartials

#: Default second-kernel block size (reduction of per-block partials).
_SECOND_KERNEL_BLOCK = 256

#: Cap on the partition count of compound versions when untuned (the
#: paper's tunable ``p``; the autotuner sweeps around this default).
_DEFAULT_COMPOUND_GRID_CAP = 1024

#: Launch-geometry values a main kernel reads as launch constants
#: (:class:`~repro.vir.Arg`), so one kernel serves every input size and
#: grid of a block size.
LAUNCH_CONSTANTS = ("epb", "coarsen", "grid", "grid_minus_1", "grid_stride")


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
    """Grid/block shape and coarsening for a version at input size n,
    plus every derived value the main kernel reads as a launch constant
    (see :data:`LAUNCH_CONSTANTS`)."""
    if n < 1:
        raise SynthesisError(f"reduction needs n >= 1, got {n}")
    block = tunables.block
    if version.block_kind == "coop":
        grid, epb, coarsen = _ceil_div(n, block), block, 1
    else:
        grid = tunables.grid or min(
            _DEFAULT_COMPOUND_GRID_CAP, _ceil_div(n, block)
        )
        grid = min(grid, n)
        coarsen = _ceil_div(_ceil_div(n, grid), block)
        epb = coarsen * block  # pad so thread tiling is uniform
    return {
        "block": block,
        "grid": grid,
        "epb": epb,
        "coarsen": coarsen,
        "grid_minus_1": grid - 1,
        "grid_stride": block * grid,
    }


def build_plan(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
) -> Plan:
    """Synthesize the full host plan for one version at input size n,
    building its kernels afresh."""
    geometry = launch_geometry(version, n, tunables or Tunables())
    kernels = _build_kernels(pre, version, geometry)
    plan = _assemble_plan(pre, version, n, geometry, kernels)
    plan.validate()
    return plan


def _build_kernels(pre, version, geometry) -> tuple:
    """The kernels of one version's plan: the main kernel, plus the
    partials kernel for a second-kernel final combine."""
    identity = identity_value(pre.reduction_op, pre.ctype)
    main = _build_main_kernel(
        pre, version, geometry["block"], _unit_stride(version, geometry),
        identity,
    )
    if version.final_combine == "global_atomic":
        return (main,)
    return main, _build_second_kernel(pre, identity)


def _assemble_plan(pre, version, n, geometry, kernels) -> Plan:
    """The host plan around built kernels: launch shapes and launch
    constants carry everything that depends on ``n``."""
    op = pre.reduction_op
    label = fig6_label(version)
    main = kernels[0]
    args = {"n": n}
    args.update((name, geometry[name]) for name in main.params[1:])
    steps = [
        KernelStep(
            main,
            grid=geometry["grid"],
            block=geometry["block"],
            args=args,
            buffers={name: name for name in main.buffers},
        )
    ]
    scratch = {"out": 1}
    if version.final_combine == "global_atomic":
        steps.insert(0, MemsetStep("out", identity_value(op, pre.ctype)))
    else:
        scratch["partials"] = geometry["grid"]
        steps.append(
            KernelStep(
                kernels[1],
                grid=1,
                block=_SECOND_KERNEL_BLOCK,
                args={"n": geometry["grid"]},
                buffers={"partials": "partials", "out": "out"},
            )
        )
    return Plan(
        name=f"tangram_{label or version.identifier}",
        steps=steps,
        scratch=scratch,
        result_buffer="out",
        result_index=0,
        meta={
            "dtype": "int32" if pre.ctype == "int" else "float32",
            "version": version.identifier,
            "label": label,
            "op": op,
            "n": n,
            "geometry": geometry,
        },
    )


# ---------------------------------------------------------------------
# kernel cache
# ---------------------------------------------------------------------


def _pipeline_fingerprint(pre) -> str:
    """sha256 prefix of the preprocessing pass log, memoized on ``pre``.

    The log records every pass that ran (including the unroll flag), so
    any change to the frontend configuration changes the fingerprint and
    with it every kernel-cache key derived from this result.
    """
    sig = getattr(pre, "_pipeline_fingerprint", None)
    if sig is None:
        sig = hashlib.sha256("\n".join(pre.log).encode("utf-8")).hexdigest()[:16]
        pre._pipeline_fingerprint = sig
    return sig


def _unit_stride(version, geometry) -> bool:
    """Whether a grid-strided version runs on a one-block grid. Its
    element stride is then the immediate 1, which drops a multiply from
    the kernel, so that grid gets a kernel of its own."""
    return version.grid_pattern == "stride" and geometry["grid"] == 1


def kernel_key(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
) -> tuple:
    """Key of the kernels behind one plan in the plan cache (see
    ``repro.perf``).

    Everything that shapes a kernel's code is in the key: operator,
    element ctype, preprocessing passes, version and block size. ``n``
    and the grid are not — the kernel reads them as launch arguments —
    except for whether a grid-strided version has a unit stride.
    """
    t = tunables or Tunables()
    return (
        "kernels",
        pre.reduction_op,
        pre.ctype,
        version.identifier,
        t.block,
        _unit_stride(version, launch_geometry(version, n, t)),
        _pipeline_fingerprint(pre),
    )


def build_plan_cached(
    pre: PreprocessResult,
    version: Version,
    n: int,
    tunables: Tunables = None,
) -> Plan:
    """:func:`build_plan` around kernels from the process-wide cache.

    Kernels are cached in ``repro.perf.default_plan_cache`` under
    :func:`kernel_key`, so every ``n`` and grid of a (version, block)
    shares one kernel object. On a miss the plan is built with fresh
    kernels, which are validated and *pre-warmed*: each one's
    ``compiled`` artifact (its closure traces, resolved through
    :func:`repro.gpusim.get_backend` at call time) is built before the
    kernels are published, and building it computes the kernel's static
    facts (:func:`repro.vir.analysis.kernel_facts`), the batchability
    summary among them, so every later executor — any framework
    instance, any sweep worker thread — starts hot. On a hit only the
    host plan is assembled.
    """
    # Imported lazily: codegen must stay importable without dragging in
    # the simulator (and gpusim must never import codegen at top level).
    from ..gpusim import get_backend
    from ..obs import default_metrics, get_tracer
    from ..perf import default_plan_cache

    tunables = tunables or Tunables()
    cache = default_plan_cache()
    key = kernel_key(pre, version, n, tunables)
    kernels = cache.get(key)
    if kernels is not None:
        default_metrics().inc("codegen.kernels_reused", len(kernels))
        geometry = launch_geometry(version, n, tunables)
        return _assemble_plan(pre, version, n, geometry, kernels)
    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span(
        "plan.build", version=version.identifier, block=tunables.block
    ) as span:
        plan = build_plan(pre, version, n, tunables)
        span.set(name_=plan.name, steps=len(plan.steps))
    kernels = tuple(step.kernel for step in plan.kernel_steps())
    with tracer.span(
        "plan.compile", version=version.identifier, block=tunables.block
    ) as span:
        prepare = get_backend("compiled").prepare
        traces = 0
        for kernel in kernels:
            traces += len(prepare(kernel).trace)
        span.set(closures=traces)
    cache.put(key, kernels, cost_s=time.perf_counter() - start)
    default_metrics().inc("codegen.kernels_built", len(kernels))
    return plan


# ---------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _build_main_kernel(pre, version, block, unit_stride, identity) -> Kernel:
    """The version's kernel for one block size. Grid-dependent values
    are launch constants (:data:`LAUNCH_CONSTANTS`); block-derived ones
    stay immediates, because shared sizes and tree loops depend on them.
    ``unit_stride`` bakes a grid-strided version's stride of 1 in."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    n_reg = b.ld_param("n")
    epb = Arg("epb")

    # Grid-level sub-container: global index = gbase + k * gstride for
    # k in [0, kcount).
    if version.grid_pattern == "tile":
        gbase = b.binop("mul", ctaid, epb)
        gstride = Imm(1)
        remaining = b.binop("sub", n_reg, gbase)
        clamped = b.binop("max", remaining, Imm(0))
        kcount = b.binop("min", clamped, epb)
    else:  # stride
        gbase = b.mov(ctaid)
        gstride = Imm(1) if unit_stride else Arg("grid")
        numer = b.binop("sub", n_reg, ctaid)
        numer = b.binop("add", numer, Arg("grid_minus_1"))
        numer = b.binop("max", numer, Imm(0))
        raw = b.binop("div", numer, Arg("grid"))
        kcount = b.binop("min", raw, epb)

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
            pre, version, b, block, gbase, gstride, kcount, identity
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
    body = b.finish()
    return Kernel(
        name=name,
        params=["n", *_launch_constants(body)],
        buffers=buffers,
        shared=shared,
        body=body,
        meta=meta,
    )


def _launch_constants(body) -> list:
    """The launch constants a kernel body reads, in
    :data:`LAUNCH_CONSTANTS` order."""
    used = {
        op.name
        for instr in walk_instrs(body)
        for op in reads(instr)
        if isinstance(op, Arg)
    }
    return [name for name in LAUNCH_CONSTANTS if name in used]


def _compile_compound_block(
    pre, version, b, block, gbase, gstride, kcount, identity
):
    """Thread-level serial reduction + cooperative combine of partials."""
    coarsen = Arg("coarsen")
    tid = b.special("tid")

    if version.block_pattern == "tile":
        k0 = b.binop("mul", tid, coarsen)
        t_remaining = b.binop("sub", kcount, k0)
        t_clamped = b.binop("max", t_remaining, Imm(0))
        tcount = b.binop("min", t_clamped, coarsen)
        tstride = gstride
    else:  # stride: k = tid + j * block
        k0 = b.mov(tid)
        numer = b.binop("sub", kcount, tid)
        numer = b.binop("add", numer, Imm(block - 1))
        numer = b.binop("max", numer, Imm(0))
        tcount = b.binop("div", numer, Imm(block))
        if isinstance(gstride, Imm):
            tstride = Imm(block * gstride.value)
        else:  # the grid stride block * grid
            tstride = Arg("grid_stride")

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
        "cross_block_interleaved": version.grid_pattern == "stride",
    }
    return ret, shared, meta


def _build_second_kernel(pre, identity) -> Kernel:
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
