"""Functional SIMT execution of VIR kernels with event profiling.

Execution model
---------------

A block executes in **lockstep**: every VIR instruction is applied to all
threads of the block at once as a numpy vector operation, restricted to
the currently *active lanes*. Structured ``If``/``While`` regions narrow
the active mask exactly the way SIMT hardware's reconvergence stack does,
so divergence, predication and warp-level operations (shuffles, atomics)
behave like the real machine.

All blocks run through one run state, :class:`_BatchedRun`: a chunk of
blocks executes as a single 2-D ``blocks × threads`` numpy batch.
Reduction kernels have block-uniform control flow, so every per-thread
vector op, mask and event counter simply gains a leading block axis;
one pass over the instruction stream then services every block of the
chunk at once, which removes the dominant Python interpretation
overhead. The block order is derived from the kernel, never set by the
caller; it only picks the chunk size:

* **batched** — chunks of ``Executor.BATCH_LANES // block`` blocks (the
  whole launch when it fits);
* **sequential** — one block per chunk, block-ascending; global atomics
  are trivially atomic across blocks and later blocks observe earlier
  blocks' global stores (the ordering reference).

:func:`analyze_batchability` decides per kernel whether the batched order
is observationally equivalent to the sequential one, from the access
summary among the kernel's static facts. Those facts — the access
summary, the data-dependence verdict, the loop proofs and the
launch-invariant suffix — all come from one pass computed once per
kernel (:func:`repro.vir.analysis.kernel_facts`); the engine and the
closure compiler only read them. A launch runs
sequential when its kernel reads a global buffer it also writes
(cross-block read-after-write), stores to global memory inside a loop,
or issues order-sensitive floating-point global atomics from inside a
loop / from multiple sites, and when its grid has a single block. On
batchable kernels both orders produce bit-identical numeric results
**and** bit-identical event counters (verified exhaustively by
``tests/gpusim/test_batched_engine.py``, which sets ``BATCH_LANES = 1``
to get the one-block chunks of the sequential order).

Registers keep their broadcast shape on the ``compiled`` backend. Each
register is held in the smallest shape that broadcasts to the chunk's
``(B, T)`` (blocks × threads): ``()`` for launch-uniform values
(immediates, launch constants, ``ld.param``, ``%ntid``, ``%nctaid`` and
what is computed only from them), ``(B, 1)`` for block-uniform ones
(``%ctaid`` and what derives from it) and ``(1, T)`` for lane-only ones
(``%tid``, ``%laneid``, ``%warpid``); numpy broadcasting gives every ALU
result its shape. A full ``(B, T)`` array is built only where values
differ per lane: a write under a partial mask that merges into an
existing value (:meth:`_BatchedRun._write`), and the loads, gathers and
shuffles that read per-lane values. Index and source operands are
broadcast to ``(B, T)`` as views at the point of use. A shuffle with a
``()`` offset reads one cached ``(T,)`` source row, and an ``If`` or
``While`` condition of shape ``()`` or ``(B, 1)`` cannot split a warp, so
its divergence count is skipped (a ``()`` condition passes the parent
mask through). The interpreter keeps full arrays: it is the independent
oracle the compiled trace is checked against.

Profiling counts warp-instructions (one unit per warp with ≥1 active
lane), global-memory transactions at 128-byte-segment granularity
(coalescing), shared-memory bank-conflict replays, atomic same-address
serialization, divergent branches and barriers — the inputs of the
timing model in :mod:`repro.gpusim.timing`.

Address-dependent counters are counted exactly on sorted 32-lane warp
rows, with a ``-1`` sentinel in inactive and pad lanes: distinct
segments per row, distinct words per bank (one ``bincount``), longest
runs of equal atomic addresses. When every block row of a chunk's
shared-memory index is row 0 plus a row constant under the same mask,
the shift-invariant shared counters count row 0 once per block
(:meth:`_BatchedRun._row_pattern`); global segment counts and global
atomic tallies are always counted on every row.

Large launches can be *sampled*: only a representative subset of blocks
executes and counters are scaled to the full grid. Sampled runs produce
profiles, not valid numerical results: device buffers after a sampled
launch are unspecified, while every event counter stays exact. A caller
that reads events only says so (``Executor.run_plan(values=False)``, as
every profile does). On the ``compiled`` backend a launch whose values
nobody reads — sampled, or part of such a run — of a data-oblivious
plan, with no sanitizer attached, goes further (see
:meth:`Executor._loop_fallback`): it is *event-only*
(``_BatchedRun.values`` is False). It runs the kernel's one compiled
trace, in which ALU instructions that write data registers only count
their events and memory, atomic and shuffle instructions run only the
event half of their run-state method, and a proven loop runs about two
trips per constant-mask stretch: the first, with its global loads
logged, and the last. The trips between are added in closed form, their
segment counts taken on the logged indices shifted per trip
(:meth:`_BatchedRun._exec_while_c`). When every lane leaves at the same
trip and no register the loop leaves is read after it
(``LoopSummary.live_out``), the last trip and its exit test are added
in closed form too. ``StepProfile.meta["exec.trace"]``
records whether a launch was event-only (``events``) or moved values
(``full``). A proven loop's per-trip steps may be launch constants or
launch-uniform registers (``%ntid * %nctaid``), resolved when the loop
starts, and its inductions may start per lane.

An event-only launch replays two regions of its kernel from memos
(:meth:`_BatchedRun.run`), so a sweep point simulates only what no
memo or proof already gives:

* the *launch-invariant suffix* — the tail of every reduction kernel,
  which reads no launch constant — is simulated once per block size
  and replayed after that (:meth:`_BatchedRun._run_suffix`): one
  block's events, times the chunk's block count, so one entry serves
  every grid and chunk. A suffix that reads the block id is keyed by
  the grid and the chunk's block ids instead;
* in front of it, the *keyed combine* (``KernelFacts.combine_start``)
  reads launch-dependent values only through key registers, such as
  the coop versions' block element count ``min(max(n - ctaid * epb,
  0), epb)``. It is replayed per (key values, block size)
  (:meth:`_BatchedRun._run_combine`): per block when every row of the
  chunk holds the same key values (every full block), else per chunk.

``exec.combine.*`` and ``exec.suffix.*`` count the simulated and
reused regions.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from ..obs import default_metrics, get_tracer
from ..vir.analysis import kernel_facts
from ..vir.instructions import (
    ALU_IMPL,
    ATOMIC_IMPL,
    SHFL_MODES,
    SHFL_WIDTHS,
    WARP,
    Arg,
    AtomGlobal,
    AtomShared,
    Bar,
    BinOp,
    Comment,
    If,
    Imm,
    LdGlobal,
    LdParam,
    LdShared,
    Mov,
    Reg,
    Sel,
    Shfl,
    Special,
    StGlobal,
    StShared,
    UnOp,
    While,
    is_integer,
    register_dtype,
)
from ..vir.program import Kernel, KernelStep, MemsetStep, Plan
from .backend import get_backend
from .device import Device
from .events import PlanProfile, StepProfile

_LANES = np.arange(WARP, dtype=np.int64)

#: Cap on how many distinct atomic addresses are tracked exactly per step.
_ATOMIC_TRACK_CAP = 4096

#: The counters a loop stretch's closed form counts on shifted indices
#: instead of scaling (:meth:`_BatchedRun._skip_stretch`): in a proven
#: loop only global loads feed them.
_SEGMENT_KEYS = frozenset({"mem.global.ld.trans", "mem.global.bytes"})


class SimulationError(Exception):
    """Raised when a kernel does something invalid (OOB access, etc.)."""


def launch_constant(state, arg):
    """The value of launch constant ``arg`` in a run state's launch: the
    host scalar of ``KernelStep.args``, as is (a Python ``int`` reads
    exactly like the :class:`~repro.vir.instructions.Imm` it replaces)."""
    try:
        return state.step.args[arg.name]
    except KeyError:
        raise SimulationError(
            f"kernel {state.kernel.name!r}: launch has no argument for {arg}"
        ) from None


def analyze_batchability(kernel, device: Device = None):
    """Can ``kernel`` run batched with sequential-identical observables?

    Returns ``(ok, reason)``. The batched engine preserves block-major
    ordering for every *single* instruction (numpy applies fancy-indexed
    stores and ``ufunc.at`` atomics in flattened block-major order), so
    the only hazards are *cross-instruction* interleavings:

    * a kernel that loads a global buffer it also stores/atomically
      updates — later blocks would observe earlier blocks' writes under
      sequential execution but not under lockstep batching;
    * global stores inside a ``While`` — iteration-major store order
      differs from the sequential block-major order when blocks overlap;
    * floating-point ``add``/``sub`` global atomics issued from inside a
      ``While`` or from more than one site per buffer — rounding depends
      on the cross-block interleaving. Integer and min/max atomics are
      order-independent and stay batchable.

    The access summary is one of the kernel's facts
    (:func:`~repro.vir.analysis.kernel_facts`), computed once per kernel
    object; only the cheap device-dependent dtype check runs per call.
    """
    facts = kernel_facts(kernel)
    if facts.store_in_loop is not None:
        return False, f"global store inside a loop ({facts.store_in_loop!r})"
    atomics = facts.global_atomics
    hazard = facts.global_loads & (
        facts.global_stores | {buf for buf, *_entry in atomics}
    )
    if hazard:
        return False, f"load/store hazard on {sorted(hazard)}"
    for buf, sites, in_loop, ops in atomics:
        dtype_kind = "f"
        if device is not None:
            try:
                dtype_kind = device.get(buf).dtype.kind
            except Exception:
                dtype_kind = "f"
        order_sensitive = dtype_kind == "f" and bool(ops & {"add", "sub"})
        if order_sensitive and (in_loop or sites > 1):
            return False, f"order-sensitive float atomics on {buf!r}"
    return True, "block-uniform"


class Executor:
    """Executes :class:`~repro.vir.program.Plan` objects on a device."""

    #: Iteration cap per structured loop — a backstop against kernels
    #: that never converge (well above any legitimate coarsening loop).
    LOOP_CAP = 2_000_000

    #: Cap on simulated lanes (blocks × threads) held in memory at once
    #: by a batched launch; larger launches run in block-ordered chunks.
    BATCH_LANES = 1 << 17

    def __init__(
        self,
        device: Device = None,
        backend: str = "compiled",
        sanitizer=None,
    ):
        #: ``compiled`` (closure traces) or ``interpreted`` (the
        #: reference tree-walker, for tests), resolved by
        #: :func:`~repro.gpusim.backend.get_backend` (ValueError for any
        #: other name); ``self.backend`` keeps the plain name for
        #: profile metadata.
        self._backend = get_backend(backend)
        self.device = device if device is not None else Device()
        self.backend = backend
        #: Optional :class:`repro.sanitize.Sanitizer`. When set, every
        #: launch feeds shadow-state hooks (memory accesses, barriers,
        #: shuffles) from the run state — results and event counters
        #: are unaffected.
        self.sanitizer = sanitizer

    # -- plan level -----------------------------------------------------

    def run_plan(
        self, plan: Plan, sample_limit: int = None, values: bool = True
    ) -> PlanProfile:
        """Run every step of a plan.

        ``sample_limit`` bounds how many blocks of each launch actually
        execute; when it kicks in, the profile is marked sampled and the
        numeric result is not meaningful. ``values=False`` declares that
        the caller reads events only (a profile): every launch of a
        data-oblivious plan may then be event-only, device buffers are
        left unspecified and ``result`` stays None.
        """
        # The structural validation walk is a kernel fact: it runs once
        # per kernel object, not per plan or launch (the plans of a sweep
        # share their kernels).
        for step in plan.kernel_steps():
            step.kernel.fact("valid", Kernel.validate)
        dtype = np.dtype(plan.meta.get("dtype", "float32"))
        for name, size in plan.scratch.items():
            if name not in self.device:
                self.device.alloc(name, size, dtype=dtype)
        profile = PlanProfile(plan_name=plan.name)
        sampled_any = False
        for step in plan.steps:
            if isinstance(step, MemsetStep):
                self.device.memset(step.buffer, step.value)
                continue
            step_profile = self.run_kernel(
                step, sample_limit=sample_limit, plan=plan, values=values
            )
            sampled_any = sampled_any or bool(step_profile.sampled_blocks)
            profile.steps.append(step_profile)
        if values and not sampled_any:
            result_buf = self.device.get(plan.result_buffer)
            index = plan.result_index
            if not 0 <= index < len(result_buf):
                raise SimulationError(
                    f"plan {plan.name!r}: result index {index} out of range"
                )
            profile.result = float(result_buf[index])
        profile.meta["sampled"] = sampled_any
        return profile

    # -- kernel level ------------------------------------------------------

    def execution_mode(self, step: KernelStep) -> str:
        """The block order of one launch: ``batched`` when its kernel is
        batchable (:func:`analyze_batchability`) and its grid has more
        than one block, else ``sequential``."""
        if step.grid <= 1:
            return "sequential"  # nothing to batch
        ok, _ = analyze_batchability(step.kernel, self.device)
        return "batched" if ok else "sequential"

    def _loop_fallback(self, values: bool, compiled: bool, kernels):
        """Why a launch must simulate every loop trip and move every
        value, or None when it may extrapolate proven-periodic trips and
        run event halves only.

        Skipped trips and unmoved values leave registers, and so device
        buffers, unspecified. That is safe only when nobody reads the
        launch's ``values`` (it is sampled, or part of a profile), no
        sanitizer observes individual accesses, the backend runs a
        compiled trace (``compiled``), and no kernel of ``kernels`` (the
        plan's, which run on those buffers; the launch's own among them)
        lets data steer its events.
        """
        if values:
            return "unsampled"
        if self.sanitizer is not None:
            return "sanitizer"
        if not compiled:
            return self.backend
        for other in kernels:
            if kernel_facts(other).data_dependence is not None:
                return "data_dependent"
        return None

    def run_kernel(
        self,
        step: KernelStep,
        sample_limit: int = None,
        plan: Plan = None,
        values: bool = True,
    ) -> StepProfile:
        """Run one launch. ``plan`` is the plan it belongs to: a sampled
        launch, or any launch when ``values`` is False, skips
        proven-periodic trips and moves no values only when every
        kernel of it is data-oblivious (without one, the launch's own
        kernel decides). An event-only launch runs its kernel's keyed
        combine and launch-invariant suffix through the kernel's memos
        (:meth:`_BatchedRun.run`)."""
        kernel = step.kernel
        profile = StepProfile(
            kernel_name=kernel.name,
            grid=step.grid,
            block=step.block,
            shared_bytes=kernel.shared_bytes(),
            meta=dict(kernel.meta),
        )
        if sample_limit is not None and step.grid > sample_limit:
            block_ids = _sample_ids(step.grid, sample_limit)
            profile.sampled_blocks = len(block_ids)
        else:
            block_ids = np.arange(step.grid, dtype=np.int64)

        mode = self.execution_mode(step)
        profile.meta["exec.mode"] = mode
        profile.meta["exec.backend"] = self.backend
        kernels = [s.kernel for s in plan.kernel_steps()] if plan else [kernel]
        artifact = self._backend.prepare(kernel)
        fallback = self._loop_fallback(
            values and not profile.sampled_blocks, artifact is not None, kernels
        )
        trace = None if artifact is None else artifact.trace
        trace_kind = "full" if fallback else "events"
        profile.meta["exec.trace"] = trace_kind
        tracer = get_tracer()
        with tracer.span(
            "exec.launch",
            kernel=kernel.name,
            grid=step.grid,
            block=step.block,
            mode=mode,
            backend=self.backend,
            trace=trace_kind,
            sampled_blocks=profile.sampled_blocks,
        ) as span:
            atomic_addr_counts = {}
            loop_stats = Counter()
            memo_stats = {"combine": Counter(), "suffix": Counter()}
            san = None
            if self.sanitizer is not None:
                san = self.sanitizer.begin_kernel(step, self.device)
            # The sequential order: one block per chunk, block-ascending,
            # so every block observes the global writes of the blocks
            # before it.
            if mode == "sequential":
                batch = 1
            else:
                batch = max(1, self.BATCH_LANES // max(1, step.block))
            for start in range(0, len(block_ids), batch):
                for region, outcome in _BatchedRun(
                    self,
                    step,
                    block_ids[start : start + batch],
                    profile.events,
                    atomic_addr_counts,
                    loop_stats,
                    loop_fallback=fallback,
                    trace=trace,
                    san=san,
                ).run():
                    memo_stats[region][outcome] += 1

            executed_blocks = profile.sampled_blocks or step.grid
            profile.events["blocks"] = executed_blocks
            profile.events["threads"] = executed_blocks * step.block
            profile.events["warps"] = executed_blocks * profile.warps_per_block

            if atomic_addr_counts:
                profile.events["atom.global.max_same_addr"] = (
                    self._launch_max_same_addr(atomic_addr_counts, profile, step)
                )
            if tracer.enabled:
                span.set(events={k: int(v) for k, v in profile.events.items()})
                if loop_stats:
                    span.set(loops=dict(loop_stats))
                span.set(**{
                    region: dict(stats)
                    for region, stats in memo_stats.items() if stats
                })
        profile.finish()
        # One grouped update: a snapshot must never observe the launch
        # counter without the launch's event totals (or vice versa).
        metrics = default_metrics()
        counters = {f"sim.{key}": int(value)
                    for key, value in profile.events.items()}
        counters[f"exec.launch.{mode}"] = 1
        if trace_kind == "events":
            counters["exec.trace.events"] = 1
        counters.update(
            (f"exec.loop.{key}", value) for key, value in loop_stats.items()
        )
        counters.update(
            (f"exec.{region}.{outcome}", count)
            for region, stats in memo_stats.items()
            for outcome, count in stats.items()
        )
        metrics.record(counters=counters)
        return profile

    @staticmethod
    def _launch_max_same_addr(atomic_addr_counts, profile, step) -> int:
        """Launch-wide max atomic ops on one address, from the executed
        blocks' per-address ``[ops, first_block, cross_block]`` tallies.

        A *max* is not additive across blocks, so sampled launches must
        not be linearly extrapolated after the fact (see
        :meth:`StepProfile.scaled`). Instead the extrapolation happens
        here, per address, and only where it is justified: an address
        hit by **multiple** sampled blocks (the per-block final combine
        hitting ``out[0]``) grows with the grid, while an address owned
        by a single block keeps its measured count.
        """
        sampled = profile.sampled_blocks
        if sampled and sampled < step.grid:
            factor = step.grid / sampled
            return int(round(max(
                ops * factor if cross_block else ops
                for ops, _first, cross_block in atomic_addr_counts.values()
            )))
        return max(ops for ops, _first, _cross in atomic_addr_counts.values())


class _BatchedRun:
    """Execution state of a chunk of blocks (2-D ``blocks × threads``).

    The one SIMT run state: masks are ``(B, T)`` arrays, registers are
    ``(B, T)`` or, on a compiled trace, the smaller shape that broadcasts
    to it (see the module docstring), shared memory is ``(B, S)``, and
    every per-thread operation is one numpy op over the whole chunk.
    Per-warp statistics are counted per 32-lane warp row of each block,
    so summed event counters do not depend on how a launch is cut into
    chunks.

    The chunk size is the executor's ordering policy. Batched launches
    use chunks of ``BATCH_LANES // block`` blocks; sequential launches
    use one block per chunk, block-ascending, so later blocks observe
    earlier blocks' global writes. Two behaviours are chunk-wide and
    therefore only per-block under one-block chunks (both are observable
    from *invalid* kernels only):

    * register "freshness" is chunk-global, so a read of a register that
      some block of the chunk never wrote returns the vectorized value
      instead of raising;
    * out-of-bounds errors report the index range over the whole chunk.
    """

    def __init__(self, executor, step, block_ids, events, atomic_addr_counts,
                 loop_stats, loop_fallback=None, trace=None, san=None):
        self.executor = executor
        self.device = executor.device
        self.step = step
        self.kernel = step.kernel
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        self.nblocks = len(self.block_ids)
        self.nthreads = step.block
        self.shape = (self.nblocks, self.nthreads)
        self.events = events
        self.atomic_addr_counts = atomic_addr_counts
        #: Launch-wide loop counters (trips simulated / extrapolated,
        #: ``fallback.<reason>`` per loop run) and the launch-level reason
        #: to simulate every trip (see ``Executor._loop_fallback``).
        self.loop_stats = loop_stats
        self.loop_fallback = loop_fallback
        #: Whether the launch moves values. Without a fallback reason it
        #: runs the event halves of its instructions only: memory, atomic
        #: and shuffle instructions move nothing and compiled ALU
        #: instructions that write data registers compute nothing.
        self.values = loop_fallback is not None
        self.trace = trace
        self.san = san
        #: While a memoized region is simulated for its memo: the
        #: global-atomic tallies it feeds, as :meth:`_tally` arguments.
        self._tallies = None
        #: While the first trip of a loop stretch runs: its global loads,
        #: as ``(instr, idx, mask)`` (see :meth:`_exec_while_c`).
        self._load_log = None
        self.regs = {}
        self.shared = {
            decl.name: np.zeros((self.nblocks, decl.size), dtype=np.float64)
            for decl in self.kernel.shared
        }
        self.nwarps = (self.nthreads + WARP - 1) // WARP
        self._warp_starts = np.arange(0, self.nthreads, WARP)
        #: row (block slot) index per lane.
        self._brow = np.broadcast_to(
            np.arange(self.nblocks, dtype=np.int64)[:, None], self.shape
        )
        #: Compiled-trace state: active-warp count / all-lanes-active of
        #: the current trace mask (None while interpreting).
        self._cur_warps = None
        self._cur_all = None

    # -- helpers -------------------------------------------------------

    def run(self) -> list:
        """Run the chunk; return how each memoized region ran, as
        ``(region, outcome)`` pairs: ``"combine"`` or ``"suffix"``, and
        ``"simulated"`` or ``"reused"``.

        Only an event-only launch on a compiled trace reads the memos:
        its keyed combine (``KernelFacts.combine_start``) through
        :meth:`_run_combine` and its launch-invariant suffix through
        :meth:`_run_suffix`. A replayed region leaves the registers it
        writes unwritten, so the combine runs to the end of the kernel
        whenever the suffix reads one (``KernelFacts.combine_end``)."""
        mask = np.ones(self.shape, dtype=bool)
        trace = self.trace
        if trace is None:
            self._exec_body(self.kernel.body, mask)
            return []
        if self.values:
            self._run_trace(trace, mask)
            return []
        facts = kernel_facts(self.kernel)
        outcomes, at = [], 0
        if facts.combine_start is not None:
            self._run_trace(trace[:facts.combine_start], mask)
            outcomes.append(("combine", self._run_combine(
                trace[facts.combine_start:facts.combine_end], mask
            )))
            at = facts.combine_end
            if at is None:
                return outcomes
        if facts.suffix_start is None:
            self._run_trace(trace[at:], mask)
        else:
            self._run_trace(trace[at:facts.suffix_start], mask)
            outcomes.append(
                ("suffix", self._run_suffix(trace[facts.suffix_start:], mask))
            )
        return outcomes

    def _buffer_shapes(self, buffers) -> tuple:
        """The part of a memo key that global buffers ``buffers`` give:
        lengths bound indices, dtypes size transactions, and a read-only
        buffer makes a store raise."""
        shapes = []
        for buf in buffers:
            arr = self.device.get(buf)
            shapes.append((buf, len(arr), arr.dtype.str, arr.flags.writeable))
        return tuple(shapes)

    def _run_suffix(self, trace, mask) -> str:
        """Run the launch-invariant suffix ``trace`` of an event-only
        launch (``KernelFacts.suffix_start``) through the kernel's
        ``suffix`` memo (:meth:`_run_memoized`).

        Top-level code runs under the full mask, and the suffix reads no
        launch constant, so its events, loop counters and global-atomic
        tallies are a function of the key below: the block size, the
        loop cap, the shape of every global buffer it touches, and the
        grid and block ids of the chunk when the suffix reads the block
        id. A suffix that does not read the block id runs the same way in
        every block, so its entry is per block; one that does keeps a
        whole-chunk entry.
        """
        facts = kernel_facts(self.kernel)
        blocks, copies = None, self.nblocks
        if facts.suffix_reads_block_id:
            blocks, copies = (self.step.grid, self.block_ids.tobytes()), 1
        key = (blocks, self.nthreads, self.executor.LOOP_CAP,
               self._buffer_shapes(facts.suffix_buffers))
        return self._run_memoized(
            trace, mask, self.kernel.fact("suffix", _new_memo), key, copies
        )

    def _run_combine(self, trace, mask) -> str:
        """Run the keyed combine ``trace`` of an event-only launch
        (``KernelFacts.combine_start``) through the kernel's ``combine``
        memo (:meth:`_run_memoized`).

        The combine reads launch-dependent values only through its key
        registers, so its events, loop counters and global-atomic tallies
        are a function of the key below: the key registers' values in
        the chunk's rows, the block size, the loop cap and the shape of
        every global buffer it touches. When every row holds the same
        key values, every block runs the combine the same way and the
        entry is per block (one block's key values); otherwise it is a
        whole-chunk entry keyed by every row's values, as a partial last
        block or ``n`` below the block size give. A combine whose key
        registers do not hold integers is simulated.
        """
        facts = kernel_facts(self.kernel)
        # Key registers are written at the top level before the combine,
        # held as ``()`` or ``(B, 1)``: one value per row.
        held = [self.regs[name] for name in facts.combine_keys]
        if not all(map(is_integer, held)):
            self._run_trace(trace, mask)
            return "simulated"
        values = np.concatenate(
            [np.broadcast_to(value, (self.nblocks, 1)) for value in held]
            or [np.empty((self.nblocks, 0), np.int64)],
            axis=1,
        )
        if (values == values[:1]).all():
            keyed, copies = tuple(values[0].tolist()), self.nblocks
        else:
            keyed, copies = (values.astype(np.int64).tobytes(),), 1
        key = (keyed, self.nthreads, self.executor.LOOP_CAP,
               self._buffer_shapes(facts.combine_buffers))
        return self._run_memoized(
            trace, mask, self.kernel.fact("combine", _new_memo), key, copies
        )

    def _run_memoized(self, trace, mask, memo, key, copies) -> str:
        """Run the top-level region ``trace`` through ``memo`` under
        ``key``; return ``"simulated"`` or ``"reused"``.

        ``copies`` is the chunk's block count for a *per-block* entry,
        whose region runs the same way in every block: one block's event
        deltas and row 0's global-atomic tallies, served to chunks of
        any block count. A hit adds the deltas times ``copies`` and
        replays each tally for every row, in logged order; loop counters
        count loop runs, one per chunk, and are added once. ``copies`` is
        1 for a *whole-chunk* entry, its tallies logged by chunk position
        and replayed through ``self.block_ids``.

        A miss simulates the region against fresh counters and merges
        them. It stores them (:func:`_suffix_entry`) only when every
        delta divides evenly among the blocks and every row's tallies
        equal row 0's. Entries are written once and never mutated. Hits
        and stores are skipped when the launch's atomic tallies could
        pass ``_ATOMIC_TRACK_CAP`` on the way, where replaying would not
        stop where simulation stops. A replay writes no register.
        """
        counts = self.atomic_addr_counts
        entry = memo.get(key)
        if entry is not None and (
            len(counts) + entry.tallied * copies <= _ATOMIC_TRACK_CAP
        ):
            events = self.events
            for name, delta in entry.events:
                events[name] += delta * copies
            _add_counts(self.loop_stats, entry.loops)
            for buf, row, addresses, per_addr in entry.tallies:
                # Rows ``row .. row + copies - 1``: every row of a
                # per-block entry (``row`` is 0), the logged row of a
                # whole-chunk one.
                for at in range(row, row + copies):
                    self._tally(buf, at, addresses, per_addr)
            return "reused"
        events, loop_stats, before = self.events, self.loop_stats, len(counts)
        self.events, self.loop_stats, self._tallies = Counter(), Counter(), []
        self._run_trace(trace, mask)
        deltas, loops, tallies = self.events, self.loop_stats, self._tallies
        self.events, self.loop_stats, self._tallies = events, loop_stats, None
        _add_counts(events, deltas.items())
        _add_counts(loop_stats, loops.items())
        # Each logged address adds at most one tally, so below the cap
        # here no tally was dropped and the log is complete.
        tallied = sum(len(tally[2]) for tally in tallies)
        if entry is None and before + tallied <= _ATOMIC_TRACK_CAP:
            fresh = _suffix_entry(deltas, loops, tallies, copies)
            if fresh is not None:
                memo[key] = fresh
        return "simulated"

    def _count(self, key, mask) -> None:
        if self._cur_warps is not None:
            self.events[key] += self._cur_warps
            return
        if not mask.any():
            return
        # bitwise_or over bool == "any active lane", per warp per block.
        per_warp = np.bitwise_or.reduceat(mask, self._warp_starts, axis=1)
        warps = int(np.count_nonzero(per_warp))
        if warps:
            self.events[key] += warps

    def _bar(self, mask) -> None:
        # One barrier per block that actually reaches it.
        if self._cur_all:
            self.events["inst.bar"] += self.nblocks
        else:
            self.events["inst.bar"] += int(mask.any(axis=1).sum())
        if self.san is not None:
            self.san.on_bar(self, mask)

    def _count_loop_divergence(self, before, after) -> None:
        """A warp diverges at a loop back-edge test when some of its
        still-active lanes continue and others exit — the same "active
        lanes take both paths" rule :meth:`_exec_if` applies."""
        exited = before & ~after
        if not exited.any() or not after.any():
            return
        self._count_divergence(after, exited)

    def _count_divergence(self, taken, other, copies=1) -> None:
        """Count the warps whose active lanes are split between the lane
        masks ``taken`` and ``other`` (the two paths of a branch), each
        row ``copies`` times."""
        taken_any = np.bitwise_or.reduceat(taken, self._warp_starts, axis=1)
        other_any = np.bitwise_or.reduceat(other, self._warp_starts, axis=1)
        divergent = int(np.count_nonzero(taken_any & other_any))
        if divergent:
            self.events["branch.divergent"] += divergent * copies

    # -- compiled-trace execution (see repro.gpusim.compile) -----------

    def _run_trace(self, trace, mask) -> None:
        if not mask.any():
            return
        saved = (self._cur_warps, self._cur_all)
        if mask.all():
            self._cur_all = True
            self._cur_warps = self.nblocks * self.nwarps
        else:
            self._cur_all = False
            per_warp = np.bitwise_or.reduceat(mask, self._warp_starts, axis=1)
            self._cur_warps = int(np.count_nonzero(per_warp))
        try:
            for fn in trace:
                fn(self, mask)
        finally:
            self._cur_warps, self._cur_all = saved

    def _exec_if_c(self, cond_read, then_trace, else_trace, mask):
        cond = np.asarray(cond_read(self), dtype=bool)
        if cond.ndim == 0:
            # A launch-uniform condition sends every active lane one way
            # under the parent mask (and its active-warp count).
            for fn in then_trace if cond else else_trace:
                fn(self, mask)
            return
        then_mask = mask & cond
        else_mask = mask & ~cond
        # A warp diverges when its active lanes take both paths; a
        # block-uniform condition cannot split a warp. A lane-only one
        # under the full mask splits every block alike: count one row.
        if cond.shape[1] != 1:
            if self._cur_all and cond.shape[0] == 1:
                self._count_divergence(cond, ~cond, self.nblocks)
            else:
                self._count_divergence(then_mask, else_mask)
        self._run_trace(then_trace, then_mask)
        if else_trace:
            self._run_trace(else_trace, else_mask)

    def _exec_while_c(self, cond_trace, cond_read, body_trace, mask, summary):
        """Run a loop; with a proof (``summary``) and an eligible launch,
        add each constant-mask stretch in closed form.

        The first trip of a stretch runs with its global loads logged.
        When the mask still holds after it, every trip up to the one
        before the next lane exit repeats that trip's events except its
        global segment counts, so :meth:`_skip_stretch` adds them in
        closed form and advances the inductions exactly. The last trip
        of a stretch is simulated, so lanes never exit inside a skipped
        range and every non-data register ends with its simulated value,
        except where every lane exits at once and no register the loop
        leaves is read after it: that trip and its exit test are skipped
        too, and the loop ends there.
        """
        reason = self.loop_fallback or summary.reason
        steps = None
        if reason is None:
            steps = self._launch_steps(summary)
            if steps is None:
                reason = "launch_constant"
        if reason is not None:
            self.loop_stats["fallback." + reason] += 1
        active = mask.copy()
        full = self._cur_all  # every lane still active
        iterations = skipped = 0
        start = None  # the events before the logged trip
        while True:
            self._run_trace(cond_trace, active)
            cond = np.asarray(cond_read(self), dtype=bool)
            if cond.ndim == 0:
                # A launch-uniform test keeps or exits every active lane.
                staying = active if cond else np.zeros_like(active)
            else:
                staying = active & cond
                if cond.shape[1] != 1:
                    if full and cond.shape[0] == 1:
                        # Lane-only under the full mask: one row.
                        self._count_divergence(cond, ~cond, self.nblocks)
                    else:
                        self._count_loop_divergence(active, staying)
                # Only a lane-only test that keeps every lane is cheap
                # to follow; any other keeps the general count.
                full = full and cond.shape[0] == 1 and bool(cond.all())
            logged, self._load_log = self._load_log, None
            if steps is not None and staying.any():
                same = iterations > 0 and np.array_equal(staying, active)
                if logged is not None and same:
                    trips = self._skip_stretch(
                        summary, steps, staying, iterations, start, logged
                    )
                    if trips < 0:
                        self.loop_stats["fallback.bounds"] += 1
                        steps = None
                    else:
                        iterations += trips
                        skipped += trips
                elif not same:
                    start, self._load_log = dict(self.events), []
            active = staying
            if not active.any():
                self.loop_stats["trips_simulated"] += iterations - skipped
                if skipped:
                    self.loop_stats["trips_extrapolated"] += skipped
                return
            iterations += 1
            if iterations > self.executor.LOOP_CAP:
                raise SimulationError(
                    f"kernel {self.kernel.name!r}: loop exceeded iteration cap "
                    f"({self.executor.LOOP_CAP})"
                )
            self._run_trace(body_trace, active)

    def _launch_steps(self, summary):
        """``(inductions, loads)`` of ``summary`` at loop entry:
        ``(register, step)`` of every induction and ``(buf, idx) ->
        elements per trip`` of every load, each an int, or None when one
        is not (see :meth:`_resolve`)."""
        inductions = [
            (name, self._resolve(step)) for name, step in summary.inductions
        ]
        loads = {
            (buf, idx): self._resolve(per_trip)
            for buf, idx, per_trip, _width in summary.loads
        }
        if any(step is None for _name, step in inductions) or (
            None in loads.values()
        ):
            return None
        return inductions, loads

    def _resolve(self, coef):
        """A per-trip coefficient of a loop proof as an int: an
        :class:`~repro.vir.analysis.ArgMultiple` times its launch
        constant, or times the value its launch-uniform register holds.
        None when that product is not an int, or the register is not
        held as an integer ``()`` scalar."""
        if isinstance(coef, int):
            return coef
        term = coef.arg
        if isinstance(term, Arg):
            value = launch_constant(self, term)
        else:
            value = np.asarray(self.regs[term.name])
            if value.ndim or not is_integer(value):
                return None
        product = coef.factor * value
        return int(product) if is_integer(product) else None

    def _skip_stretch(self, summary, steps, active, trip, start_events,
                      logged) -> int:
        """Skip the trips after trip ``trip`` (the logged one, ``logged``
        its global loads) up to the one before the next lane exit;
        returns the trips skipped, or -1 when the skipped trips' loads
        might leave their buffers (those trips are then simulated, so the
        error is raised exactly where the interpreter raises it).
        ``steps`` are the loop's per-trip steps resolved at loop entry
        (:meth:`_launch_steps`).

        When every lane of ``active`` exits at the same trip, within
        ``LOOP_CAP``, and the loop leaves no register that code after it
        reads (``LoopSummary.live_out``), the skip runs through that trip
        and its exit test, whose events equal a passing test's (no warp
        splits), and clears ``active``: the loop is done.

        Every counter but the global segment counts grows by the logged
        trip's delta per trip. Skipped trip ``k`` loads the logged
        indices shifted by ``k`` steps, and their segments are counted on
        those shifts (:meth:`_shifted_segments`).
        """
        inductions, loads = steps
        regs = self.regs
        induction = regs[summary.induction]
        bound = np.asarray(self._read(summary.bound, active))
        # Advancing by step * trips equals trips repeated adds only in
        # integer arithmetic.
        if bound.dtype.kind not in "iu" or any(
            regs[name].dtype.kind not in "iu" for name, _ in inductions
        ):
            return 0
        # The condition holds at trip + j while induction + j*step <op>
        # bound; ``first`` is the smallest j at which it fails for some
        # still-active lane (None: it never fails). Inductions may start
        # per lane, so the gap is taken lane by lane.
        step = dict(inductions)[summary.induction]
        if summary.op in ("lt", "le"):
            gap, rate = bound - induction, step
        else:
            gap, rate = induction - bound, -step
        # Registers keep their broadcast shape: take the active lanes of
        # the full-shape view.
        gap = np.broadcast_to(gap, self.shape)[active]
        # Skipped trips count toward the cap: stop short of it and let
        # simulation raise the same error at the same trip.
        trips = self.executor.LOOP_CAP - trip
        through = False
        if rate > 0:
            if summary.op in ("lt", "gt"):
                exits = -(-gap // rate)
            else:
                exits = gap // rate + 1
            first = int(exits.min())
            # Every lane leaves at trip ``first``: its body and exit test
            # repeat the logged delta too, unless code after the loop
            # reads a register it leaves behind.
            through = (
                not summary.live_out
                and first == int(exits.max())
                and first <= trips
            )
            trips = first if through else min(trips, first - 1)
        if trips <= 0:
            return 0
        shifts = []
        for instr, idx, mask in logged:
            per_trip = loads[instr.buf, instr.idx]
            active_idx = idx[mask]
            low, high = active_idx.min(), active_idx.max()
            moved = per_trip * trips
            if (
                min(low, low + moved) < 0
                or max(high, high + moved) + instr.width - 1
                >= len(self.device.get(instr.buf))
            ):
                return -1
            shifts.append((instr, idx, mask, per_trip))
        events = self.events
        for key, value in events.items():
            delta = value - start_events.get(key, 0)
            if delta and key not in _SEGMENT_KEYS:
                events[key] = value + trips * delta
        if shifts:
            segments = sum(
                self._shifted_segments(instr, idx, mask, per_trip, trips)
                for instr, idx, mask, per_trip in shifts
            )
            events["mem.global.ld.trans"] += segments
            events["mem.global.bytes"] += segments * 128
        everywhere = active.all()
        for name, by in inductions:
            current = regs[name]
            advanced = current + by * trips
            regs[name] = np.asarray(
                advanced if everywhere else np.where(active, advanced, current)
            )
        if through:
            active[...] = False  # every lane has left the loop
        return trips

    def _shifted_segments(self, instr, idx, mask, per_trip, trips) -> int:
        """Global segments of ``instr``'s loads at ``idx + k * per_trip``
        under ``mask``, summed over ``k`` in ``1 .. trips``.

        After ``P = per_segment / gcd(per_trip mod per_segment,
        per_segment)`` trips every index has moved by whole segments, so
        the per-warp counts repeat: the shifts of one full period are
        counted and scaled by ``trips // P``, plus the remainder. Shifted
        copies are stacked as extra block rows and counted in one
        :meth:`_count_segments_sorted` call per group of at most
        ``BATCH_LANES`` lanes."""
        per_segment = max(1, 128 // self.device.get(instr.buf).dtype.itemsize)
        period = per_segment // math.gcd(per_trip % per_segment, per_segment)
        periods, rest = divmod(trips, period)
        group = max(1, self.executor.BATCH_LANES // idx.size)
        full = bool(mask.all())
        saved, self._cur_all = self._cur_all, full
        total = 0
        try:
            for scale, shifts in ((periods, period), (1, rest)):
                for low in range(1, shifts + 1 if scale else 1, group):
                    ks = np.arange(low, min(low + group, shifts + 1))
                    rows = (idx + (ks * per_trip)[:, None, None]).reshape(
                        -1, self.nthreads
                    )
                    masks = mask if full else np.tile(mask, (len(ks), 1))
                    total += scale * self._count_segments_sorted(
                        rows, masks, per_segment, instr.width
                    )
        finally:
            self._cur_all = saved
        return total

    def _read(self, operand, mask):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            if operand.name not in self.regs:
                raise SimulationError(
                    f"kernel {self.kernel.name!r}: read of unwritten register "
                    f"{operand}"
                )
            return self.regs[operand.name]
        if isinstance(operand, Arg):
            return launch_constant(self, operand)
        raise SimulationError(f"bad operand {operand!r}")

    def _write(self, reg: Reg, value, mask) -> None:
        """Write ``value`` to the active lanes of ``reg``.

        The interpreter stores a fresh ``(B, T)`` array. A compiled trace
        keeps the value's broadcast shape (``()``, ``(B, 1)``, ``(1, T)``
        or ``(B, T)``) whenever the write replaces the whole register;
        only a write under a partial mask that merges into an existing
        value builds the full array.
        """
        value = np.asarray(value)
        compiled = self._cur_warps is not None
        if not compiled and value.shape != self.shape:
            value = np.broadcast_to(value, self.shape)
        current = self.regs.get(reg.name)
        all_active = self._cur_all
        if all_active is None:
            all_active = mask.all()
        if current is None or all_active:
            # Inactive lanes keep whatever the vectorized computation put
            # there — deterministic in the simulator, "undefined" on HW.
            if compiled:
                # Compiled traces never mutate register arrays in place,
                # so aliasing is safe and the defensive copy is skipped.
                self.regs[reg.name] = value.astype(
                    register_dtype(value.dtype), copy=False
                )
            else:
                self.regs[reg.name] = np.array(
                    value, dtype=register_dtype(value.dtype)
                )
            return
        merged = np.empty(self.shape, np.result_type(current.dtype, value.dtype))
        merged[...] = current
        np.copyto(merged, value, where=mask)
        self.regs[reg.name] = merged

    # -- structured execution ----------------------------------------------

    def _exec_body(self, body, mask) -> None:
        for instr in body:
            if not mask.any():
                return
            self._exec(instr, mask)

    def _exec(self, instr, mask) -> None:
        if isinstance(instr, Comment):
            return
        if isinstance(instr, BinOp):
            a = self._read(instr.a, mask)
            b = self._read(instr.b, mask)
            self._write(instr.dst, ALU_IMPL[instr.op](a, b), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, UnOp):
            a = self._read(instr.a, mask)
            self._write(instr.dst, ALU_IMPL[instr.op](a), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, Mov):
            self._write(instr.dst, self._read(instr.a, mask), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, Sel):
            cond = self._read(instr.cond, mask)
            a = self._read(instr.a, mask)
            b = self._read(instr.b, mask)
            self._write(instr.dst, np.where(cond, a, b), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, Special):
            self._write(instr.dst, self._special(instr.kind), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, LdParam):
            self._write(instr.dst, self.step.args[instr.name], mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, LdGlobal):
            self._ld_global(instr, mask)
        elif isinstance(instr, StGlobal):
            self._st_global(instr, mask)
        elif isinstance(instr, LdShared):
            self._ld_shared(instr, mask)
        elif isinstance(instr, StShared):
            self._st_shared(instr, mask)
        elif isinstance(instr, AtomGlobal):
            self._atom_global(instr, mask)
        elif isinstance(instr, AtomShared):
            self._atom_shared(instr, mask)
        elif isinstance(instr, Shfl):
            self._shfl(instr, mask)
        elif isinstance(instr, Bar):
            self._bar(mask)
        elif isinstance(instr, If):
            self._exec_if(instr, mask)
        elif isinstance(instr, While):
            self._exec_while(instr, mask)
        else:
            raise SimulationError(f"cannot execute {type(instr).__name__}")

    def _special(self, kind):
        """Special register ``kind`` in its broadcast shape: ``()`` for
        ``ntid``/``nctaid``, ``(B, 1)`` for ``ctaid``, ``(1, T)`` for
        ``tid``/``laneid``/``warpid``."""
        if kind == "ntid":
            return np.int64(self.nthreads)
        if kind == "nctaid":
            return np.int64(self.step.grid)
        if kind == "ctaid":
            return self.block_ids[:, None]
        tid = np.arange(self.nthreads, dtype=np.int64)[None, :]
        if kind == "tid":
            return tid
        if kind == "laneid":
            return tid % WARP
        if kind == "warpid":
            return tid // WARP
        raise SimulationError(f"unknown special register {kind!r}")

    def _exec_if(self, instr, mask) -> None:
        cond = np.asarray(self._read(instr.cond, mask), dtype=bool)
        if cond.shape != self.shape:
            cond = np.broadcast_to(cond, self.shape)
        then_mask = mask & cond
        else_mask = mask & ~cond
        # A warp diverges when its active lanes take both paths.
        self._count_divergence(then_mask, else_mask)
        if then_mask.any():
            self._exec_body(instr.then, then_mask)
        if instr.otherwise and else_mask.any():
            self._exec_body(instr.otherwise, else_mask)

    def _exec_while(self, instr, mask) -> None:
        self.loop_stats["fallback." + self.loop_fallback] += 1
        active = mask.copy()
        iterations = 0
        while True:
            self._exec_body(instr.cond_block, active)
            cond = np.asarray(self._read(instr.cond, active), dtype=bool)
            if cond.shape != self.shape:
                cond = np.broadcast_to(cond, self.shape)
            staying = active & cond
            self._count_loop_divergence(active, staying)
            active = staying
            if not active.any():
                self.loop_stats["trips_simulated"] += iterations
                return
            iterations += 1
            if iterations > self.executor.LOOP_CAP:
                raise SimulationError(
                    f"kernel {self.kernel.name!r}: loop exceeded iteration cap "
                    f"({self.executor.LOOP_CAP})"
                )
            self._exec_body(instr.body, active)

    # -- memory -------------------------------------------------------------

    def _global_indices(self, operand, mask, buf) -> np.ndarray:
        idx, active_idx = self._indices(operand, mask)
        arr = self.device.get(buf)
        if active_idx.size and (
            active_idx.min() < 0 or active_idx.max() >= len(arr)
        ):
            raise SimulationError(
                f"kernel {self.kernel.name!r}: out-of-bounds access to global "
                f"buffer {buf!r} (size {len(arr)}, index range "
                f"[{active_idx.min()}, {active_idx.max()}])"
            )
        if self._cur_warps is not None:
            # Compiled path: callers never mutate the index array, skip
            # the defensive copy when it is already int64.
            return idx.astype(np.int64, copy=False)
        return idx.astype(np.int64)

    def _check_writeable(self, buf) -> None:
        """A store or atomic into a read-only buffer (a profile's input
        view) raises in its event half, so it raises on every trace."""
        if not self.device.get(buf).flags.writeable:
            raise ValueError(
                f"kernel {self.kernel.name!r}: write to read-only global "
                f"buffer {buf!r}"
            )

    def _count_transactions(self, idx, mask, buf, kind, width: int = 1) -> None:
        """Count unique 128-byte segments per (block, warp) group."""
        arr = self.device.get(buf)
        per_segment = max(1, 128 // arr.dtype.itemsize)
        total = self._count_segments_sorted(idx, mask, per_segment, width)
        self.events[f"mem.global.{kind}.trans"] += total
        self.events["mem.global.bytes"] += total * 128
        active = mask.size if self._cur_all else int(mask.sum())
        self.events["mem.global.bytes_useful"] += (
            active * width * arr.dtype.itemsize
        )

    def _count_segments_sorted(self, idx, mask, per_segment, width) -> int:
        """Unique active segments per (block, warp), summed. Segment
        counts are not shift-invariant (a row constant can move a warp
        across a segment boundary), so every row is counted.

        A warp row whose 32 lanes are all active and read ``first +
        lane`` is counted in closed form (:func:`_unit_row_segments`);
        one vectorised compare finds those rows. Every other row places
        its ``width`` segment planes side by side, sorts them and counts
        the runs of equal non-sentinel segments."""
        if self._cur_all and self.nthreads % WARP == 0:
            rows = idx.reshape(-1, WARP)  # whole warps, no sentinel lanes
        else:
            rows = self._warp_rows(idx, mask)
        first = rows[:, 0]
        match = rows == first[:, None] + _LANES
        # One reduction over the chunk is much cheaper than one per row.
        if match.all() and first.min() >= 0:
            return _unit_row_segments(first, per_segment, width)
        unit = (first >= 0) & match.all(axis=1)
        total = 0
        if unit.any():
            total = _unit_row_segments(first[unit], per_segment, width)
            rows = rows[~unit]
        planes = [rows // per_segment]  # the -1 sentinel stays -1
        if width > 1:
            inactive = rows < 0
            planes += [
                np.where(inactive, -1, (rows + k) // per_segment)
                for k in range(1, width)
            ]
        rows = planes[0] if width == 1 else np.concatenate(planes, axis=1)
        rows.sort(axis=1)
        return total + int(np.count_nonzero(_run_starts(rows)))

    def _warp_rows(self, values, mask) -> np.ndarray:
        """``values`` of a ``(blocks, threads)`` chunk — or of its first
        block row — as fixed 32-lane warp rows ``(blocks * warps, 32)``,
        a fresh array safe to sort in place. Inactive lanes and the pad
        lanes of a ragged last warp hold the ``-1`` sentinel, which
        sorts first and is never a valid index."""
        nblocks = values.shape[0]
        if not self._cur_all:
            values = np.where(mask, values, -1)
        lanes = self.nwarps * WARP
        if self.nthreads == lanes:
            rows = np.array(values, dtype=np.int64)
        else:
            rows = np.full((nblocks, lanes), -1, dtype=np.int64)
            rows[:, : self.nthreads] = values
        return rows.reshape(nblocks * self.nwarps, WARP)

    def _row_pattern(self, idx, mask):
        """``(idx, mask, copies)`` for a shift-invariant per-warp count.

        Adding a warp-uniform constant to every lane's word address
        permutes the banks and keeps equal addresses equal, so per-warp
        bank-replay and same-address counts do not change. When every
        block row of ``idx`` is row 0 plus a row constant and every mask
        row equals row 0 (checked here, one O(blocks × threads) compare),
        counting row 0 ``copies = nblocks`` times is exact; otherwise the
        whole chunk is counted once.
        """
        if self.nblocks > 1:
            if self._cur_all or (mask[1:] == mask[0]).all():
                shift = idx - idx[:, :1]
                if (shift[1:] == shift[0]).all():
                    return idx[:1], mask[:1], self.nblocks
        return idx, mask, 1

    # Each memory, atomic and shuffle instruction is an *event half*
    # (index and bounds checks, validation, sanitizer hooks that need no
    # values, every counter) followed by a *value half* (the gather,
    # scatter, atomic update or register write), which runs only when
    # the launch moves values (``self.values``). The interpreter and the
    # compiled trace call these same methods, so each counter has one
    # implementation.

    def _ld_global(self, instr, mask) -> None:
        idx = self._ld_global_events(instr, mask)
        if self.values:
            self._ld_global_values(instr, idx, mask)

    def _ld_global_events(self, instr, mask) -> np.ndarray:
        idx = self._global_indices(instr.idx, mask, instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        if instr.width != 1:
            last = idx + (instr.width - 1)
            if (last[mask] >= len(self.device.get(instr.buf))).any():
                raise SimulationError(
                    f"kernel {self.kernel.name!r}: vector load past end of "
                    f"{instr.buf!r}"
                )
        self._count_transactions(idx, mask, instr.buf, "ld", width=instr.width)
        self._count("inst.ld.global", mask)
        if self._load_log is not None:
            self._load_log.append((instr, idx, mask))
        return idx

    def _ld_global_values(self, instr, idx, mask) -> None:
        arr = self.device.get(instr.buf)
        if instr.width == 1:
            if self._cur_all:
                # Full mask: the masked scatter below degenerates to a
                # plain gather (bit-identical, no zeros container).
                value = arr[idx].astype(np.float64)
            else:
                value = np.zeros(self.shape, dtype=np.float64)
                value[mask] = arr[idx[mask]]
            self._write(instr.dst, value, mask)
            return
        for k, dst in enumerate(instr.dst):
            value = np.zeros(self.shape, dtype=np.float64)
            value[mask] = arr[idx[mask] + k]
            self._write(dst, value, mask)

    def _st_global(self, instr, mask) -> None:
        idx = self._st_global_events(instr, mask)
        if self.values:
            self._st_global_values(instr, idx, mask)

    def _st_global_events(self, instr, mask) -> np.ndarray:
        idx = self._global_indices(instr.idx, mask, instr.buf)
        self._check_writeable(instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self._count_transactions(idx, mask, instr.buf, "st")
        self._count("inst.st.global", mask)
        return idx

    def _st_global_values(self, instr, idx, mask) -> None:
        src = self._value_array(instr.src, mask)
        arr = self.device.get(instr.buf)
        # C-order flattening applies the store block-major: the same
        # order as one-block chunks run block-ascending.
        arr[idx[mask]] = src[mask].astype(arr.dtype)

    def _indices(self, operand, mask):
        """An index operand as a ``(B, T)`` view (a broadcast view of a
        register held in a smaller shape, never a copy), and the indices
        whose range bounds checks read: under a full mask the register
        as held, else the active lanes."""
        held = np.asarray(self._read(operand, mask))
        idx = held
        if idx.shape != self.shape:
            idx = np.broadcast_to(idx, self.shape)
        return idx, held if self._cur_all else idx[mask]

    def _shared_indices(self, operand, mask, buf) -> np.ndarray:
        idx, active_idx = self._indices(operand, mask)
        arr = self.shared[buf]
        if active_idx.size and (
            active_idx.min() < 0 or active_idx.max() >= arr.shape[1]
        ):
            raise SimulationError(
                f"kernel {self.kernel.name!r}: out-of-bounds access to shared "
                f"buffer {buf!r} (size {arr.shape[1]}, index range "
                f"[{active_idx.min()}, {active_idx.max()}])"
            )
        if self._cur_warps is not None:
            # Compiled path: callers never mutate the index array.
            return idx.astype(np.int64, copy=False)
        return idx.astype(np.int64)

    def _count_bank_replays(self, idx, mask) -> None:
        """Shared memory has 32 banks; distinct words in one bank replay.

        Per sorted warp row, each distinct word is tallied on its bank
        (one ``bincount``); a warp replays its fullest bank's count
        minus one."""
        idx, mask, copies = self._row_pattern(idx, mask)
        rows = self._warp_rows(idx, mask)
        rows.sort(axis=1)
        row, col = np.nonzero(_run_starts(rows))
        per_bank = np.bincount(
            row * WARP + rows[row, col] % WARP, minlength=rows.size
        ).reshape(rows.shape)
        fullest = per_bank.max(axis=1)
        total = (int(fullest.sum()) - int(np.count_nonzero(fullest))) * copies
        if total:
            self.events["mem.shared.replays"] += total

    def _ld_shared(self, instr, mask) -> None:
        idx = self._ld_shared_events(instr, mask)
        if self.values:
            self._ld_shared_values(instr, idx, mask)

    def _ld_shared_events(self, instr, mask) -> np.ndarray:
        idx = self._shared_indices(instr.idx, mask, instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self._count("inst.ld.shared", mask)
        self._count_bank_replays(idx, mask)
        return idx

    def _ld_shared_values(self, instr, idx, mask) -> None:
        arr = self.shared[instr.buf]
        if self._cur_all:
            # Full mask: a plain gather (bit-identical, no zeros container).
            value = arr[self._brow, idx]
        else:
            value = np.zeros(self.shape, dtype=np.float64)
            value[mask] = arr[self._brow[mask], idx[mask]]
        self._write(instr.dst, value, mask)

    def _st_shared(self, instr, mask) -> None:
        idx = self._st_shared_events(instr, mask)
        if self.values:
            self._st_shared_values(instr, idx, mask)

    def _st_shared_events(self, instr, mask) -> np.ndarray:
        idx = self._shared_indices(instr.idx, mask, instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self._count("inst.st.shared", mask)
        self._count_bank_replays(idx, mask)
        return idx

    def _st_shared_values(self, instr, idx, mask) -> None:
        src = self._value_array(instr.src, mask)
        arr = self.shared[instr.buf]
        if self._cur_all:
            # Full mask: a plain scatter, in the same C order.
            arr[self._brow, idx] = src
        else:
            arr[self._brow[mask], idx[mask]] = src[mask]

    def _value_array(self, operand, mask) -> np.ndarray:
        """A source operand as a ``(B, T)`` array: a register broadcast
        from the shape it is held in, an immediate or launch constant as
        float64."""
        value = np.asarray(self._read(operand, mask))
        if not isinstance(operand, Reg):
            value = value.astype(np.float64)
        return np.broadcast_to(value, self.shape)

    # -- atomics -----------------------------------------------------------

    def _atom_shared(self, instr, mask) -> None:
        idx = self._atom_shared_events(instr, mask)
        if self.values:
            self._atom_shared_values(instr, idx, mask)

    def _atom_shared_events(self, instr, mask) -> np.ndarray:
        idx = self._shared_indices(instr.idx, mask, instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self.events["atom.shared.ops"] += int(mask.sum())
        rows, row_mask, copies = self._row_pattern(idx, mask)
        # Per-warp serialization: ops to the same address inside one warp
        # execute one at a time.
        warp_rows = self._warp_rows(rows, row_mask)
        warp_rows.sort(axis=1)
        self.events["atom.shared.warp_serial"] += (
            int(_longest_runs(warp_rows).sum()) * copies
        )
        # Block-level: total ops per address bound the block's critical path.
        block_rows = np.where(row_mask, rows, -1)
        block_rows.sort(axis=1)
        self.events["atom.shared.block_max_same_addr"] += (
            int(_longest_runs(block_rows).sum()) * copies
        )
        return idx

    def _atom_shared_values(self, instr, idx, mask) -> None:
        src = self._value_array(instr.src, mask)
        arr = self.shared[instr.buf]
        ATOMIC_IMPL[instr.op].at(arr, (self._brow[mask], idx[mask]), src[mask])

    def _atom_global(self, instr, mask) -> None:
        idx = self._atom_global_events(instr, mask)
        if self.values:
            self._atom_global_values(instr, idx, mask)

    def _atom_global_events(self, instr, mask) -> np.ndarray:
        idx = self._global_indices(instr.idx, mask, instr.buf)
        self._check_writeable(instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self.events["atom.global.ops"] += int(mask.sum())
        self._tally_global_atomics(instr.buf, idx, mask)
        return idx

    def _tally_global_atomics(self, buf, idx, mask) -> None:
        """Feed the launch's per-address ``[ops, first_block,
        cross_block]`` tallies, block by block."""
        if len(self.atomic_addr_counts) > _ATOMIC_TRACK_CAP:
            return
        # One sort for the chunk: per block row, the runs of equal
        # active addresses, in (row, address) order.
        rows = np.where(mask, idx, -1)
        rows.sort(axis=1)
        row, col = np.nonzero(_run_starts(rows))
        # A run ends where the next one starts, or at its row's end.
        starts = row * self.nthreads + col
        ends = np.minimum(np.append(starts[1:], rows.size),
                          (row + 1) * self.nthreads)
        bounds = np.searchsorted(row, np.arange(self.nblocks + 1)).tolist()
        addresses = rows[row, col].tolist()
        per_addr = (ends - starts).tolist()
        for r in range(self.nblocks):
            lo, hi = bounds[r], bounds[r + 1]
            self._tally(buf, r, addresses[lo:hi], per_addr[lo:hi])

    def _tally(self, buf, row, addresses, per_addr) -> None:
        """Merge the runs of equal atomic addresses (and their lengths)
        of the block at chunk position ``row`` into the launch's tallies;
        blocks arrive ascending."""
        counts = self.atomic_addr_counts
        if len(counts) > _ATOMIC_TRACK_CAP:
            return  # cap checked per block: chunking-independent
        if self._tallies is not None:
            self._tallies.append((buf, row, addresses, per_addr))
        block_id = int(self.block_ids[row])
        for address, count in zip(addresses, per_addr):
            key = (buf, address)
            entry = counts.get(key)
            if entry is None:
                # [ops, first block to touch, touched cross-block].
                counts[key] = [count, block_id, False]
            else:
                entry[0] += count
                if entry[1] != block_id:
                    entry[2] = True

    def _atom_global_values(self, instr, idx, mask) -> None:
        src = self._value_array(instr.src, mask)
        arr = self.device.get(instr.buf)
        # ufunc.at applies updates in flattened (block-major) order — the
        # same order one-block chunks produce, so float accumulation does
        # not depend on the chunking.
        ATOMIC_IMPL[instr.op].at(arr, idx[mask], src[mask].astype(arr.dtype))

    # -- shuffles -----------------------------------------------------------

    def _shfl(self, instr, mask) -> None:
        self._shfl_events(instr, mask)
        if self.values:
            self._shfl_values(instr, mask)

    def _shfl_events(self, instr, mask) -> None:
        # The instruction validates its width and mode at construction;
        # re-validating here makes hand-built or mutated instructions
        # fail identically under every backend and trace.
        if instr.width not in SHFL_WIDTHS:
            raise SimulationError(
                f"kernel {self.kernel.name!r}: invalid shfl width "
                f"{instr.width!r}"
            )
        if instr.mode not in SHFL_MODES:
            raise SimulationError(
                f"kernel {self.kernel.name!r}: invalid shfl mode "
                f"{instr.mode!r}"
            )
        self._count("inst.shfl", mask)

    def _shfl_values(self, instr, mask) -> None:
        src = np.asarray(self._read(instr.src, mask))
        if src.shape != self.shape:
            src = np.broadcast_to(src, self.shape)
        offset = np.asarray(self._read(instr.offset, mask))
        if offset.ndim == 0:
            # A launch-uniform offset (an immediate, a launch constant or
            # a register held as a scalar) gives every block row the same
            # source lanes: one cached (threads,) row per offset value.
            source_lane = _shfl_row(
                self.nthreads, instr.mode, instr.width, offset.item()
            )
        else:
            source_lane = _shfl_source(
                self.nthreads, instr.mode, instr.width, offset
            )
        if self.san is not None:
            self.san.on_shfl(
                self, instr, np.broadcast_to(source_lane, self.shape), mask
            )
        if source_lane.ndim == 1:
            result = src[:, source_lane]
        else:
            result = np.take_along_axis(src, source_lane, axis=1)
        self._write(instr.dst, result, mask)



class _SuffixEntry(NamedTuple):
    """What simulating a memoized region did once, per block or per
    chunk (see :meth:`_BatchedRun._run_memoized`): its event deltas
    and the chunk's loop-counter deltas as ``(key, delta)`` pairs (every
    key it touched, zero deltas included), its
    :meth:`_BatchedRun._tally` calls and the addresses they carry."""

    events: tuple
    loops: tuple
    tallies: tuple
    tallied: int


def _suffix_entry(events, loops, tallies, copies):
    """The memo entry of a region simulated on a chunk: per block when
    ``copies`` (the chunk's block count) is above 1, else the whole
    chunk. None when the blocks did not all count the same: a delta does
    not divide evenly, or a row's tallies differ from row 0's."""
    if copies > 1:
        if any(delta % copies for delta in events.values()):
            return None
        first = [tally for tally in tallies if tally[1] == 0]
        if tallies != [
            (buf, row, addresses, per_addr)
            for buf, _row, addresses, per_addr in first
            for row in range(copies)
        ]:
            return None
        tallies = first
    return _SuffixEntry(
        events=tuple((key, delta // copies) for key, delta in events.items()),
        loops=tuple(loops.items()),
        tallies=tuple(tallies),
        tallied=sum(len(tally[2]) for tally in tallies),
    )


def _new_memo(_kernel) -> dict:
    """A kernel's ``suffix`` or ``combine`` fact: memo key ->
    :class:`_SuffixEntry` (see :meth:`_BatchedRun._run_memoized`)."""
    return {}


@functools.lru_cache(maxsize=1024)
def _sample_ids(grid, limit) -> np.ndarray:
    """The block ids a launch of ``grid`` blocks sampled down to
    ``limit`` runs, evenly spread and first and last included: built
    once per (grid, limit) and shared, read-only, by every launch."""
    ids = np.unique(np.linspace(0, grid - 1, limit).astype(np.int64))
    ids.flags.writeable = False
    return ids


def _shfl_source(threads, mode, width, offset) -> np.ndarray:
    """Source lane of every lane of a ``threads``-lane block: a
    ``(threads,)`` row for a scalar ``offset``, else ``offset``'s shape
    broadcast with the lanes (``(1, threads)`` or ``(blocks, threads)``)."""
    lanes = np.arange(threads, dtype=np.int64)
    sub = lanes % width
    base = lanes - sub
    if mode == "down":
        target = sub + offset
    elif mode == "up":
        target = sub - offset
    elif mode == "xor":
        target = np.bitwise_xor(sub, np.asarray(offset).astype(np.int64))
    else:  # idx
        target = np.asarray(offset).astype(np.int64)
    # Identity fallback for any source lane outside the width segment
    # *or* past the block's last thread: hardware reads the caller's
    # own value there, it never wraps into the next warp segment.
    source = base + target
    valid = (target >= 0) & (target < width) & (source < threads)
    return np.where(valid, source, lanes).astype(np.int64)


@functools.lru_cache(maxsize=4096)
def _shfl_row(threads, mode, width, offset) -> np.ndarray:
    """:func:`_shfl_source` for a scalar ``offset``, built once per
    (threads, mode, width, offset) and shared, read-only, by every
    launch."""
    row = _shfl_source(threads, mode, width, offset)
    row.flags.writeable = False
    return row


def _add_counts(counter, items) -> None:
    for key, value in items:
        counter[key] += value


def _unit_row_segments(first, per_segment, width) -> int:
    """Segments touched by full warp rows that read ``first + lane``,
    ``width`` elements per lane: each covers the contiguous elements
    ``[first, last]``, ``last = first + 31 + width - 1``."""
    last = first + (WARP - 1 + width - 1)
    return int((last // per_segment - first // per_segment).sum()) + len(first)


def _run_starts(rows) -> np.ndarray:
    """Of rows sorted with ``-1`` sentinels first: True where a run of
    equal non-sentinel values starts (one per distinct value)."""
    first = np.empty(rows.shape, dtype=bool)
    first[:, 0] = rows[:, 0] != -1
    np.not_equal(rows[:, 1:], rows[:, :-1], out=first[:, 1:])
    return first


def _longest_runs(rows) -> np.ndarray:
    """Per sorted row, the length of its longest run of equal
    non-sentinel values (0 for a row of ``-1`` only)."""
    pos = np.arange(rows.shape[1])
    start = np.where(_run_starts(rows), pos, 0)
    np.maximum.accumulate(start, axis=1, out=start)
    run = pos - start + 1
    run[rows == -1] = 0
    return run.max(axis=1)
