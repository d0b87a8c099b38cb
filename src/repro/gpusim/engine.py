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
is observationally equivalent to the sequential one. A launch runs
sequential when its kernel reads a global buffer it also writes
(cross-block read-after-write), stores to global memory inside a loop,
or issues order-sensitive floating-point global atomics from inside a
loop / from multiple sites, and when its grid has a single block. On
batchable kernels both orders produce bit-identical numeric results
**and** bit-identical event counters (verified exhaustively by
``tests/gpusim/test_batched_engine.py``, which sets ``BATCH_LANES = 1``
to get the one-block chunks of the sequential order).

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
launch are unspecified, while every event counter stays exact. On the
``compiled`` backend a sampled launch of a data-oblivious plan, with no
sanitizer attached, goes further (see :meth:`Executor._loop_fallback`):
it runs the kernel's *event trace*, in which value-only instructions
are reduced to their event counts and memory, atomic and shuffle
instructions run only the event half of their run-state method, and it
skips the trips of a proven-periodic loop, adding their events in
closed form (:meth:`_BatchedRun._exec_while_c`). ``StepProfile.meta
["exec.trace"]`` records which trace ran (``events`` or ``full``).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter

import numpy as np

from ..obs import default_metrics, get_tracer
from ..vir.instructions import (
    SHFL_MODES,
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
)
from ..vir.program import KernelStep, MemsetStep, Plan
from .backend import backend_names, get_backend
from .device import Device
from .events import PlanProfile, StepProfile

WARP = 32

#: Cap on how many distinct atomic addresses are tracked exactly per step.
_ATOMIC_TRACK_CAP = 4096


class SimulationError(Exception):
    """Raised when a kernel does something invalid (OOB access, etc.)."""


_CMP_LOGICAL = frozenset(
    {"lt", "le", "gt", "ge", "eq", "ne", "land", "lor"}
)


def _coerce_bool(value):
    """C semantics: predicates participate in arithmetic as 0/1 ints."""
    if isinstance(value, np.ndarray) and value.dtype == np.bool_:
        return value.astype(np.int64)
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    return value


def _np_binop(op, a, b):
    if op not in _CMP_LOGICAL:
        a = _coerce_bool(a)
        b = _coerce_bool(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if _is_integer(a) and _is_integer(b):
            return _int_div(a, b)
        return a / b
    if op == "idiv":
        return np.floor_divide(a, b)
    if op == "mod":
        return a % b
    if op == "min":
        return np.minimum(a, b)
    if op == "max":
        return np.maximum(a, b)
    if op == "and":
        return np.bitwise_and(a, b)
    if op == "or":
        return np.bitwise_or(a, b)
    if op == "xor":
        return np.bitwise_xor(a, b)
    if op == "shl":
        return np.left_shift(a, b)
    if op == "shr":
        return np.right_shift(a, b)
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "land":
        return np.logical_and(a, b)
    if op == "lor":
        return np.logical_or(a, b)
    raise SimulationError(f"unknown binary op {op!r}")


def _is_integer(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iub"
    return isinstance(value, (int, np.integer, bool, np.bool_))


def _int_div(a, b):
    """C-style truncating integer division (valid for our kernels, which
    only divide non-negative quantities)."""
    return np.floor_divide(a, b)


_ATOMIC_UFUNC = {
    "add": np.add,
    "sub": np.subtract,
    "min": np.minimum,
    "max": np.maximum,
}


#: Executor backends, from the registry in :mod:`repro.gpusim.backend`:
#: ``compiled`` runs kernels as pre-compiled closure traces
#: (:mod:`repro.gpusim.compile`), ``interpreted`` is the reference
#: per-instruction dispatch path. Both are bit-identical.
EXECUTION_BACKENDS = backend_names()


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


def memoize_by_identity(memo: dict, obj, build):
    """Memoize ``build(obj)`` keyed by ``id(obj)``, guarded by a weakref
    so a recycled id can never return a stale value. The cached value
    must not strongly reference ``obj``, or entries would never evict.
    """
    key = id(obj)
    entry = memo.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1]
    value = build(obj)
    ref = weakref.ref(obj, lambda _ref, _key=key: memo.pop(_key, None))
    memo[key] = (ref, value)
    return value


#: Launch-hot caches over immutable-once-executed objects (see
#: :func:`memoize_by_identity` for the recycled-id guard).
_KERNELS_VALIDATED = {}
_REGISTER_COUNTS = {}


def _validate(kernel):
    kernel.validate()
    return True


def _count_registers(kernel):
    return kernel.register_count()


def _walk_while_depth(body, in_while=False):
    """Yield ``(instr, inside_a_While)`` for every instruction in a body."""
    for instr in body:
        yield instr, in_while
        if isinstance(instr, If):
            yield from _walk_while_depth(instr.then, in_while)
            yield from _walk_while_depth(instr.otherwise, in_while)
        elif isinstance(instr, While):
            yield from _walk_while_depth(instr.cond_block, True)
            yield from _walk_while_depth(instr.body, True)


#: id(kernel) -> (weakref, access summary); see memoize_by_identity.
_ACCESS_MEMO = {}


def _build_access_summary(kernel) -> dict:
    """One full tree walk collecting the global-memory access facts the
    batchability verdict needs. Walked once per kernel object — the
    executor re-resolves the verdict on every launch, and re-walking the
    tree each time dominated small-launch dispatch."""
    loads = set()
    stores = set()
    store_in_while = None
    atomics = {}
    for instr, in_while in _walk_while_depth(kernel.body):
        if isinstance(instr, LdGlobal):
            loads.add(instr.buf)
        elif isinstance(instr, StGlobal):
            stores.add(instr.buf)
            if in_while and store_in_while is None:
                store_in_while = instr.buf
        elif isinstance(instr, AtomGlobal):
            entry = atomics.setdefault(
                instr.buf, {"count": 0, "in_while": False, "ops": set()}
            )
            entry["count"] += 1
            entry["in_while"] = entry["in_while"] or in_while
            entry["ops"].add(instr.op)
    return {
        "loads": loads,
        "stores": stores,
        "store_in_while": store_in_while,
        "atomics": atomics,
    }


def _kernel_access_summary(kernel) -> dict:
    return memoize_by_identity(_ACCESS_MEMO, kernel, _build_access_summary)


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

    The kernel-tree walk is memoized per kernel object; only the cheap
    device-dependent dtype check runs per call.
    """
    summary = _kernel_access_summary(kernel)
    if summary["store_in_while"] is not None:
        return False, f"global store inside a loop ({summary['store_in_while']!r})"
    atomics = summary["atomics"]
    hazard = summary["loads"] & (summary["stores"] | set(atomics))
    if hazard:
        return False, f"load/store hazard on {sorted(hazard)}"
    for buf, entry in atomics.items():
        dtype_kind = "f"
        if device is not None:
            try:
                dtype_kind = device.get(buf).dtype.kind
            except Exception:
                dtype_kind = "f"
        order_sensitive = dtype_kind == "f" and bool(entry["ops"] & {"add", "sub"})
        if order_sensitive and (entry["in_while"] or entry["count"] > 1):
            return False, f"order-sensitive float atomics on {buf!r}"
    return True, "block-uniform"


#: Shuffle widths hardware accepts (power-of-two warp segments). The
#: instruction dataclass validates widths and modes at construction;
#: the engines re-validate at execution time so hand-built or mutated
#: instructions fail identically under every backend and trace.
_SHFL_WIDTHS = frozenset({1, 2, 4, 8, 16, 32})


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
        #: Backend object resolved from the registry (raises ValueError
        #: for unknown names); ``self.backend`` keeps the plain name for
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

    def run_plan(self, plan: Plan, sample_limit: int = None) -> PlanProfile:
        """Run every step of a plan.

        ``sample_limit`` bounds how many blocks of each launch actually
        execute; when it kicks in, the profile is marked sampled and the
        numeric result is not meaningful.
        """
        # Kernels are immutable once executed (the compile memo already
        # relies on this), so the structural validation walk runs once
        # per kernel object, not per plan or launch: the plans of a
        # sweep share their kernels.
        for step in plan.kernel_steps():
            memoize_by_identity(_KERNELS_VALIDATED, step.kernel, _validate)
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
                step, sample_limit=sample_limit, plan=plan
            )
            sampled_any = sampled_any or bool(step_profile.sampled_blocks)
            profile.steps.append(step_profile)
        if not sampled_any:
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

    def _loop_fallback(self, sampled: bool, kernel, kernels):
        """``(reason, artifact)``: why a launch of ``kernel`` must
        simulate every loop trip and every value, or ``(None, artifact)``
        with ``kernel``'s backend artifact when it may extrapolate
        proven-periodic trips and run the artifact's event trace.

        Skipped trips and unmoved values leave registers, and so device
        buffers, unspecified. That is safe only when the launch is
        sampled (its results are not meaningful anyway), no sanitizer
        observes individual accesses, and no kernel of ``kernels`` (the
        plan's, which run on those buffers; ``kernel`` among them) lets
        data steer its events.
        """
        if not sampled:
            return "unsampled", None
        if self.sanitizer is not None:
            return "sanitizer", None
        own = None
        for other in kernels:
            artifact = self._backend.prepare(other)
            if artifact is None:
                return self.backend, None
            if artifact.data_dependence is not None:
                return "data_dependent", None
            if other is kernel:
                own = artifact
        return None, own

    def run_kernel(
        self, step: KernelStep, sample_limit: int = None, plan: Plan = None
    ) -> StepProfile:
        """Run one launch. ``plan`` is the plan it belongs to: a sampled
        launch skips proven-periodic trips and runs the event trace only
        when every kernel of it is data-oblivious (without one, the
        launch's own kernel decides)."""
        kernel = step.kernel
        profile = StepProfile(
            kernel_name=kernel.name,
            grid=step.grid,
            block=step.block,
            shared_bytes=kernel.shared_bytes(),
            registers=memoize_by_identity(
                _REGISTER_COUNTS, kernel, _count_registers
            ),
            meta=dict(kernel.meta),
        )
        if sample_limit is not None and step.grid > sample_limit:
            block_ids = np.unique(
                np.linspace(0, step.grid - 1, sample_limit).astype(np.int64)
            )
            profile.sampled_blocks = len(block_ids)
        else:
            block_ids = np.arange(step.grid, dtype=np.int64)

        mode = self.execution_mode(step)
        profile.meta["exec.mode"] = mode
        profile.meta["exec.backend"] = self.backend
        kernels = [s.kernel for s in plan.kernel_steps()] if plan else [kernel]
        fallback, artifact = self._loop_fallback(
            bool(profile.sampled_blocks), kernel, kernels
        )
        if fallback is None:
            trace_kind, trace = "events", artifact.event_trace_for(kernel)
        else:
            trace_kind, trace = "full", self._backend.trace(kernel)
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
                _BatchedRun(
                    self,
                    step,
                    block_ids[start : start + batch],
                    profile.events,
                    atomic_addr_counts,
                    loop_stats,
                    loop_fallback=fallback,
                    trace=trace,
                    san=san,
                ).run()

            executed_blocks = profile.sampled_blocks or step.grid
            profile.events["blocks"] = executed_blocks
            profile.events["threads"] = executed_blocks * step.block
            profile.events["warps"] = executed_blocks * profile.warps_per_block

            if atomic_addr_counts:
                profile.events["atom.global.max_same_addr"] = (
                    self._launch_max_same_addr(atomic_addr_counts, profile, step)
                )
            span.set(events={k: int(v) for k, v in profile.events.items()})
            if loop_stats:
                span.set(loops=dict(loop_stats))
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

    The one SIMT run state: registers and masks are ``(B, T)`` arrays,
    shared memory is ``(B, S)``, and every per-thread operation is one
    numpy op over the whole chunk. Per-warp statistics are counted per
    32-lane warp row of each block, so summed event counters do not
    depend on how a launch is cut into chunks.

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
        self.trace = trace
        self.san = san
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
        #: the current trace mask (None while interpreting), and a per-run
        #: cache for trace-invariant values (specials, params).
        self._cur_warps = None
        self._cur_all = None
        self._cache = {}

    # -- helpers -------------------------------------------------------

    def run(self) -> None:
        mask = np.ones(self.shape, dtype=bool)
        if self.trace is None:
            self._exec_body(self.kernel.body, mask)
        else:
            self._run_trace(self.trace, mask)

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
        stay_any = np.bitwise_or.reduceat(after, self._warp_starts, axis=1)
        exit_any = np.bitwise_or.reduceat(exited, self._warp_starts, axis=1)
        divergent = int(np.count_nonzero(stay_any & exit_any))
        if divergent:
            self.events["branch.divergent"] += divergent

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

    def _exec_if_c(self, cond_read, then_trace, else_trace, has_else, mask):
        cond = np.asarray(cond_read(self), dtype=bool)
        if cond.shape != self.shape:
            cond = np.broadcast_to(cond, self.shape)
        then_mask = mask & cond
        else_mask = mask & ~cond
        # A warp diverges when its active lanes take both paths.
        then_any = np.bitwise_or.reduceat(then_mask, self._warp_starts, axis=1)
        else_any = np.bitwise_or.reduceat(else_mask, self._warp_starts, axis=1)
        divergent = int(np.count_nonzero(then_any & else_any))
        if divergent:
            self.events["branch.divergent"] += divergent
        self._run_trace(then_trace, then_mask)
        if has_else:
            self._run_trace(else_trace, else_mask)

    def _exec_while_c(self, cond_trace, cond_read, body_trace, mask, summary):
        """Run a loop; with a proof (``summary``) and an eligible launch,
        skip whole periods of each constant-mask stretch.

        Once ``period`` trips have run under an unchanged mask, the
        events between the stretch's first trip and now are one period's
        delta. Every trip up to the one before the next lane exits then
        repeats it, so whole periods are added in closed form and the
        inductions advanced exactly; the last trip of every stretch is
        always simulated, so lanes never exit inside a skipped range and
        every non-data register ends with its simulated value.
        """
        reason = self.loop_fallback or summary.reason
        loads = None
        if reason is None:
            loads = self._launch_loads(summary)
            if loads is None:
                reason = "launch_constant"
        if reason is not None:
            self.loop_stats["fallback." + reason] += 1
            period = None
        else:
            period = self._loop_period(loads)
        active = mask.copy()
        iterations = skipped = 0
        stretch = None  # (trip, events) where the current stretch began
        while True:
            self._run_trace(cond_trace, active)
            cond = np.asarray(cond_read(self), dtype=bool)
            if cond.shape != self.shape:
                cond = np.broadcast_to(cond, self.shape)
            staying = active & cond
            self._count_loop_divergence(active, staying)
            if period is not None and staying.any():
                if stretch is None or not np.array_equal(staying, active):
                    stretch = (iterations, dict(self.events))
                elif iterations - stretch[0] == period:
                    trips = self._skip_periods(
                        summary, loads, staying, iterations, period, stretch[1]
                    )
                    if trips < 0:
                        self.loop_stats["fallback.bounds"] += 1
                        period = None
                    else:
                        iterations += trips
                        skipped += trips
                        stretch = (iterations, dict(self.events))
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

    def _launch_loads(self, summary):
        """``summary.loads`` with every per-trip step an int at this
        launch (launch-constant multiples resolved), or None when a
        launch constant makes one a non-int."""
        loads = []
        for buf, idx, per_trip, width in summary.loads:
            if not isinstance(per_trip, int):
                per_trip = per_trip.resolve(self.step.args)
                if not _is_integer(per_trip):
                    return None
            loads.append((buf, idx, int(per_trip), width))
        return loads

    def _loop_period(self, loads) -> int:
        """Trips after which every load index has moved by a whole number
        of 128-byte segments, so the per-warp segment counts repeat."""
        period = 1
        for buf, _idx, per_trip, _width in loads:
            per_segment = max(1, 128 // self.device.get(buf).dtype.itemsize)
            period = math.lcm(
                period, per_segment // math.gcd(per_trip % per_segment, per_segment)
            )
        return period

    def _skip_periods(self, summary, loads, active, trip, period,
                      start_events) -> int:
        """Skip whole periods from trip ``trip`` (about to run its body);
        returns the trips skipped, or -1 when the skipped trips' loads
        might leave their buffers (those trips are then simulated, so the
        error is raised exactly where the interpreter raises it)."""
        regs = self.regs
        induction = regs[summary.induction]
        bound = np.asarray(self._read(summary.bound, active))
        # Advancing by step * trips equals trips repeated adds only in
        # integer arithmetic.
        if bound.dtype.kind not in "iu" or any(
            regs[name].dtype.kind not in "iu" for name, _ in summary.inductions
        ):
            return 0
        # The condition holds at trip + j while induction + j*step <op>
        # bound; ``first`` is the smallest j at which it fails for some
        # still-active lane (None: it never fails).
        step = dict(summary.inductions)[summary.induction]
        if summary.op in ("lt", "le"):
            gap, rate = (bound - induction)[active], step
        else:
            gap, rate = (induction - bound)[active], -step
        if rate <= 0:
            first = None
        elif summary.op in ("lt", "gt"):
            first = int((-(-gap // rate)).min())
        else:
            first = int((gap // rate).min()) + 1
        # Skipped trips count toward the cap: stop short of it and let
        # simulation raise the same error at the same trip.
        room = self.executor.LOOP_CAP - trip
        if first is not None:
            room = min(room, first - 1)
        trips = room // period * period
        if trips <= 0:
            return 0
        for buf, idx, per_trip, width in loads:
            if per_trip == 0:
                continue
            # The register holds the index of trip - 1 or of trip, so the
            # skipped trips' indices lie within value + per_trip * [0, trips].
            value = np.asarray(self._read(idx, active))[active]
            low, high = value.min(), value.max()
            moved = per_trip * trips
            if (
                min(low, low + moved) < 0
                or max(high, high + moved) + width - 1 >= len(self.device.get(buf))
            ):
                return -1
        periods = trips // period
        events = self.events
        for key, value in events.items():
            delta = value - start_events.get(key, 0)
            if delta:
                events[key] = value + periods * delta
        everywhere = active.all()
        for name, by in summary.inductions:
            current = regs[name]
            advanced = current + by * trips
            regs[name] = advanced if everywhere else np.where(active, advanced, current)
        return trips

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
        value = np.asarray(value)
        if value.shape != self.shape:
            value = np.broadcast_to(value, self.shape)
        current = self.regs.get(reg.name)
        all_active = self._cur_all
        if all_active is None:
            all_active = mask.all()
        if current is None or all_active:
            # Inactive lanes keep whatever the vectorized computation put
            # there — deterministic in the simulator, "undefined" on HW.
            if self._cur_warps is not None:
                # Compiled traces never mutate register arrays in place,
                # so aliasing is safe and the defensive copy is skipped.
                self.regs[reg.name] = value.astype(
                    _promote_dtype(value.dtype), copy=False
                )
            else:
                self.regs[reg.name] = np.array(
                    value, dtype=_promote_dtype(value.dtype)
                )
            return
        merged_dtype = np.result_type(current.dtype, value.dtype)
        if merged_dtype != current.dtype:
            current = current.astype(merged_dtype)
        else:
            current = current.copy()
        current[mask] = value[mask]
        self.regs[reg.name] = current

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
            self._write(instr.dst, _np_binop(instr.op, a, b), mask)
            self._count("inst.alu", mask)
        elif isinstance(instr, UnOp):
            a = self._read(instr.a, mask)
            if instr.op == "neg":
                value = -np.asarray(_coerce_bool(a))
            elif instr.op == "lnot":
                value = np.logical_not(a)
            else:  # bnot
                value = np.bitwise_not(np.asarray(_coerce_bool(a)))
            self._write(instr.dst, value, mask)
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
            value = self.step.args[instr.name]
            self._write(instr.dst, np.full(self.shape, value), mask)
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
        tid = np.broadcast_to(
            np.arange(self.nthreads, dtype=np.int64), self.shape
        )
        if kind == "tid":
            return tid
        if kind == "ctaid":
            return np.broadcast_to(self.block_ids[:, None], self.shape)
        if kind == "ntid":
            return np.full(self.shape, self.nthreads, dtype=np.int64)
        if kind == "nctaid":
            return np.full(self.shape, self.step.grid, dtype=np.int64)
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
        then_any = np.bitwise_or.reduceat(then_mask, self._warp_starts, axis=1)
        else_any = np.bitwise_or.reduceat(else_mask, self._warp_starts, axis=1)
        divergent = int(np.count_nonzero(then_any & else_any))
        if divergent:
            self.events["branch.divergent"] += divergent
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
        idx = np.asarray(self._read(operand, mask))
        if idx.shape != self.shape:
            idx = np.broadcast_to(idx, self.shape)
        active_idx = idx if self._cur_all else idx[mask]
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
        """Unique active segments per (block, warp), summed: each warp's
        ``width`` segment planes side by side in one row, sorted, and
        the runs of equal non-sentinel segments counted. Segment counts
        are not shift-invariant (a row constant can move a warp across a
        segment boundary), so every row is counted."""
        planes = [
            self._warp_rows((idx if k == 0 else idx + k) // per_segment, mask)
            for k in range(width)
        ]
        rows = planes[0] if width == 1 else np.concatenate(planes, axis=1)
        rows.sort(axis=1)
        return int(np.count_nonzero(_run_starts(rows)))

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
    # scatter, atomic update or register write). The event trace of a
    # data-oblivious kernel (repro.gpusim.compile) runs event halves
    # only; every other trace runs both, so each counter has one
    # implementation.

    def _ld_global(self, instr, mask) -> None:
        self._ld_global_values(instr, self._ld_global_events(instr, mask), mask)

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
        self._st_global_values(instr, self._st_global_events(instr, mask), mask)

    def _st_global_events(self, instr, mask) -> np.ndarray:
        idx = self._global_indices(instr.idx, mask, instr.buf)
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

    def _shared_indices(self, operand, mask, buf) -> np.ndarray:
        idx = np.asarray(self._read(operand, mask))
        if idx.shape != self.shape:
            idx = np.broadcast_to(idx, self.shape)
        arr = self.shared[buf]
        active_idx = idx if self._cur_all else idx[mask]
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
        self._ld_shared_values(instr, self._ld_shared_events(instr, mask), mask)

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
        self._st_shared_values(instr, self._st_shared_events(instr, mask), mask)

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
        value = np.asarray(self._read(operand, mask))
        if value.ndim == 0:
            value = np.broadcast_to(value, self.shape).astype(np.float64)
        return value

    # -- atomics -----------------------------------------------------------

    def _atom_shared(self, instr, mask) -> None:
        self._atom_shared_values(
            instr, self._atom_shared_events(instr, mask), mask
        )

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
        _ATOMIC_UFUNC[instr.op].at(arr, (self._brow[mask], idx[mask]), src[mask])

    def _atom_global(self, instr, mask) -> None:
        self._atom_global_values(
            instr, self._atom_global_events(instr, mask), mask
        )

    def _atom_global_events(self, instr, mask) -> np.ndarray:
        idx = self._global_indices(instr.idx, mask, instr.buf)
        if self.san is not None:
            self.san.on_mem(self, instr, idx, mask)
        self.events["atom.global.ops"] += int(mask.sum())
        self._tally_global_atomics(instr.buf, idx, mask)
        return idx

    def _tally_global_atomics(self, buf, idx, mask) -> None:
        """Feed the launch's per-address ``[ops, first_block,
        cross_block]`` tallies, block by block."""
        counts = self.atomic_addr_counts
        if len(counts) > _ATOMIC_TRACK_CAP:
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
        block_ids = self.block_ids.tolist()
        for r in range(self.nblocks):
            if len(counts) > _ATOMIC_TRACK_CAP:
                break  # cap checked per block: chunking-independent
            lo, hi = bounds[r], bounds[r + 1]
            block_id = block_ids[r]
            for address, count in zip(addresses[lo:hi], per_addr[lo:hi]):
                key = (buf, address)
                entry = counts.get(key)
                if entry is None:
                    # [ops, first block to touch, touched cross-block];
                    # rows are block-ascending.
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
        _ATOMIC_UFUNC[instr.op].at(arr, idx[mask], src[mask].astype(arr.dtype))

    # -- shuffles -----------------------------------------------------------

    def _shfl(self, instr, mask) -> None:
        self._shfl_events(instr, mask)
        self._shfl_values(instr, mask)

    def _shfl_events(self, instr, mask) -> None:
        if instr.width not in _SHFL_WIDTHS:
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
        if isinstance(instr.offset, Imm):
            # An immediate offset gives every block row the same source
            # lanes: one (threads,) row per run state.
            key = ("shfl", instr.mode, instr.width, instr.offset.value)
            source_lane = self._cache.get(key)
            if source_lane is None:
                source_lane = self._shfl_source(instr, instr.offset.value)
                self._cache[key] = source_lane
        else:
            source_lane = self._shfl_source(
                instr, np.asarray(self._read(instr.offset, mask))
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

    def _shfl_source(self, instr, offset) -> np.ndarray:
        """Source lane of every lane: a ``(threads,)`` row for a scalar
        ``offset``, ``(blocks, threads)`` for a per-lane one."""
        lanes = np.arange(self.nthreads, dtype=np.int64)
        sub = lanes % instr.width
        base = lanes - sub
        if instr.mode == "down":
            target = sub + offset
        elif instr.mode == "up":
            target = sub - offset
        elif instr.mode == "xor":
            target = np.bitwise_xor(sub, np.asarray(offset).astype(np.int64))
        else:  # idx
            target = np.asarray(offset).astype(np.int64)
        # Identity fallback for any source lane outside the width segment
        # *or* past the block's last thread: hardware reads the caller's
        # own value there, it never wraps into the next warp segment.
        source = base + target
        valid = (target >= 0) & (target < instr.width) & (source < self.nthreads)
        return np.where(valid, source, lanes).astype(np.int64)


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


def _promote_dtype(dtype):
    """Registers hold int64 / float64 / bool for simulation stability."""
    if dtype.kind in "iu":
        return np.int64
    if dtype.kind == "b":
        return np.bool_
    return np.float64


def run_plan(plan: Plan, device: Device = None, sample_limit: int = None):
    """One-shot convenience wrapper around :class:`Executor`."""
    executor = Executor(device=device)
    return executor.run_plan(plan, sample_limit=sample_limit), executor.device
