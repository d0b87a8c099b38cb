"""Lower a fused kernel trace to compiled C, closure by closure.

:func:`lower_kernel` walks :func:`repro.gpusim.fuse.fuse_kernel`'s
closure trace — the same partition the vector backend executes — and
replaces what it can prove lowerable with wrappers around functions of
one generated C translation unit, compiled once per kernel through
:mod:`repro.gpusim.native.toolchain`'s disk cache:

* **fused regions** become single C loop nests over the run state's
  register arrays (:func:`repro.gpusim.native.cgen.plan_region`);
* **megafused While loops** become one C function running *all*
  iterations — condition, body and the width-1 global loads — per call
  (:func:`repro.gpusim.native.cloop.plan_loop`);
* **uniform-offset shuffles** become precomputed-lane-map C gathers.

Everything else — barriers, atomics, shared memory, divergent control
— keeps its existing vector/compiled closure, so sanitizer hooks and
event accounting stay exactly where they were.  Planning threads a
register environment of ``(dtype, shape-class)`` facts through the
whole trace; any register the static walk cannot type simply pins its
consumers to their vector closures.

Every native wrapper re-validates its plan's assumptions at call time
(dtypes, stride classes, full mask, sanitizer off) and delegates to
the wrapped vector closure on any mismatch — the C path can never
change results, only skip Python dispatch.  Event accounting
(``inst.alu`` per region / per loop phase, load transaction and byte
counters, ``inst.shfl``) is replayed from counters the C functions
return, replicating the vector closures' totals bit-for-bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ...obs.fragments import note_fallback
from ...vir.instructions import If, Imm, Reg, Shfl, While
from ..compile import _reader, compile_kernel
from ..engine import (
    _SHFL_WIDTHS,
    SimulationError,
    _promote_dtype,
    memoize_by_identity,
)
from ..fuse import (
    _collect_visible_reads,
    _is_uniform,
    _lp,
    _rd,
    _reg_operands,
    _shfl_source_lanes,
    _sp,
    _vcore,
    _while_divergent_continue,
    fuse_kernel,
)
from . import cloop
from .cgen import (
    BUF_CODES,
    C,
    F,
    PREAMBLE,
    R,
    S,
    _DT_NP,
    _NOTCONST,
    apply_boundary_env,
    chain_source,
    plan_chain,
    plan_region,
    region_source,
    shfl_source,
)
from .cloop import _LoopPlanner, plan_loop, poison_loop_env
from .toolchain import (
    NativeCompileError,
    NativeUnavailable,
    load_or_compile,
)

__all__ = ["NativeKernel", "lower_kernel"]

#: Per-thread reusable loop frames (slot storage + metadata arrays),
#: keyed by compiled-cell identity; see :func:`_make_loop_wrapper`.
_local = threading.local()


@dataclass
class NativeKernel:
    """A kernel's natively-accelerated closure trace plus statistics."""

    kernel_name: str
    trace: list
    stats: dict = field(default_factory=dict)


_NATIVE_MEMO = {}


def lower_kernel(kernel) -> NativeKernel:
    """Lower (and memoize) a kernel's fused trace to native closures.

    Keyed by kernel object identity like ``compile_kernel`` /
    ``fuse_kernel``, so all launches of a cached plan share one
    compiled library.
    """
    return memoize_by_identity(_NATIVE_MEMO, kernel, _lower_fresh)


# ---------------------------------------------------------------------
# runtime glue helpers
# ---------------------------------------------------------------------


def _fetch_input(state, sl):
    """Load one planned input from the run state, in the same order
    (and with the same unwritten-register error) the vector closure's
    first use would."""
    if sl.kind == "reg":
        return _rd(state, sl.name, sl.disp)
    if sl.kind == "sp":
        return _sp(state, sl.name)
    return _lp(state, sl.name)


def _element_strides(arr, nblocks, nthreads):
    """``(block, lane)`` element strides of a register value against
    the (B, T) iteration space, or None when the value's layout does
    not map onto it (the wrapper then falls back)."""
    if arr.ndim == 0:
        return (0, 0)
    item = arr.itemsize
    if arr.ndim == 2 and arr.shape == (nblocks, nthreads):
        sa, sb = arr.strides
    elif arr.ndim == 2 and arr.shape == (1, nthreads):
        sa, sb = 0, arr.strides[1]
    elif arr.ndim == 2 and arr.shape == (nblocks, 1):
        sa, sb = arr.strides[0], 0
    elif arr.ndim == 1 and arr.shape == (nthreads,):
        # A block-uniform R-class core (see _alloc_core) is one lane row.
        sa, sb = 0, arr.strides[0]
    else:
        return None
    if sa % item or sb % item:
        return None
    if nblocks == 1:
        sa = 0
    if nthreads == 1:
        sb = 0
    return (sa // item, sb // item)


def _gather_inputs(state, inputs, nblocks, nthreads, P, M, keep):
    """Fetch + validate every planned input; False ⇒ fall back."""
    for sl in inputs:
        arr = _fetch_input(state, sl)
        if not isinstance(arr, np.ndarray) or arr.dtype != _DT_NP[sl.dt]:
            return False
        st = _element_strides(arr, nblocks, nthreads)
        if st is None:
            return False
        observed = (1 if st[1] else 0) | (2 if st[0] else 0)
        if observed | sl.kl != sl.kl:
            return False
        P.append(arr.ctypes.data)
        M.extend(st)
        keep.append(arr)
    return True


def _alloc_core(kl, dt, nblocks, nthreads):
    if kl == S:
        shape = (1,)
    elif kl == R:
        shape = (nthreads,)
    elif kl == C:
        shape = (nblocks,)
    else:
        shape = (nblocks, nthreads)
    return np.empty(shape, dtype=_DT_NP[dt])


def _broadcast_core(core, kl, shape):
    """Re-broadcast a core-shaped output to the full state shape with
    the same stride structure (zero-stride views, readonly) the vector
    backend's ``_bx`` store produces.  Built straight through
    ``ndarray.__new__`` — ~3x cheaper than ``np.broadcast_to`` on this
    per-closure-call hot path."""
    if kl == F:
        return core
    if kl == S:
        strides = (0, 0)
    elif kl == R:
        strides = (0, core.strides[0])
    else:
        strides = (core.strides[0], 0)
    view = np.ndarray.__new__(
        np.ndarray, shape, core.dtype, core, 0, strides
    )
    view.flags.writeable = False
    return view


class _FallbackPlan(Exception):
    """Internal: a plan references something the glue cannot resolve."""


# ---------------------------------------------------------------------
# wrapper factories
# ---------------------------------------------------------------------


def _make_region_wrapper(plan, cell, fallback):
    inputs = plan.inputs
    outs = plan.outs
    n_instrs = plan.n_instrs
    in_specs = [(sl, sl.kl, np.dtype(_DT_NP[sl.dt])) for sl in inputs]
    n_in = len(inputs)
    # Per-thread reusable call frame: pointer/metadata arrays with their
    # addresses precomputed, plus output cores and the broadcast views
    # that go into the register file.  Safe to reuse across launches
    # because compiled traces never mutate register arrays in place and
    # the previous launch's state is dead; a repeat call against the
    # *same* state (divergent replays) reallocates.
    scratch = threading.local()

    def run(state, mask):
        if not state._cur_all:
            note_fallback(state, "native.region", "mask")
            fallback(state, mask)
            return
        shape = state.shape
        nblocks, nthreads = shape
        frame = getattr(scratch, "frame", None)
        if frame is None or frame[0] != shape or frame[5] == id(state):
            parr = np.empty(n_in + len(outs), dtype=np.uint64)
            marr = np.empty(2 + 2 * n_in, dtype=np.int64)
            marr[0] = nblocks
            marr[1] = nthreads
            views = []
            for j, (name, dt, kl, _) in enumerate(outs):
                core = _alloc_core(kl, dt, nblocks, nthreads)
                parr[n_in + j] = core.ctypes.data
                views.append((name, _broadcast_core(core, kl, shape)))
            call = cell[1](parr.ctypes.data, marr.ctypes.data)
            frame = [shape, parr, marr, call, [None] * n_in, 0, views]
            scratch.frame = frame
        else:
            parr = frame[1]
            marr = frame[2]
            views = frame[6]
        frame[5] = id(state)
        # Identity cache: regions mostly consume other native wrappers'
        # reused output views, which are the *same array objects* every
        # launch — an `is` hit skips validation and pointer extraction
        # (same object implies same dtype, strides and data address; the
        # strong ref pins the id).
        last = frame[4]
        i = 0
        for sl, kl, npdt in in_specs:
            arr = _fetch_input(state, sl)
            if arr is not last[i]:
                if not isinstance(arr, np.ndarray) or arr.dtype != npdt:
                    note_fallback(state, "native.region", "input-dtype")
                    fallback(state, mask)
                    return
                st = _element_strides(arr, nblocks, nthreads)
                if st is None:
                    note_fallback(state, "native.region", "input-strides")
                    fallback(state, mask)
                    return
                observed = (1 if st[1] else 0) | (2 if st[0] else 0)
                if observed | kl != kl:
                    note_fallback(state, "native.region", "input-layout")
                    fallback(state, mask)
                    return
                parr[i] = arr.ctypes.data
                marr[2 + 2 * i] = st[0]
                marr[3 + 2 * i] = st[1]
                last[i] = arr
            i += 1
        frame[3]()
        regs = state.regs
        for name, view in views:
            regs[name] = view
        state.events["inst.alu"] += n_instrs * state._cur_warps

    run._instrs = list(plan.instrs)
    run._native = "region"
    return run


def _resolve_flush(plan):
    """Pre-resolve the loop plan's exit-flush bindings to concrete
    sources: a storage slot, an input index, or a folded constant."""
    by_expr = {}
    for st in list(plan.slots) + list(plan.s_decls):
        by_expr[_LoopPlanner.read_slot(st)] = ("slot", st)
    for k, sl in enumerate(plan.inputs):
        by_expr[cloop.input_expr(k, sl.kl)] = ("input", k)

    def resolve(entries):
        out = []
        for name, val in entries:
            if val.const is not _NOTCONST:
                out.append((name, ("const", np.asarray(val.const))))
                continue
            src = by_expr.get(val.expr)
            if src is None:
                raise _FallbackPlan(val.expr)
            out.append((name, src))
        return out

    return resolve(plan.flush_always), resolve(plan.flush_body)


def _make_loop_wrapper(plan, cell, fallback, instr):
    flush_always, flush_body = _resolve_flush(plan)
    cond_read = _reader(instr.cond)
    cond_trace = fallback._cond_trace
    body_trace = fallback._body_trace
    inputs = plan.inputs
    sites = plan.sites
    slots = plan.slots
    s_decls = plan.s_decls
    m_out = plan.m_out
    # Where in the (1,)-out block / slot list the condition mirror is.
    cond_kl = plan.cond_slot.kl

    def run(state, mask):
        if not state._cur_all or state.san is not None:
            note_fallback(state, "native.loop", "mask-or-san")
            fallback(state, mask)
            return
        nblocks, nthreads = state.shape
        if nthreads % 32:
            # Warp-major execution needs whole 32-lane warps per block.
            note_fallback(state, "native.loop", "partial-warp")
            fallback(state, mask)
            return
        P = []
        M = [nblocks, nthreads, state.executor.loop_cap]
        keep = []
        if not _gather_inputs(state, inputs, nblocks, nthreads, P, M,
                              keep):
            note_fallback(state, "native.loop", "input-gather")
            fallback(state, mask)
            return
        # Slot storage is reused across launches: a top-level megafused
        # loop closure runs at most once per launch, and the previous
        # launch's state (which the flush aliased into) is dead by the
        # time the next one starts.  Keyed per thread so parallel
        # sweeps never share a frame.
        frames = getattr(_local, "loop_frames", None)
        if frames is None:
            frames = _local.loop_frames = {}
        frame = frames.get(id(cell))
        if (
            frame is None
            or frame[3] != (nblocks, nthreads)
            # id collision after GC only forces a fresh allocation
            or frame[4] == id(state)  # re-entered within one launch
        ):
            slot_bufs = {
                st.name: _alloc_core(st.kl, st.dt, nblocks, nthreads)
                for st in slots
            }
            s_bufs = {
                st.name: np.empty((1,), dtype=_DT_NP[st.dt])
                for st in s_decls
            }
            marr = np.empty(plan.m_len, dtype=np.int64)
            n_ptr = len(P) + len(slots) + len(sites) + len(s_decls)
            parr = np.empty(n_ptr, dtype=np.uint64)
            frame = [
                slot_bufs, s_bufs, marr, (nblocks, nthreads), 0,
                parr, cell[1](parr.ctypes.data, marr.ctypes.data),
                [slot_bufs[st.name].ctypes.data for st in slots],
                [s_bufs[st.name].ctypes.data for st in s_decls],
            ]
            frames[id(cell)] = frame
        else:
            slot_bufs, s_bufs, marr, parr = (
                frame[0], frame[1], frame[2], frame[5]
            )
        frame[4] = id(state)
        P.extend(frame[7])
        site_arrs = []
        for s in sites:
            arr = state.device.get(s.buf)
            code = BUF_CODES.get(arr.dtype) if isinstance(
                arr, np.ndarray) else None
            if (
                code is None
                or arr.ndim != 1
                or not arr.flags["C_CONTIGUOUS"]
            ):
                note_fallback(state, "native.loop", "site-buffer")
                fallback(state, mask)
                return
            site_arrs.append(arr)
            P.append(arr.ctypes.data)
            M.extend((len(arr), code))
        P.extend(frame[8])
        parr[:] = P
        marr[:len(M)] = M
        marr[len(M):] = 0
        rc = frame[6]()

        iters = int(marr[m_out + cloop.OUT_ITERS])
        evals = int(marr[m_out + cloop.OUT_EVALS])
        completed = int(marr[m_out + cloop.OUT_COMPLETED])
        events = state.events
        warps = state._cur_warps
        events["inst.alu"] += plan.n_cond * evals * warps
        if plan.n_body_alu and completed:
            events["inst.alu"] += plan.n_body_alu * completed * warps
        for s, arr in zip(sites, site_arrs):
            base = m_out + cloop.OUT_N_FIXED + 2 * s.index
            execs = int(marr[base + 1])
            if not execs:
                continue
            trans = int(marr[base])
            events["mem.global.ld.trans"] += trans
            events["mem.global.bytes"] += trans * 128
            events["mem.global.bytes_useful"] += (
                execs * mask.size * arr.dtype.itemsize
            )
            events["inst.ld.global"] += execs * warps

        def storage_value(st):
            if st.kl == S:
                return s_bufs[st.name]
            return slot_bufs[st.name]

        def flush():
            regs = state.regs
            phases = (flush_always, flush_body) if iters else (
                flush_always,)
            for phase in phases:
                for name, (kind, ref) in phase:
                    if kind == "const":
                        regs[name] = np.broadcast_to(ref, state.shape)
                    elif kind == "input":
                        regs[name] = np.broadcast_to(
                            keep[ref], state.shape)
                    else:
                        regs[name] = _broadcast_core(
                            storage_value(ref), ref.kl, state.shape)

        if rc == cloop.RC_OOB:
            # The vector loop raises from inside the load closure —
            # before any exit flush — with all-lane index extremes.
            site = sites[int(marr[m_out + cloop.OUT_ERR_SITE])]
            arr = site_arrs[site.index]
            lo = int(marr[m_out + cloop.OUT_ERR_LO])
            hi = int(marr[m_out + cloop.OUT_ERR_HI])
            raise SimulationError(
                f"kernel {state.kernel.name!r}: out-of-bounds access to "
                f"global buffer {site.buf!r} (size {len(arr)}, index "
                f"range [{lo}, {hi}])"
            )
        flush()
        if rc == cloop.RC_CAP:
            cap = state.executor.loop_cap
            raise SimulationError(
                f"kernel {state.kernel.name!r}: loop exceeded "
                f"iteration cap ({cap})"
            )
        if rc == cloop.RC_MIXED:
            note_fallback(state, "native.loop", "divergent-continue")
            mirror = storage_value(plan.cond_slot)
            cond = _broadcast_core(mirror, cond_kl, state.shape)
            _while_divergent_continue(
                state, mask, cond, iters, cond_trace, body_trace,
                cond_read,
            )

    run._cond_trace = cond_trace
    run._body_trace = body_trace
    run._instr = instr
    run._loop_fused = True
    run._native = "loop"
    return run


def _make_shfl_wrapper(instr, dt, cell, fallback):
    """Uniform-offset shuffle via the compiled row gather; preserves
    ``_c_shfl_fast``'s offset-resolution and guard structure, and
    delegates to the vector closure whenever they fail."""
    mode0, width0, off_op = instr.mode, instr.width, instr.offset
    off_imm = None
    if (
        isinstance(off_op, Imm)
        and isinstance(off_op.value, (int, np.integer))
        and not isinstance(off_op.value, bool)
    ):
        off_imm = int(off_op.value)
    off_name = off_op.name if isinstance(off_op, Reg) else None
    src_name = instr.src.name
    dst = instr.dst
    npdt = np.dtype(_DT_NP[dt])
    # Shuffle outputs are always written under a full mask here, so the
    # wrapper can assign the register directly when the output dtype is
    # already in promoted form (it always is for b/i/f cores); otherwise
    # it goes through state._write like the vector closure.
    direct_assign = _promote_dtype(npdt) == npdt
    cache = {}
    scratch = threading.local()

    def run(state, mask):
        if (
            state.san is not None
            or not state._cur_all
            or instr.mode is not mode0
            or instr.width != width0
            or instr.offset is not off_op
            or width0 not in _SHFL_WIDTHS
        ):
            note_fallback(state, "native.shfl", "guard")
            fallback(state, mask)
            return
        offset = off_imm
        if offset is None:
            off = state.regs.get(off_name) if off_name is not None else None
            if (
                isinstance(off, np.ndarray)
                and off.ndim
                and off.dtype.kind in "biu"
            ):
                if _is_uniform(off):
                    offset = int(off.flat[0])
                elif off.shape == state.shape:
                    core = _vcore(off)
                    if bool((core == core.flat[0]).all()):
                        offset = int(core.flat[0])
            if offset is None:
                note_fallback(state, "native.shfl", "offset-not-uniform")
                fallback(state, mask)
                return
        src = state.regs.get(src_name)
        key = (state.nthreads, offset)
        source_lane = cache.get(key)
        if source_lane is None:
            source_lane = _shfl_source_lanes(
                mode0, width0, offset, state.nthreads
            )
            if source_lane is None:
                note_fallback(state, "native.shfl", "offset-unsupported")
                fallback(state, mask)
                return
            cache[key] = source_lane
        nblocks, nthreads = state.shape
        frame = getattr(scratch, "frame", None)
        if (
            frame is None
            or frame[0] != state.shape
            or frame[5] == id(state)
        ):
            out = np.empty(state.shape, dtype=npdt)
            parr = np.empty(3, dtype=np.uint64)
            parr[2] = out.ctypes.data
            marr = np.empty(4, dtype=np.int64)
            marr[0] = nblocks
            marr[1] = nthreads
            call = cell[1](parr.ctypes.data, marr.ctypes.data)
            frame = [state.shape, parr, marr, out, call, 0, None, None]
            scratch.frame = frame
        else:
            parr = frame[1]
            marr = frame[2]
            out = frame[3]
        frame[5] = id(state)
        # Same identity cache as the region wrapper: a steady-state src
        # is another wrapper's reused output object, so validation and
        # pointer extraction run once per frame, not per call.
        if src is not frame[6]:
            if (
                not isinstance(src, np.ndarray)
                or src.shape != state.shape
                or src.dtype != npdt
            ):
                note_fallback(state, "native.shfl", "src-dtype-shape")
                fallback(state, mask)
                return
            item = src.itemsize
            sa, sb = src.strides
            if sa % item or sb % item:
                note_fallback(state, "native.shfl", "src-strides")
                fallback(state, mask)
                return
            parr[0] = src.ctypes.data
            marr[2] = sa // item
            marr[3] = sb // item
            frame[6] = src
        if source_lane is not frame[7]:
            parr[1] = source_lane.ctypes.data
            frame[7] = source_lane
        frame[4]()
        if direct_assign:
            state.regs[dst.name] = out
        else:
            state._write(dst, out, mask)
        state.events["inst.shfl"] += state._cur_warps

    run._specialized = "shfl"
    run._instr = instr
    run._native = "shfl"
    return run


def _suffix_reads(trace, reads):
    """Register names a *fused* trace reads through the register file —
    the set a chain's outputs must cover.  Mirrors
    ``fuse._collect_visible_reads`` but walks fused traces, where
    regions carry their instruction list on ``_instrs``."""
    for closure in trace:
        instrs = getattr(closure, "_instrs", None)
        if instrs is not None:
            bound = set()
            for instr in instrs:
                for name in _reg_operands(instr):
                    if name not in bound:
                        reads.add(name)
                bound.add(instr.dst.name)
            continue
        instr = closure._instr
        reads.update(_reg_operands(instr))
        if isinstance(instr, If):
            _suffix_reads(closure._then_trace, reads)
            _suffix_reads(closure._else_trace, reads)
        elif isinstance(instr, While):
            _suffix_reads(closure._cond_trace, reads)
            _suffix_reads(closure._body_trace, reads)


def _make_chain_wrapper(plan, cell, members, items):
    """One call for a run of consecutive region/shuffle closures.  The
    compiled function walks warp-major, keeps every chain-internal value
    in 32-lane stack arrays, and only materializes registers the rest of
    the trace actually reads.  Any guard miss replays the individual
    member wrappers, which carry their own fallbacks."""
    inputs = plan.inputs
    outs = plan.outs
    n_alu = plan.n_alu
    n_shfl = plan.n_shfl
    in_specs = [(sl, sl.kl, np.dtype(_DT_NP[sl.dt])) for sl in inputs]
    n_in = len(inputs)
    scratch = threading.local()

    def fallback(state, mask):
        for m in members:
            m(state, mask)

    def run(state, mask):
        if (
            state.san is not None
            or not state._cur_all
            or state.shape[1] % 32
        ):
            note_fallback(state, "native.chain", "mask-san-or-shape")
            fallback(state, mask)
            return
        shape = state.shape
        nblocks, nthreads = shape
        frame = getattr(scratch, "frame", None)
        if frame is None or frame[0] != shape or frame[5] == id(state):
            parr = np.empty(n_in + len(outs), dtype=np.uint64)
            marr = np.empty(2 + 2 * n_in, dtype=np.int64)
            marr[0] = nblocks
            marr[1] = nthreads
            views = []
            for j, (name, dt, kl, _) in enumerate(outs):
                core = _alloc_core(kl, dt, nblocks, nthreads)
                parr[n_in + j] = core.ctypes.data
                views.append((name, _broadcast_core(core, kl, shape)))
            call = cell[1](parr.ctypes.data, marr.ctypes.data)
            frame = [shape, parr, marr, call, [None] * n_in, 0, views]
            scratch.frame = frame
        else:
            parr = frame[1]
            marr = frame[2]
            views = frame[6]
        frame[5] = id(state)
        last = frame[4]
        i = 0
        for sl, kl, npdt in in_specs:
            arr = _fetch_input(state, sl)
            if arr is not last[i]:
                if not isinstance(arr, np.ndarray) or arr.dtype != npdt:
                    note_fallback(state, "native.chain", "input-dtype")
                    fallback(state, mask)
                    return
                st = _element_strides(arr, nblocks, nthreads)
                if st is None:
                    note_fallback(state, "native.chain", "input-strides")
                    fallback(state, mask)
                    return
                observed = (1 if st[1] else 0) | (2 if st[0] else 0)
                if observed | kl != kl:
                    note_fallback(state, "native.chain", "input-layout")
                    fallback(state, mask)
                    return
                parr[i] = arr.ctypes.data
                marr[2 + 2 * i] = st[0]
                marr[3 + 2 * i] = st[1]
                last[i] = arr
            i += 1
        frame[3]()
        regs = state.regs
        for name, view in views:
            regs[name] = view
        events = state.events
        warps = state._cur_warps
        events["inst.alu"] += n_alu * warps
        if n_shfl:
            events["inst.shfl"] += n_shfl * warps

    all_instrs = []
    for kind, payload in items:
        if kind == "region":
            all_instrs.extend(payload)
        else:
            all_instrs.append(payload)
    run._instrs = all_instrs
    run._native = "chain"
    run._members = members
    return run


# ---------------------------------------------------------------------
# the lowering walk
# ---------------------------------------------------------------------


class _Lowerer:
    def __init__(self, kernel_name, visible):
        self.kernel_name = kernel_name
        self.visible = visible
        self.chunks = []      # C function sources
        self.names = []       # exported symbol names
        self.pending = []     # (cell, fname) to bind after compile
        self.counter = 0
        self.lowered_regions = 0
        self.lowered_loops = 0
        self.lowered_shfls = 0
        self.lowered_chains = 0
        self.fallback_closures = 0

    def _fname(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _add(self, fname, source):
        self.chunks.append(source)
        self.names.append(fname)
        cell = [None, None]  # [call(p, m), binder] bound after compile
        self.pending.append((cell, fname))
        return cell

    def lower_trace(self, trace, env, tail_reads=frozenset()):
        out = []
        k = 0
        n = len(trace)
        while k < n:
            items, members = self._chain_run(trace, k)
            if items is not None:
                suffix = set(tail_reads)
                _suffix_reads(trace[k + len(members):], suffix)
                chain = self._lower_chain(items, members, env, suffix)
                if chain is not None:
                    out.append(chain)
                    k += len(members)
                    continue
            closure = trace[k]
            if (
                not hasattr(closure, "_instrs")
                and isinstance(getattr(closure, "_instr", None), If)
            ):
                # Branch traces can host chains of their own; their
                # tail is whatever follows the If in this trace.
                rest = set(tail_reads)
                _suffix_reads(trace[k + 1:], rest)
                out.append(self._lower_closure(closure, env, rest))
            else:
                out.append(self._lower_closure(closure, env))
            k += 1
        return out

    @staticmethod
    def _chain_item(closure):
        """A chainable trace step: a fused straight-line region, or a
        shuffle with a compile-time-constant offset (its 32-lane source
        map is window-invariant for widths <= 32)."""
        instrs = getattr(closure, "_instrs", None)
        if instrs is not None:
            return ("region", instrs)
        instr = getattr(closure, "_instr", None)
        if (
            isinstance(instr, Shfl)
            and instr.width in _SHFL_WIDTHS
            and instr.width <= 32
        ):
            # Offset constancy (Imm or const-folded register) is
            # checked by plan_chain, which sees the fold state.
            return ("shfl", instr)
        return None

    def _chain_run(self, trace, k):
        """Maximal run of chainable closures starting at ``trace[k]``.
        Worth compiling as one unit only when it mixes at least one
        region with at least one shuffle; otherwise the per-closure
        lowerings already cover it."""
        items = []
        members = []
        n_shfl = n_region = 0
        for closure in trace[k:]:
            item = self._chain_item(closure)
            if item is None:
                break
            items.append(item)
            members.append(closure)
            if item[0] == "shfl":
                n_shfl += 1
            else:
                n_region += 1
        if len(members) >= 2 and n_shfl and n_region:
            return items, members
        return None, None

    def _lower_chain(self, items, members, env, suffix_reads):
        env_probe = dict(env)
        plan = plan_chain(items, env_probe, suffix_reads)
        if not plan.ok:
            return None
        # The member wrappers double as the runtime fallback path;
        # lowering them walks the same instructions and applies the
        # same env updates as the probe above.
        wrappers = [self._lower_closure(c, env) for c in members]
        plan.fname = self._fname("chain")
        cell = self._add(plan.fname, chain_source(plan.fname, plan))
        self.lowered_chains += 1
        return _make_chain_wrapper(plan, cell, wrappers, items)

    def _lower_closure(self, closure, env, tail_reads=frozenset()):
        instrs = getattr(closure, "_instrs", None)
        if instrs is not None:
            return self._lower_region(closure, instrs, env)
        instr = closure._instr
        if isinstance(instr, While):
            return self._lower_while(closure, instr, env)
        if isinstance(instr, If):
            return self._lower_if(closure, instr, env, tail_reads)
        if isinstance(instr, Shfl):
            return self._lower_shfl(closure, instr, env)
        apply_boundary_env(instr, env)
        self.fallback_closures += 1
        return closure

    def _lower_region(self, closure, instrs, env):
        plan = plan_region(instrs, env, self.visible)
        if not plan.ok or plan.n_instrs < 2:
            self.fallback_closures += 1
            return closure
        plan.fname = self._fname("region")
        plan.instrs = instrs
        cell = self._add(plan.fname, region_source(plan.fname, plan))
        self.lowered_regions += 1
        return _make_region_wrapper(plan, cell, closure)

    def _lower_while(self, closure, instr, env):
        if not getattr(closure, "_loop_fused", False):
            # Not vector-megafusible (divergence-capable body, shared
            # memory, ...): keep the whole closure, poison its writes.
            poison_loop_env(closure._cond_trace, closure._body_trace, env)
            self.fallback_closures += 1
            return closure
        self.counter += 1
        plan = plan_loop(
            self.counter, instr, closure._cond_trace,
            closure._body_trace, env,
        )
        if plan is None:
            self.fallback_closures += 1
            return closure
        cell = self._add(plan.fname, plan.source)
        try:
            wrapper = _make_loop_wrapper(plan, cell, closure, instr)
        except _FallbackPlan:
            self.chunks.pop()
            self.names.pop()
            self.pending.pop()
            self.fallback_closures += 1
            return closure
        self.lowered_loops += 1
        return wrapper

    def _lower_if(self, closure, instr, env, tail_reads=frozenset()):
        env_then = dict(env)
        env_else = dict(env)
        # The else trace runs after the then trace, so a then-side chain
        # must also keep registers the else side reads alive.
        then_tail = set(tail_reads)
        _suffix_reads(closure._else_trace, then_tail)
        then_trace = self.lower_trace(
            closure._then_trace, env_then, then_tail
        )
        else_trace = self.lower_trace(
            closure._else_trace, env_else, tail_reads
        )
        _merge_branch_envs(env, env_then, env_else)
        from ..fuse import _c_if_fast

        return _c_if_fast(instr, then_trace, else_trace)

    def _lower_shfl(self, closure, instr, env):
        src_dt = env.get(instr.src.name, (None, F))[0]
        apply_boundary_env(instr, env)
        if src_dt is None:
            self.fallback_closures += 1
            return closure
        fname = self._fname("shfl")
        cell = self._add(fname, shfl_source(fname, src_dt))
        self.lowered_shfls += 1
        return _make_shfl_wrapper(instr, src_dt, cell, closure)


def _merge_branch_envs(env, env_then, env_else):
    """Post-If environment: a register keeps its dtype only when both
    branch walks agree; classes widen to F (masked merges materialize
    full arrays). Registers untouched by both branches keep their entry
    facts."""
    for name in set(env_then) | set(env_else):
        a = env_then.get(name, (None, F))
        b = env_else.get(name, (None, F))
        pre = env.get(name)
        if a == b and a == pre:
            continue
        dt = a[0] if a[0] == b[0] else None
        env[name] = (dt, F)


def _lower_fresh(kernel) -> NativeKernel:
    from ...obs import default_metrics, get_tracer

    fused = fuse_kernel(kernel)
    metrics = default_metrics()
    with get_tracer().span("native.kernel", kernel=kernel.name) as span:
        visible = set()
        _collect_visible_reads(compile_kernel(kernel).trace, visible)
        lo = _Lowerer(kernel.name, visible)
        env = {}
        trace = lo.lower_trace(fused.trace, env)
        lib = None
        if lo.names:
            source = PREAMBLE + "\n" + "\n".join(lo.chunks)
            start = time.perf_counter()
            try:
                lib = load_or_compile(source, lo.names, metrics)
            except NativeCompileError:
                metrics.inc("native.compile_errors")
                trace = list(fused.trace)
                lo.lowered_regions = 0
                lo.lowered_loops = 0
                lo.lowered_shfls = 0
                lo.lowered_chains = 0
            else:
                metrics.observe(
                    "native.compile_us",
                    (time.perf_counter() - start) * 1e6,
                )
                for cell, fname in lo.pending:
                    cell[0] = lib.get(fname)
                    cell[1] = lib.binder(fname)
        stats = dict(fused.stats)
        stats.update(
            native_regions=lo.lowered_regions,
            native_loops=lo.lowered_loops,
            native_shfls=lo.lowered_shfls,
            native_chains=lo.lowered_chains,
            native_fallbacks=lo.fallback_closures,
        )
        span.set(
            regions=lo.lowered_regions,
            loops=lo.lowered_loops,
            shfls=lo.lowered_shfls,
            chains=lo.lowered_chains,
        )
    metrics.inc("native.kernels")
    metrics.inc("native.lowered_regions", lo.lowered_regions)
    metrics.inc("native.lowered_loops", lo.lowered_loops)
    metrics.inc("native.lowered_shfls", lo.lowered_shfls)
    metrics.inc("native.lowered_chains", lo.lowered_chains)
    metrics.inc("native.fallback_closures", lo.fallback_closures)
    nk = NativeKernel(kernel_name=kernel.name, trace=trace, stats=stats)
    nk._lib = lib  # keepalive: wrappers hold only bare function cells
    return nk
