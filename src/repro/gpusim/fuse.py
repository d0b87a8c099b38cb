"""Region fusion: compile straight-line trace runs into mega-expressions.

The compiled backend (:mod:`repro.gpusim.compile`) already removes the
per-instruction *dispatch*, but still pays one Python call — and one
whole-block numpy operation — per VIR instruction per trace execution.
This module walks a :class:`~repro.gpusim.compile.CompiledKernel`
closure trace and groups maximal straight-line runs of data-parallel
ALU instructions — ``BinOp``/``UnOp``/``Mov``/``Sel``/``Special``/
``LdParam`` — into *regions*. Each region of k >= 2 instructions is
compiled (via ``compile()`` of a synthesized Python source string) into
**one** generated function evaluating the whole region over the run
state's block arrays, so k instructions cost one Python call.

Region rules
------------
Regions end at every instruction with mask-, memory- or event-ordering
side effects the mega-expression cannot subsume:

* **barrier** (``Bar``) — block-wide synchronization point;
* **shuffle** (``Shfl``) — cross-lane exchange;
* **atomic** (``AtomGlobal``/``AtomShared``) — read-modify-write with
  serialization counters;
* **memory** (``LdGlobal``/``StGlobal``/``LdShared``/``StShared``) —
  bounds checks, transaction/bank-replay counting, sanitizer hooks;
* **control** (``If``/``While``) — the active mask changes; their
  sub-traces are fused recursively.

Every trace slot lands in exactly one region: fused runs (k >= 2),
single ALU instructions kept as their original closure
(``single-alu``), and one boundary region per non-fusible instruction.
``FusedKernel.regions`` records this partition (nested sub-traces
included) and the property tests verify it is a partition with
boundaries only at the classes above.

Uniform-value scalarization
---------------------------
Reduction kernels are full of *lane-uniform* values: loop counters,
trip counts, immediates, kernel parameters. The interpreter computes
each of them across every lane of every block; a fused region instead
computes them as 0-d numpy arrays (same dtype, same overflow/rounding
behavior — elementwise numpy math is a pure function of value and
dtype, so one element stands for all) and stores them into the
register file as zero-stride ``np.broadcast_to`` views. Readers cannot
tell the difference: views have the full block shape and promoted
dtype, every engine path only reads register arrays (the masked
``_write`` merge copies before mutating), and downstream regions
detect the zero strides and keep computing at scalar cost. This is
what lets the hot loop of a tiled reduction run its bookkeeping
(``idx < len``, ``idx * stride``, ``idx + 1``) in microseconds
independent of block count.

Dead-store elimination
----------------------
Registers written inside a fused region and provably never read after
it (not live-out of the region, the kernel, or any enclosing loop) are
kept in generated-function locals and never stored to ``state.regs``.
The per-kernel count is aggregated into ``FusedKernel.stats`` and the
bench snapshot.

Loop megafusion
---------------
A ``While`` whose condition is lane-uniform and whose body is entirely
fusible compiles to **one** generated function containing the whole
Python ``while`` loop: registers live across iterations become SSA
locals, stores to ``state.regs`` are deferred until the loop exits
(split into condition-phase and body-phase flushes so a final
condition evaluation still observes the right values), and width-1
global loads whose index is an affine function of the loop counter are
resolved to one precomputed gather per iteration
(``_ld_affine_attempt``). This removes every per-iteration Python call
from the tiled-accumulation loop, the dominant cost of version (b).

Column-window execution
-----------------------
An ``If`` guarded by a lane-index comparison (``tid < 32`` and
friends) whose active columns form one contiguous warp-aligned run
executes its sub-trace on ``[:, c0:c1)`` register *views* with
full-active semantics — 8–32x smaller arrays on the second-stage warp
reduction — then merges written registers back once. Lane identity
(``tid``/``laneid``/``warpid``) is seeded from the original lane
numbers and warp statistics are sliced from the parent state, so event
counts stay bit-identical; requires no sanitizer attached and falls
back to masked broadcast execution otherwise.

Bit-exactness
-------------
The generated fast path (all lanes active) chains values between
instructions exactly as the engines' ``_write`` fast path would store
them: every value a later instruction can observe has the promoted
register dtype (int64/float64/bool) and is produced by the same numpy
entry points the interpreter uses (``_coerce_bool`` coercions,
``_int_div``, ``np.minimum``…). Under a partial mask the region takes
a generated slow path instead that funnels every instruction through
``state._write(dst, value, mask)`` — the masked merge changes result
dtypes (``np.result_type`` with the previous register value), so
in-region re-reads must observe the merged arrays; re-reading
``state.regs`` per instruction reproduces the interpreter exactly.

Boundary instructions keep their compiled closures (which delegate to
the run-state methods) except for specialized fast closures that stay
bit-exact while removing the dominant per-call numpy work; each
delegates back to the engine whenever its preconditions fail (sanitizer
attached, instruction mutated after fusion, unexpected operand shapes):

* ``While``/``If`` skip the per-iteration mask reductions while the
  active mask provably does not change (condition register is a
  lane-uniform view), falling back to the engine loop on divergence;
* ``Shfl`` with an immediate or lane-uniform offset precomputes the
  per-lane source map once per (block size, offset) instead of
  rebuilding the lane arithmetic every call;
* width-1 ``LdGlobal`` under a full mask gathers directly and, when
  the per-lane indices are consecutive (the coalesced pattern),
  computes the 128-byte-segment transaction count analytically from
  the 32-lane warp starts instead of sorting;
* ``AtomGlobal`` with all active lanes hitting one address (the
  block-result pattern) updates the same-address tracking dict in one
  step instead of a per-block-row ``np.unique`` loop.

One deliberate divergence from the interpreter: a fused region counts
its ``inst.alu`` events after the whole region executes, so a region
aborted mid-way by a ``SimulationError`` (e.g. a read of an unwritten
register) leaves fewer events behind than per-instruction execution
would. Profiles of failed launches are never observed, so this is not
measurable from the public API.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ..vir.instructions import (
    AtomGlobal,
    AtomShared,
    Bar,
    BinOp,
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
from .compile import (
    _UNOP_IMPL,
    _div,
    _reader,
    compile_kernel,
)
from .engine import (
    _ATOMIC_TRACK_CAP,
    _ATOMIC_UFUNC,
    _SHFL_WIDTHS,
    WARP,
    SimulationError,
    _coerce_bool,
    _promote_dtype,
    memoize_by_identity,
)

#: Instruction classes a fused region may contain.
FUSIBLE_OPS = (BinOp, UnOp, Mov, Sel, Special, LdParam)

#: Region-boundary cause per non-fusible instruction class — the
#: "fallback causes" reported in fusion stats.
BOUNDARY_KINDS = {
    Bar: "barrier",
    Shfl: "shuffle",
    AtomGlobal: "atomic",
    AtomShared: "atomic",
    LdGlobal: "memory",
    StGlobal: "memory",
    LdShared: "memory",
    StShared: "memory",
    If: "control",
    While: "control",
}

#: Binary ops that return predicates and take operands uncoerced
#: (mirrors ``engine._CMP_LOGICAL``).
_CMP_LOGICAL = frozenset({"lt", "le", "gt", "ge", "eq", "ne", "land", "lor"})

#: op -> infix operator producing exactly the interpreter's numpy call.
_INFIX = {
    "add": "+", "sub": "-", "mul": "*", "mod": "%",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}

#: op -> helper-function symbol in the generated namespace.
_FUNC = {
    "div": "_div",
    "idiv": "_floor_div",
    "min": "_minimum",
    "max": "_maximum",
    "land": "_logical_and",
    "lor": "_logical_or",
}

# boolness lattice for eliding _coerce_bool on operands whose values
# are statically known (not) to be predicates.
_BOOL, _NONBOOL, _UNKNOWN = "bool", "nonbool", "unknown"


def _is_uniform(value):
    """True when ``value`` is a lane-uniform zero-stride broadcast view
    (every element aliases one memory word, so one element stands for
    the whole block)."""
    return (
        isinstance(value, np.ndarray)
        and value.ndim
        and not any(value.strides)
    )


def _vcore(value):
    """Smallest view covering every distinct element of ``value``:
    zero-stride (broadcast) axes collapse to length 1. A (block,
    thread)-shaped view that is uniform along threads reduces to its
    (block, 1) column — reductions and arithmetic on the core touch
    each distinct word once instead of once per alias."""
    if 0 in value.strides:
        return value[
            tuple(slice(None) if s else slice(0, 1) for s in value.strides)
        ]
    return value


# ---------------------------------------------------------------------
# generated-code runtime helpers
# ---------------------------------------------------------------------


def _rd(state, name, disp):
    """Register read with the engines' exact unwritten-register error."""
    try:
        return state.regs[name]
    except KeyError:
        raise SimulationError(
            f"kernel {state.kernel.name!r}: read of unwritten "
            f"register {disp}"
        ) from None


def _dn(value):
    """Downgrade a broadcast view to its cheapest equivalent form so
    in-region arithmetic touches each distinct element once: fully
    uniform views become 0-d scalars, views uniform along some axes
    (e.g. a per-block value broadcast across threads) keep only one
    slice per broadcast axis. numpy broadcasting restores the full
    logical shape whenever a core meets a full-width operand."""
    if isinstance(value, np.ndarray) and value.ndim and 0 in value.strides:
        if not any(value.strides):
            return np.array(value.flat[0])
        return _vcore(value)
    return value


#: dtype -> promotion target, or None when already canonical (avoids
#: a no-op ``astype`` call per store on the hot path).
_DT_CANON = {}


def _bx(state, value):
    """Store-normalize a chained value exactly like ``_write``'s
    full-mask path: full block shape, promoted register dtype. 0-d and
    reduced-core results become zero-stride views — free to create,
    free for the next region to downgrade again."""
    dt = value.dtype
    try:
        tgt = _DT_CANON[dt]
    except KeyError:
        pd = _promote_dtype(dt)
        tgt = _DT_CANON[dt] = None if pd == dt else pd
    if tgt is not None:
        value = value.astype(tgt, copy=False)
    if value.shape != state.shape:
        value = np.broadcast_to(value, state.shape)
    return value


def _af(state, name, stored, a, b):
    """Record affine provenance ``stored = base + offset`` for a just-
    stored register when one addend is a full-shape non-broadcast array
    and the other a lane-uniform integer. A loop-carried gather index
    (``idx = base + trip * stride``) re-derives the same base every
    iteration; the provenance lets :func:`_c_ld_global_fast` analyze
    the base once and replay bounds/transactions per offset. Consumers
    must check ``state.regs[name] is stored`` — any later write
    invalidates the record by breaking that identity."""
    off = None
    if isinstance(b, (int, np.integer)):
        off, base = int(b), a
    elif isinstance(b, np.ndarray) and b.ndim == 0 and b.dtype.kind in "iu":
        off, base = int(b), a
    elif isinstance(a, (int, np.integer)):
        off, base = int(a), b
    elif isinstance(a, np.ndarray) and a.ndim == 0 and a.dtype.kind in "iu":
        off, base = int(a), b
    if (
        off is not None
        and isinstance(base, np.ndarray)
        and base.shape == stored.shape
        and base.dtype == stored.dtype
    ):
        state._cache[("af", name)] = (stored, base, off)
    else:
        state._cache.pop(("af", name), None)


def _sp(state, kind):
    """Special-register read in reduced-core form.

    Values match ``state._special(kind)`` element for element (same
    int64 dtype), but carry only the distinct elements: ``ntid`` /
    ``nctaid`` are 0-d, ``ctaid`` is the (blocks, 1) block-id column,
    ``tid``/``laneid``/``warpid`` are one (1, threads) row. Derived
    values (trip counts, tile starts) then stay reduced through whole
    regions, which is what keeps a tiled loop's per-block bookkeeping
    at O(blocks) instead of O(blocks * threads). ``_bx`` restores full
    shape on store."""
    key = ("sp0", kind)
    value = state._cache.get(key)
    if value is None:
        lanes = np.arange(state.nthreads, dtype=np.int64)
        if kind == "ntid":
            value = np.array(state.nthreads, dtype=np.int64)
        elif kind == "nctaid":
            value = np.array(state.step.grid, dtype=np.int64)
        elif kind == "ctaid":
            value = state.block_ids[:, None]
        elif kind == "tid":
            value = lanes[None, :]
        elif kind == "laneid":
            value = (lanes % WARP)[None, :]
        elif kind == "warpid":
            value = (lanes // WARP)[None, :]
        else:
            value = state._special(kind)  # same unknown-kind error
        state._cache[key] = value
    return value


def _lp(state, name):
    """Kernel-parameter read as a 0-d array: ``np.full(shape, v)`` and
    ``np.array(v)`` have identical dtype and per-element value, so the
    uniform form is exact; ``_bx`` restores the full shape on store."""
    key = ("param0", name)
    value = state._cache.get(key)
    if value is None:
        value = np.array(state.step.args[name])
        state._cache[key] = value
    return value


def _wc(state, reg, value, mask):
    """Masked register merge with a column-structured fast path.

    Semantics of ``state._write`` under a partial mask, specialized:
    when the mask activates the same columns in every block row and
    both the incoming value and the current register contents are
    block-uniform, the engine's full copy + fancy-index merge
    (O(lanes)) collapses to one ``np.where`` over a single row,
    re-broadcast as a zero-stride view — which also keeps the register
    block-uniform, so downstream column fast paths (Ifs, shared
    memory, further merges) stay engaged through a divergent tail.
    The merge dtype is forced to ``result_type(current, value)``
    exactly as ``_write`` computes it. Anything not provably
    block-uniform defers to ``state._write`` unchanged."""
    row = _col_row(state, mask)
    if row is not None:
        v = np.asarray(value)
        vrow = _row_core(state, v)
        if vrow is not None:
            current = state.regs.get(reg.name)
            if current is None:
                out = vrow.astype(_promote_dtype(v.dtype), copy=False)
                state.regs[reg.name] = np.broadcast_to(out, state.shape)
                return
            crow = _row_core(state, current)
            if crow is not None:
                merged_dtype = np.result_type(current.dtype, v.dtype)
                merged = np.where(row, vrow, crow)
                if merged.dtype != merged_dtype:
                    merged = merged.astype(merged_dtype)
                state.regs[reg.name] = np.broadcast_to(merged, state.shape)
                return
    state._write(reg, value, mask)


#: Shared globals for every generated region function.
_BASE_NAMESPACE = {
    "np": np,
    "_rd": _rd,
    "_dn": _dn,
    "_bx": _bx,
    "_af": _af,
    "_sp": _sp,
    "_lp": _lp,
    "_wc": _wc,
    "_0d": np.asarray,
    "_cb": _coerce_bool,
    "_div": _div,
    "_floor_div": np.floor_divide,
    "_minimum": np.minimum,
    "_maximum": np.maximum,
    "_logical_and": np.logical_and,
    "_logical_or": np.logical_or,
    "_logical_not": np.logical_not,
    "_neg": _UNOP_IMPL["neg"],
    "_bnot": _UNOP_IMPL["bnot"],
    "_where": np.where,
}


# ---------------------------------------------------------------------
# region mega-expression codegen
# ---------------------------------------------------------------------


class _RegionCodegen:
    """Synthesize one Python function executing a fused ALU region."""

    def __init__(self, kernel_name, instrs, index, visible=None):
        self.kernel_name = kernel_name
        self.instrs = instrs
        self.index = index
        self.visible = visible  # reg names readable outside this region
        self.fast = []          # fast-path lines (all lanes active)
        self.slow = []          # slow-path lines (masked per-instr writes)
        self.ns = dict(_BASE_NAMESPACE)
        self.binding = {}       # reg -> (fast symbol, boolness)
        self.livein = {}        # reg -> fast local symbol
        self.affine = {}        # reg -> (addend sym, addend sym)
        self.dead_stores = 0
        self.counter = 0

    def _sym(self, prefix="_v"):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _const(self, value):
        """Source literal for an Imm (namespace constant for non-finite
        floats, whose repr is not valid Python)."""
        if isinstance(value, float) and not math.isfinite(value):
            sym = self._sym("_K")
            self.ns[sym] = value
            return sym
        return repr(value)

    def _operand(self, operand):
        """Return ``(fast_expr, slow_expr, boolness, is_array)``."""
        if isinstance(operand, Imm):
            lit = self._const(operand.value)
            boolness = _BOOL if isinstance(operand.value, bool) else _NONBOOL
            return lit, lit, boolness, False
        name = operand.name
        bound = self.binding.get(name)
        if bound is not None:
            sym, boolness = bound
            return sym, f"_dn(_regs[{name!r}])", boolness, True
        # live-in: load (fast path) at first use, preserving the
        # interpreter's unwritten-register error order; downgrade
        # lane-uniform views to 0-d so chained math stays scalar.
        # The slow path downgrades too: expressions on reduced cores
        # yield core-shaped results the masked merge can keep as
        # block-uniform broadcast views (see ``_wc``).
        sym = self.livein.get(name)
        read = f"_rd(state, {name!r}, {str(operand)!r})"
        if sym is None:
            sym = self._sym("_li")
            self.livein[name] = sym
            self.fast.append(f"{sym} = _dn({read})")
        return sym, f"_dn({read})", _UNKNOWN, True

    def _coerced(self, operand):
        """Operand exprs under C arithmetic semantics (bools as 0/1);
        also returns the raw (uncoerced) fast symbol for provenance."""
        fast, slow, boolness, is_array = self._operand(operand)
        raw = fast
        if boolness != _NONBOOL:
            fast = f"_cb({fast})"
        slow = f"_cb({slow})"
        return fast, slow, is_array, raw

    def _emit(self, instr, fast_expr, slow_expr, boolness, is_array):
        dst = instr.dst
        self.affine.pop(dst.name, None)
        if not is_array:
            # All-Imm result: wrap to a 0-d array immediately so chained
            # arithmetic wraps/overflows at the register dtype (a python
            # int would carry arbitrary precision through the region).
            fast_expr = f"_0d({fast_expr})"
        sym = self._sym()
        self.fast.append(f"{sym} = {fast_expr}")
        rsym = f"_R{len(self.ns)}"
        self.ns[rsym] = dst
        self.slow.append(f"_wc(state, {rsym}, {slow_expr}, mask)")
        self.binding[dst.name] = (sym, boolness)

    def _gen_instr(self, instr):
        cls = type(instr)
        if cls is BinOp:
            if instr.op in _CMP_LOGICAL:
                fa, sa, _, aa = self._operand(instr.a)
                fb, sb, _, ab = self._operand(instr.b)
                boolness = _BOOL
            else:
                fa, sa, aa, ra = self._coerced(instr.a)
                fb, sb, ab, rb = self._coerced(instr.b)
                boolness = _NONBOOL
            op = _INFIX.get(instr.op)
            if op is not None:
                fast = f"({fa}) {op} ({fb})"
                slow = f"({sa}) {op} ({sb})"
            else:
                fn = _FUNC[instr.op]
                fast = f"{fn}({fa}, {fb})"
                slow = f"{fn}({sa}, {sb})"
            self._emit(instr, fast, slow, boolness, aa or ab)
            if instr.op == "add" and (aa or ab):
                self.affine[instr.dst.name] = (ra, rb)
        elif cls is UnOp:
            fa, sa, _, is_array = self._operand(instr.a)
            if instr.op == "lnot":
                fn, boolness = "_logical_not", _BOOL
            else:  # neg / bnot wrap np.asarray(_coerce_bool(.)) themselves
                fn = "_neg" if instr.op == "neg" else "_bnot"
                boolness = _NONBOOL
            self._emit(
                instr, f"{fn}({fa})", f"{fn}({sa})", boolness, is_array
            )
        elif cls is Mov:
            fa, sa, boolness, is_array = self._operand(instr.a)
            self._emit(instr, fa, sa, boolness, is_array)
        elif cls is Sel:
            fc, sc, _, _ = self._operand(instr.cond)
            fa, sa, ba, aa = self._operand(instr.a)
            fb, sb, bb, ab = self._operand(instr.b)
            boolness = ba if ba == bb else _UNKNOWN
            self._emit(
                instr,
                f"_where({fc}, {fa}, {fb})",
                f"_where({sc}, {sa}, {sb})",
                boolness,
                aa or ab,
            )
        elif cls is Special:
            fast = f"_sp(state, {instr.kind!r})"
            slow = f"_bx(state, {fast})"  # _write expects full shape
            self._emit(instr, fast, slow, _NONBOOL, True)
        elif cls is LdParam:
            fast = f"_lp(state, {instr.name!r})"
            slow = f"_bx(state, {fast})"
            self._emit(instr, fast, slow, _UNKNOWN, True)
        else:  # pragma: no cover - region former only feeds FUSIBLE_OPS
            raise SimulationError(f"cannot fuse {cls.__name__}")

    def build(self):
        for instr in self.instrs:
            self._gen_instr(instr)
        stores = []
        for name, (sym, _) in self.binding.items():
            # Dead-store elimination: a register no instruction outside
            # this region can observe (not a live-in of any region, not
            # an operand of any boundary/control instruction) need not
            # reach the register file on the fast path. The slow path
            # still writes it — interpreter-exact under masks — and any
            # visible read keeps the store, so the skip is unobservable.
            if self.visible is not None and name not in self.visible:
                self.dead_stores += 1
                continue
            aff = self.affine.get(name)
            if aff is None:
                stores.append(f"_regs[{name!r}] = _bx(state, {sym})")
            else:
                ssym = self._sym("_s")
                stores.append(
                    f"{ssym} = _regs[{name!r}] = _bx(state, {sym})"
                )
                stores.append(
                    f"_af(state, {name!r}, {ssym}, {aff[0]}, {aff[1]})"
                )
        body = ["_regs = state.regs", "if state._cur_all:"]
        body += [f"    {line}" for line in self.fast + stores]
        body += ["else:"]
        body += [f"    {line}" for line in self.slow]
        body.append(
            f"state.events['inst.alu'] += "
            f"{len(self.instrs)} * state._cur_warps"
        )
        src = "def _region(state, mask):\n" + "".join(
            f"    {line}\n" for line in body
        )
        code = compile(
            src, f"<fused:{self.kernel_name}:{self.index}>", "exec"
        )
        exec(code, self.ns)
        fn = self.ns["_region"]
        fn._instrs = list(self.instrs)
        fn._source = src
        return fn


# ---------------------------------------------------------------------
# specialized control-flow closures
# ---------------------------------------------------------------------


def _col_row(state, mask):
    """One row of a column-structured mask, or None.

    A mask is column-structured when every block row activates the same
    columns — trivially true under a full mask, and detectable for free
    (zero block stride) on the broadcast views the column If/While
    paths pass down. Lane-indexed conditions (``tid``/``laneid``/
    ``warpid`` comparisons) always produce such masks, so the whole
    divergent tail of a reduction runs on one (threads,)-row."""
    if state._cur_all:
        row = state._cache.get(("fullrow",))
        if row is None:
            row = np.ones(state.nthreads, dtype=bool)
            state._cache[("fullrow",)] = row
        return row
    if mask.strides[0] == 0:
        return mask[0]
    return None


def _row_core(state, value):
    """Per-column row of a value uniform along the block axis (0-d, or
    a zero-block-stride broadcast view); None otherwise."""
    value = np.asarray(value)
    if value.ndim == 0:
        return np.broadcast_to(value, (state.nthreads,))
    core = _vcore(value)
    if (
        core.ndim == 2
        and core.shape[0] == 1
        and core.shape[1] == state.nthreads
    ):
        return core[0]
    return None


#: Replay totals keyed by the (tiny) active-lane/address pattern; the
#: same shared-op closures replay identical patterns every launch, so
#: the unique/bincount pipeline runs once per pattern, not per call.
_ROW_REPLAY_MEMO = {}


def _row_replays(state, cols, addrs):
    """Bank replays of one block row, scaled by the block count.

    Every block row has the same active columns and addresses, and the
    engine's replay groups (block, warp) never span blocks — so the
    per-block totals are identical and the ``np.unique`` over all
    active lanes collapses to one over a single row's actives."""
    key = (state.nthreads, cols.tobytes(), addrs.tobytes())
    total = _ROW_REPLAY_MEMO.get(key)
    if total is None:
        gidr = state._warp_of_lane[cols]
        span = int(addrs.max()) + 1
        unique_keys = np.unique(gidr * span + addrs)
        ugroup = unique_keys // span
        ubank = (unique_keys % span) % 32
        ngroups = int(ugroup[-1]) + 1
        counts = np.bincount(
            ugroup * 32 + ubank, minlength=ngroups * 32
        ).reshape(ngroups, 32)
        present = counts.any(axis=1)
        total = int(counts.max(axis=1)[present].sum()) - int(present.sum())
        if len(_ROW_REPLAY_MEMO) < 4096:
            _ROW_REPLAY_MEMO[key] = total
    if total:
        state.events["mem.shared.replays"] += total * state.nblocks


def _fuse_loop(kernel_name, index, instr, cond_trace, body_trace):
    """Megafuse an eligible While into one generated Python loop.

    Eligibility: the fused condition trace is regions only, the fused
    body is regions and specialized width-1 global loads — i.e. the
    loop body provably cannot change the mask or touch shared memory.
    The generated function then keeps every register in SSA locals
    across iterations and defers all register-file traffic to loop
    exit, which removes the per-iteration store-normalize / provenance
    / live-in-reload ABI the region closures pay at their boundaries:

    * live-ins that are read before any in-loop write load **once**
      before the loop; registers rebound in-loop carry their latest
      SSA value back to the live-in symbol at the end of each body;
    * a gather index produced by an affine add and consumed only by
      one load is never materialized — the load resolves ``base +
      offset`` directly (:func:`_ld_affine_attempt`), and only on a
      miss does the generated code compute the index, flush it, and
      call the original load closure;
    * the exit flush writes condition-phase registers always (the
      condition runs once more than the body) and body-phase registers
      only when at least one iteration ran, matching the interpreter's
      final register file exactly.

    The function returns ``None`` on a clean (uniform-false) exit and
    ``(cond, iterations)`` on the first mixed condition, where the
    caller resumes the engine-exact divergent continuation. Event
    counts (``inst.alu`` per phase evaluation, load counters inside
    the load paths) replicate the region closures' totals.
    """
    cond_instrs = []
    for closure in cond_trace:
        instrs = getattr(closure, "_instrs", None)
        if instrs is None:
            return None
        cond_instrs.extend(instrs)
    if not cond_instrs or not isinstance(instr.cond, Reg):
        return None
    segments = []  # ("alu", instr, None) | ("ld", instr, closure)
    for closure in body_trace:
        instrs = getattr(closure, "_instrs", None)
        if instrs is not None:
            segments.extend(("alu", i, None) for i in instrs)
        elif (
            getattr(closure, "_specialized", None) == "ld_global"
            and closure._instr.width == 1
            and isinstance(closure._instr.idx, Reg)
        ):
            segments.append(("ld", closure._instr, closure))
        else:
            return None

    # Read/write stream over one iteration: condition instructions,
    # the While condition read, then the body. Drives the read-count
    # (for lazy index elision), the set of written names (carries,
    # flush phases) and the pre-loop live-in loads (any name read
    # before its first in-loop write — later reads then never touch
    # the stale register file mid-loop).
    body_instrs = [seg[1] for seg in segments]
    stream = []
    for i in cond_instrs:
        stream.extend(("r", op) for op in _reg_operand_objs(i))
        stream.append(("w", i.dst))
    stream.append(("r", instr.cond))
    for i in body_instrs:
        stream.extend(("r", op) for op in _reg_operand_objs(i))
        stream.append(("w", i.dst))
    reads = {}
    written_names = set()
    preload = []
    seen_preload = set()
    for ev, op in stream:
        if ev == "w":
            written_names.add(op.name)
        else:
            reads[op.name] = reads.get(op.name, 0) + 1
            if op.name not in written_names and op.name not in seen_preload:
                preload.append(op)
                seen_preload.add(op.name)

    # An index register is lazily elidable when its only read anywhere
    # in the loop is one load's idx and its producer is the last body
    # write before that load.
    lazy_lds = set()
    last_def = {}
    for kind, bi, _ in segments:
        if kind == "ld":
            producer = last_def.get(bi.idx.name)
            if producer is not None and reads.get(bi.idx.name, 0) == 1:
                lazy_lds.add(id(bi))
        last_def[bi.dst.name] = bi

    g = _RegionCodegen(kernel_name, [], f"{index}-loop", visible=None)
    ns = g.ns
    ns["_vcore"] = _vcore
    ns["SimulationError"] = SimulationError
    for op in preload:
        g._operand(op)  # emits the live-in load at position 0..n
    preload_end = len(g.fast)
    for i in cond_instrs:
        g._gen_instr(i)
    csym, _, _, _ = g._operand(instr.cond)
    cond_end = len(g.fast)
    cond_syms = _lhs_syms(g.fast[preload_end:cond_end])
    livein_names = {sym: name for name, sym in g.livein.items()}
    cond_binding = dict(g.binding)

    def _stable(sym):
        # May the symbol be re-read at loop exit / inside a later
        # fallback with the value the producer saw? Condition-phase
        # symbols are reassigned by the final (exit) evaluation and
        # carried live-ins by the body-end carry, so neither is
        # stable; body SSA symbols, un-carried live-ins and literals
        # never change after the producing body ran.
        if sym in cond_syms:
            return False
        name = livein_names.get(sym)
        return name is None or name not in written_names

    lazy_flush = {}  # idx reg name -> deferred assignment line
    n_ld = 0
    for kind, bi, closure in segments:
        if kind == "alu":
            g._gen_instr(bi)
            continue
        idxname = bi.idx.name
        dstname = bi.dst.name
        aff = g.affine.get(idxname)
        deferred = None
        if (
            id(bi) in lazy_lds
            and aff is not None
            and _stable(aff[0])
            and _stable(aff[1])
        ):
            deferred = g.fast.pop()
            lazy_flush[idxname] = deferred
        fsym = f"_ldc{n_ld}"
        ns[fsym] = closure
        tsym = g._sym("_t")
        if aff is not None:
            asym = f"_lda{n_ld}"
            ns[asym] = _make_ld_attempt(bi.buf)
            g.fast.append(
                f"{tsym} = {asym}(state, mask, {aff[0]}, {aff[1]})"
            )
            g.fast.append(f"if {tsym} is None:")
            fallback = []
            if deferred is not None:
                fallback.append(deferred)
            isym = g.binding[idxname][0]
            fallback.append(f"_regs[{idxname!r}] = _bx(state, {isym})")
            fallback.append(f"{fsym}(state, mask)")
            fallback.append(f"{tsym} = _regs[{dstname!r}]")
            g.fast.extend("    " + line for line in fallback)
        else:
            bound = g.binding.get(idxname)
            if bound is not None:
                g.fast.append(
                    f"_regs[{idxname!r}] = _bx(state, {bound[0]})"
                )
            g.fast.append(f"{fsym}(state, mask)")
            g.fast.append(f"{tsym} = _regs[{dstname!r}]")
        g.affine.pop(dstname, None)
        g.binding[dstname] = (tsym, _UNKNOWN)
        n_ld += 1
    body_end = len(g.fast)

    # Exit flush: condition-phase registers hold the final (exit)
    # evaluation's values; registers last written in the body hold the
    # last completed iteration's — which only exists once a body ran.
    flush_always = []
    flush_body = []
    for name, (sym, _) in g.binding.items():
        cond_bound = cond_binding.get(name)
        if cond_bound is not None:
            # The condition phase runs once more than the body, so its
            # write is the final value even for registers the body
            # also rebinds.
            flush_always.append(
                f"_regs[{name!r}] = _bx(state, {cond_bound[0]})"
            )
        else:
            line = lazy_flush.get(name)
            if line is not None:
                flush_body.append(line)
            flush_body.append(f"_regs[{name!r}] = _bx(state, {sym})")
    carries = []
    for name, lisym in g.livein.items():
        bound = g.binding.get(name)
        if bound is not None:
            carries.append(f"{lisym} = {bound[0]}")

    lines = ["_regs = state.regs", "ev = state.events",
             "_W = state._cur_warps", "_cap = state.executor.loop_cap",
             "_it = 0"]
    lines.append("def _fl():")
    for line in flush_always:
        lines.append("    " + line)
    lines.append("    if _it:")
    for line in flush_body or ["pass"]:
        lines.append("        " + line)
    lines.extend(g.fast[:preload_end])
    lines.append("while True:")
    for line in g.fast[preload_end:cond_end]:
        lines.append("    " + line)
    lines.append(f"    ev['inst.alu'] += {len(cond_instrs)} * _W")
    lines.append(f"    _c = {csym}")
    lines.append("    if isinstance(_c, np.ndarray) and _c.ndim:")
    lines.append("        _u = _vcore(_c)")
    lines.append("        if not _u.all():")
    lines.append("            _fl()")
    lines.append("            if _u.any():")
    lines.append("                return (_c, _it)")
    lines.append("            return None")
    lines.append("    elif not _c:")
    lines.append("        _fl()")
    lines.append("        return None")
    lines.append("    _it += 1")
    lines.append("    if _it > _cap:")
    lines.append("        _fl()")
    lines.append("        raise SimulationError(")
    lines.append("            f\"kernel {state.kernel.name!r}: loop "
                 "exceeded \"")
    lines.append("            f\"iteration cap ({_cap})\"")
    lines.append("        )")
    for line in g.fast[cond_end:body_end]:
        lines.append("    " + line)
    n_body_alu = sum(1 for k, _, _ in segments if k == "alu")
    if n_body_alu:
        lines.append(f"    ev['inst.alu'] += {n_body_alu} * _W")
    for line in carries:
        lines.append("    " + line)
    src = "def _loop(state, mask):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    code = compile(src, f"<fused:{kernel_name}:{index}-loop>", "exec")
    exec(code, ns)
    fn = ns["_loop"]
    fn._source = src
    return fn


def _lhs_syms(lines):
    """Symbols assigned by generated fast-path lines."""
    out = set()
    for line in lines:
        stripped = line.strip()
        eq = stripped.find(" = ")
        if eq > 0:
            lhs = stripped[:eq]
            if lhs.startswith("_") and lhs.isidentifier():
                out.add(lhs)
    return out


def _reg_operand_objs(instr):
    for field_name in _OPERAND_FIELDS:
        operand = getattr(instr, field_name, None)
        if isinstance(operand, Reg):
            yield operand


def _while_divergent_continue(
    state, mask, cond, iterations, cond_trace, body_trace, cond_read
):
    """Divergent continuation of a fast While — the engine's
    ``_exec_while_c`` body with the iteration count carried over;
    ``cond`` is already evaluated.  While the condition stays
    block-uniform (same columns active in every block row, e.g. a
    ``tid < k`` guard), the active mask is kept as a broadcast view of
    one row: the divergence reduceats accept views, and downstream
    closures (shared ops, Ifs) see the zero block stride and take
    their column paths."""
    cap = state.executor.loop_cap
    row_active = np.ones(state.nthreads, dtype=bool)
    active = mask
    while True:
        cond = np.asarray(cond, dtype=bool)
        rowc = None if row_active is None else _row_core(state, cond)
        if rowc is not None:
            row_active = row_active & rowc
            staying = np.broadcast_to(row_active, state.shape)
        else:
            row_active = None
            if cond.shape != state.shape:
                cond = np.broadcast_to(cond, state.shape)
            staying = active & cond
        state._count_loop_divergence(active, staying)
        active = staying
        if not active.any():
            return
        iterations += 1
        if iterations > cap:
            raise SimulationError(
                f"kernel {state.kernel.name!r}: loop exceeded "
                f"iteration cap ({cap})"
            )
        state._run_trace(body_trace, active)
        state._run_trace(cond_trace, active)
        cond = cond_read(state)


def _c_while_fast(instr, cond_trace, body_trace, kernel_name=None, index=0):
    """While loop with the per-iteration mask machinery elided as long
    as the mask provably cannot change.

    Entered only under a full mask (``state._cur_all``); then the
    engine's per-iteration ``_run_trace`` save/recompute of the warp
    counters is an identity, so the loop runs the sub-trace closures
    directly. While the condition is uniformly true no lane exits
    (``_count_loop_divergence`` would early-return without an event);
    uniformly false means every lane exits together (no lane stays, so
    divergence is skipped there too). Uniformity is decided on the
    condition's reduced core (``_vcore``), so a per-block trip count
    broadcast across threads costs an O(blocks) reduction per
    iteration, and even a fully materialized all-true condition skips
    the engine's mask bookkeeping for one ``.all()``. The first mixed
    condition falls back to the engine's exact loop — same ``staying``
    masks, same divergence events, same iteration-cap error — with the
    iteration counter carried over.
    """
    cond_read = _reader(instr.cond)
    genloop = None
    if kernel_name is not None:
        genloop = _fuse_loop(kernel_name, index, instr, cond_trace, body_trace)

    def run(state, mask):
        if not state._cur_all:
            state._exec_while_c(cond_trace, cond_read, body_trace, mask)
            return
        cap = state.executor.loop_cap
        if genloop is not None and state.san is None:
            res = genloop(state, mask)
            if res is None:
                return
            cond, iterations = res
        else:
            iterations = 0
            while True:
                for fn in cond_trace:
                    fn(state, mask)
                cond = cond_read(state)
                if isinstance(cond, np.ndarray) and cond.ndim:
                    core = _vcore(cond)
                    if not core.all():
                        if not core.any():
                            return  # every lane exits together
                        break  # mixed condition: engine loop from here
                elif not cond:
                    return  # scalar condition, uniformly false
                iterations += 1
                if iterations > cap:
                    raise SimulationError(
                        f"kernel {state.kernel.name!r}: loop exceeded "
                        f"iteration cap ({cap})"
                    )
                for fn in body_trace:
                    fn(state, mask)
        from ..obs.fragments import note_fallback

        note_fallback(state, "fused.loop", "divergent-continue")
        _while_divergent_continue(
            state, mask, cond, iterations, cond_trace, body_trace,
            cond_read,
        )

    run._cond_trace = cond_trace
    run._body_trace = body_trace
    run._instr = instr
    run._loop_fused = genloop is not None
    return run


def _window_bounds(row):
    """``(c0, c1)`` of a contiguous warp-aligned run of active columns,
    or None. The run must start on a warp boundary and end on one (or at
    the row's end, covering a ragged last warp) so per-warp statistics
    — event counts, transaction groups, shuffle segments — computed
    inside the window line up with the engine's full-row groups."""
    idx = np.flatnonzero(row)
    if idx.size == 0:
        return None
    c0, c1 = int(idx[0]), int(idx[-1]) + 1
    if c1 - c0 != idx.size:
        return None  # holes: not a contiguous run
    if c0 % WARP or (c1 % WARP and c1 != row.size):
        return None
    return c0, c1


def _run_windowed(state, trace, c0, c1):
    """Execute ``trace`` on the column window ``[c0, c1)`` of ``state``
    at full-active speed, then merge written registers back.

    A branch guarded by a lane-index comparison (``tid < 32``, the
    divergent tail of every reduction) activates the same few warp-
    aligned columns in every block row. The engine runs such a branch
    over the whole ``(blocks, threads)`` arrays with a partial mask —
    one defensive copy plus a fancy-index merge per register write, on
    8-32x more lanes than are active. This instead builds a shallow
    *window substate* whose registers are ``[:, c0:c1]`` views, whose
    lane bookkeeping (``tid``/``laneid``/``warpid`` caches, warp starts,
    per-warp group ids) carries the original lane identities, and runs
    the sub-trace under a full mask — every closure takes its all-active
    fast path on arrays ``width/(c1-c0)`` times smaller.

    Exactness: window columns cover whole warps, so per-warp event
    counts, transaction segments, bank-replay groups and shuffle
    sources (width <= 32 never crosses a covered warp) are the engine's
    bit for bit; bounds errors see exactly the active lanes' indices;
    shared memory, global memory, events and atomic tracking are the
    parent's own objects. Registers merge back like one masked write
    per *final* value (the engine merges per instruction, but only the
    last merge is observable). A register created inside the window
    holds zeros outside it where the engine's vectorized execution
    leaves whatever the full-width computation produced — both are
    "undefined on HW" values no valid kernel reads back; the masked
    width-1 load (the one common creator) zero-fills inactive lanes in
    the engine too.
    """
    nblocks, nthreads = state.shape
    for arr in state.regs.values():
        if not isinstance(arr, np.ndarray) or arr.shape != state.shape:
            return False  # unexpected register layout: let the caller mask
    w = c1 - c0
    sub = copy.copy(state)
    sub.nthreads = w
    sub.shape = (nblocks, w)
    sub.nwarps = (w + WARP - 1) // WARP
    sub._warp_of_lane = state._warp_of_lane[c0:c1]
    sub._warp_starts = np.arange(0, w, WARP)
    sub._brow = state._brow[:, c0:c1]
    sub._gid = state._gid[:, c0:c1]
    sub._cur_warps = None
    sub._cur_all = None
    lanes = np.arange(c0, c1, dtype=np.int64)
    sub._cache = {
        ("sp0", "tid"): lanes[None, :],
        ("sp0", "laneid"): (lanes % WARP)[None, :],
        ("sp0", "warpid"): (lanes // WARP)[None, :],
        ("sp0", "ntid"): np.array(nthreads, dtype=np.int64),
        ("sp0", "nctaid"): np.array(state.step.grid, dtype=np.int64),
        ("sp0", "ctaid"): state.block_ids[:, None],
    }
    views = {name: arr[:, c0:c1] for name, arr in state.regs.items()}
    sub.regs = dict(views)
    sub._run_trace(trace, np.ones(sub.shape, dtype=bool))
    for name, value in sub.regs.items():
        if views.get(name) is value:
            continue
        base = state.regs.get(name)
        if base is None:
            out = np.zeros(state.shape, dtype=value.dtype)
        else:
            out = np.array(base, dtype=np.result_type(base.dtype, value.dtype))
        out[:, c0:c1] = value
        state.regs[name] = out
    return True


def _c_if_fast(instr, then_trace, else_trace):
    """If with a shortcut for value-uniform conditions: the whole block
    takes one side, no warp can diverge (the engine's reduceat over the
    empty side is identically zero), and the taken side runs under the
    unchanged current mask. Uniformity is decided over *all* lanes on
    the condition's reduced core (``_vcore``), which makes the
    shortcut mask-independent: when every lane agrees, ``mask & cond``
    is ``mask`` itself or empty, whatever the mask. Genuinely mixed
    conditions use the engine path.
    """
    cond_read = _reader(instr.cond)
    has_else = bool(instr.otherwise)

    def run(state, mask):
        cond = cond_read(state)
        if isinstance(cond, np.ndarray) and cond.ndim:
            core = _vcore(cond)
            if core.all():
                taken = True
            elif not core.any():
                taken = False
            else:
                # Mixed but block-uniform condition under a column-
                # structured mask: split one row instead of the whole
                # block, count warp divergence on that row and scale by
                # the block count (every row splits identically), and
                # hand the sides broadcast-view masks so nested
                # closures keep their column fast paths.
                row = _col_row(state, mask)
                rowc = None if row is None else _row_core(state, cond)
                if rowc is None:
                    state._exec_if_c(
                        cond_read, then_trace, else_trace, has_else, mask
                    )
                    return
                rowc = np.asarray(rowc, dtype=bool)
                then_row = row & rowc
                else_row = row & ~rowc
                starts = state._warp_starts
                divergent = int(np.count_nonzero(
                    np.bitwise_or.reduceat(then_row, starts)
                    & np.bitwise_or.reduceat(else_row, starts)
                )) * state.nblocks
                if divergent:
                    state.events["branch.divergent"] += divergent
                for side_trace, side_row in (
                    (then_trace, then_row),
                    (else_trace, else_row) if has_else else (None, None),
                ):
                    if side_trace is None or not side_row.any():
                        continue
                    win = (
                        _window_bounds(side_row)
                        if state.san is None
                        else None
                    )
                    if not (
                        win is not None
                        and win[1] - win[0] < state.nthreads
                        and _run_windowed(state, side_trace, *win)
                    ):
                        state._run_trace(
                            side_trace,
                            np.broadcast_to(side_row, state.shape),
                        )
                return
        else:
            taken = bool(cond)
        if taken:
            for fn in then_trace:
                fn(state, mask)
        elif has_else:
            for fn in else_trace:
                fn(state, mask)

    run._then_trace = then_trace
    run._else_trace = else_trace
    run._instr = instr
    return run


# ---------------------------------------------------------------------
# specialized boundary closures
# ---------------------------------------------------------------------


def _shfl_source_lanes(mode, width, offset, nthreads):
    """Per-lane source map for a uniform-offset shuffle — the exact
    math of ``_shfl`` with the offset broadcast folded out. Returns
    None for modes the engine would reject (the caller then delegates
    so the error comes from one place)."""
    lanes = np.arange(nthreads, dtype=np.int64)
    sub = lanes % width
    base = lanes - sub
    off = np.asarray(offset)
    if mode == "down":
        target = sub + off
    elif mode == "up":
        target = sub - off
    elif mode == "xor":
        target = np.bitwise_xor(sub, off.astype(np.int64))
    elif mode == "idx":
        target = np.broadcast_to(off.astype(np.int64), lanes.shape)
    else:
        return None
    source = base + target
    valid = (target >= 0) & (target < width) & (source < nthreads)
    return np.where(valid, source, lanes).astype(np.int64)


def _c_shfl_fast(instr):
    """Shuffle with the source-lane map precomputed per (block size,
    offset value).

    Handles immediate offsets and value-uniform register offsets (the
    halving strides of a shuffle-tree loop). Uniformity is checked on
    the offset's reduced core; for a materialized offset under a full
    mask one value-equality scan replaces the engine's per-lane map
    rebuild. Under a partial mask only the *active* lanes' offsets
    reach the result (the masked ``_write`` merge discards the rest),
    so active-lane uniformity suffices — but only when the destination
    register already exists full-shape; a fresh destination stores the
    full per-lane result, inactive lanes included, and must take the
    engine path. Delegates to ``state._shfl`` — same results, same
    errors, same sanitizer hooks — whenever the fast preconditions
    fail: sanitizer attached, mixed offsets, unwritten or
    non-canonical source register, or the instruction mutated after
    fusion (the engine re-validates mode/width at execution time).
    """
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
    cache = {}

    def run(state, mask):
        if (
            state.san is not None
            or instr.mode is not mode0
            or instr.width != width0
            or instr.offset is not off_op
            or width0 not in _SHFL_WIDTHS
        ):
            state._shfl(instr, mask)
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
                    if state._cur_all:
                        core = _vcore(off)
                        if bool((core == core.flat[0]).all()):
                            offset = int(core.flat[0])
                    elif isinstance(
                        state.regs.get(dst.name), np.ndarray
                    ) and state.regs[dst.name].shape == state.shape:
                        act = off[mask]
                        if act.size and bool((act == act[0]).all()):
                            offset = int(act[0])
            if offset is None:
                state._shfl(instr, mask)
                return
        src = state.regs.get(src_name)
        if not isinstance(src, np.ndarray) or src.shape != state.shape:
            state._shfl(instr, mask)
            return
        key = (state.nthreads, offset)
        source_lane = cache.get(key)
        if source_lane is None:
            source_lane = _shfl_source_lanes(
                mode0, width0, offset, state.nthreads
            )
            if source_lane is None:
                state._shfl(instr, mask)
                return
            cache[key] = source_lane
        state._write(dst, src[:, source_lane], mask)
        state.events["inst.shfl"] += state._cur_warps

    run._specialized = "shfl"
    run._instr = instr
    return run


def _c_st_shared_fast(instr):
    """Shared store specialized for column-structured masks.

    Replicates ``_st_shared`` bit-for-bit when every block row
    activates the same columns and the address is block-uniform (a
    zero-block-stride view or scalar): bounds are checked on the
    per-row active addresses (same min/max, same error), races are
    impossible when those addresses are distinct within a block (the
    engine's race keys never span blocks), the scatter collapses to
    one column assignment, and bank replays come from one row scaled
    by the block count. Sanitizer runs, duplicate addresses (race /
    store-order semantics), and non-uniform shapes delegate."""
    idx_read = _reader(instr.idx)
    src_read = _reader(instr.src)
    buf = instr.buf

    def run(state, mask):
        row = None if state.san is not None else _col_row(state, mask)
        rowi = None if row is None else _row_core(state, idx_read(state))
        if rowi is None or rowi.dtype.kind not in "iu":
            state._st_shared(instr, mask)
            return
        cols = np.flatnonzero(row)
        addrs = rowi[cols]
        arr = state.shared[buf]
        lo = addrs.min()
        hi = addrs.max()
        if lo < 0 or hi >= arr.shape[1]:
            raise SimulationError(
                f"kernel {state.kernel.name!r}: out-of-bounds access to "
                f"shared buffer {buf!r} (size {arr.shape[1]}, index "
                f"range [{lo}, {hi}])"
            )
        if np.unique(addrs).size != addrs.size:
            state._st_shared(instr, mask)  # duplicate addrs: engine
            return                         # race check / store order
        src = np.asarray(src_read(state))
        if src.ndim == 0:
            arr[:, addrs] = np.float64(src)
        elif src.shape == state.shape:
            arr[:, addrs] = src[:, cols]
        else:
            state._st_shared(instr, mask)
            return
        state._count("inst.st.shared", mask)
        _row_replays(state, cols, addrs)

    run._instr = instr
    return run


def _c_ld_shared_fast(instr):
    """Shared load specialized for column-structured masks; same
    preconditions as :func:`_c_st_shared_fast` minus the duplicate-
    address delegation (gathers from one address are well-defined).
    The zero-fill + masked gather of the engine becomes a zero array
    plus one column assignment; the merge into the destination goes
    through ``state._write`` with the same mask, so inactive lanes
    keep their engine-exact values."""
    idx_read = _reader(instr.idx)
    buf = instr.buf

    def run(state, mask):
        row = None if state.san is not None else _col_row(state, mask)
        rowi = None if row is None else _row_core(state, idx_read(state))
        if rowi is None or rowi.dtype.kind not in "iu":
            state._ld_shared(instr, mask)
            return
        cols = np.flatnonzero(row)
        addrs = rowi[cols]
        arr = state.shared[buf]
        lo = addrs.min()
        hi = addrs.max()
        if lo < 0 or hi >= arr.shape[1]:
            raise SimulationError(
                f"kernel {state.kernel.name!r}: out-of-bounds access to "
                f"shared buffer {buf!r} (size {arr.shape[1]}, index "
                f"range [{lo}, {hi}])"
            )
        value = np.zeros(state.shape, dtype=np.float64)
        value[:, cols] = arr[:, addrs]
        state._write(instr.dst, value, mask)
        state._count("inst.ld.shared", mask)
        _row_replays(state, cols, addrs)

    run._instr = instr
    return run


def _ld_analyze_base(base, per_segment, cache):
    """Memoized analysis of an affine load base (the loop-invariant
    array under a ``base + offset`` index). ``cache`` is an id-keyed
    single-entry dict owned by the load site. Returns ``(base,
    per_segment, False)`` when the rows are not consecutive, else
    ``(base, per_segment, True, start0, lo0, hi0, warp_starts, shift,
    trans0, stride_or_0)`` — everything the per-offset replay needs."""
    info = cache.get(id(base))
    if info is not None and info[0] is base and info[1] == per_segment:
        return info
    consec = (
        base.shape[1] % 32 == 0
        and per_segment & (per_segment - 1) == 0
        and 0 not in base.strides
        and bool((base[:, 1:] == base[:, :-1] + 1).all())
    )
    if not consec:
        info = (base, per_segment, False)
    else:
        shift = per_segment.bit_length() - 1
        warp_starts = base[:, ::32].ravel()
        trans0 = int(
            ((warp_starts + 31 >> shift) - (warp_starts >> shift)).sum()
        ) + warp_starts.size
        starts = base[:, 0]
        nblocks = base.shape[0]
        stride = int(starts[1] - starts[0]) if nblocks > 1 else 0
        uniform = nblocks > 1 and stride > 0 and bool(
            (starts[1:] - starts[:-1] == stride).all()
        )
        info = (
            base, per_segment, True,
            int(starts[0]), int(base[:, 0].min()),
            int(base[:, -1].max()), warp_starts, shift, trans0,
            stride if uniform else 0,
        )
    cache.clear()
    cache[id(base)] = info
    return info


def _ld_affine_attempt(state, mask, buf, a, b, cache):
    """Gather ``buf[a + b]`` for a loop-fused load without ever
    materializing the index: one addend must be the loop-invariant 2-D
    int64 base, the other a lane-uniform non-negative signed integer.
    Returns the gathered float64 block (events recorded) or ``None``
    when the generated loop must fall back to the generic load closure
    (which first materializes the index into the register file).
    Raises the engine's exact out-of-bounds error when the shifted row
    ends fall outside the buffer — bounds come from the base's ends
    plus the offset, exactly as the elementwise index would."""
    base = off = None
    for x, y in ((a, b), (b, a)):
        if isinstance(y, np.ndarray):
            if y.ndim != 0 or y.dtype.kind != "i":
                continue
            y = int(y)
        elif isinstance(y, (int, np.signedinteger)) and not isinstance(
            y, bool
        ):
            y = int(y)  # 0-d int math yields numpy scalars
        else:
            continue
        if (
            isinstance(x, np.ndarray)
            and x.shape == state.shape
            and x.dtype == np.int64
            and 0 not in x.strides
        ):
            base, off = x, y
            break
    if base is None or off < 0:
        return None
    arr = state.device.get(buf)
    item = arr.dtype.itemsize
    per_segment = max(1, 128 // item)
    info = _ld_analyze_base(base, per_segment, cache)
    if not info[2]:
        return None
    (_, _, _, start0, lo0, hi0, warp_starts, shift, trans0, stride) = info
    if not stride or hi0 + off >= (1 << 63):
        return None  # no strided view, or the elementwise add would wrap
    lo = lo0 + off
    hi = hi0 + off
    if lo < 0 or hi >= len(arr):
        raise SimulationError(
            f"kernel {state.kernel.name!r}: out-of-bounds access to "
            f"global buffer {buf!r} (size {len(arr)}, index range "
            f"[{lo}, {hi}])"
        )
    if off % per_segment == 0:
        trans = trans0
    else:
        shifted = warp_starts + off
        trans = int(
            ((shifted + 31 >> shift) - (shifted >> shift)).sum()
        ) + warp_starts.size
    value = np.lib.stride_tricks.as_strided(
        arr[start0 + off:],
        shape=state.shape,
        strides=(stride * item, item),
    ).astype(np.float64)
    events = state.events
    events["mem.global.ld.trans"] += trans
    events["mem.global.bytes"] += trans * 128
    events["mem.global.bytes_useful"] += mask.size * item
    events["inst.ld.global"] += state._cur_warps
    return value


def _make_ld_attempt(buf):
    """Bind an affine-attempt helper to one load site (own analysis
    cache) for use from generated loop code."""
    cache = {}

    def attempt(state, mask, a, b):
        return _ld_affine_attempt(state, mask, buf, a, b, cache)

    return attempt


def _c_ld_global_fast(instr):
    """Width-1 global load, full-mask fast path.

    Replicates ``_BatchedRun._ld_global`` bit-for-bit for the common
    case (sanitizer off, every lane active, int64 full-shape indices):
    same bounds error, same gathered float64 values, same transaction /
    byte counters. When the per-lane indices are consecutive within
    each block row — the coalesced pattern every tiled reduction hits —
    the row ends bound the whole index range, the 128-byte-segment
    count comes analytically from the 32-lane warp starts, and the
    gather becomes a strided copy when the rows are evenly spaced.

    A loop-carried index with affine provenance (``idx = base +
    uniform offset``, recorded by the region store via :func:`_af`)
    amortizes the whole analysis: consecutiveness, ends and warp
    starts are derived from the loop-invariant ``base`` once, then
    each iteration only shifts them by the offset — and when the
    offset is a multiple of the 128-byte segment span the transaction
    count is byte-for-byte the base's count (both ``>>`` terms shift
    equally). Offsets that could wrap int64 skip the provenance path
    (the elementwise engine math wraps; shifted-ends math must not).
    Anything else delegates to the engine.
    """
    buf = instr.buf
    dst = instr.dst
    idx_name = instr.idx.name if isinstance(instr.idx, Reg) else None
    base_info = {}  # id-keyed single entry: analysis of the affine base

    def run(state, mask):
        idx = state.regs.get(idx_name) if idx_name is not None else None
        if (
            state.san is not None
            or not state._cur_all
            or not isinstance(idx, np.ndarray)
            or idx.shape != state.shape
            or idx.dtype != np.int64
            or instr.width != 1
        ):
            state._ld_global(instr, mask)
            return
        arr = state.device.get(buf)
        item = arr.dtype.itemsize
        per_segment = max(1, 128 // item)
        prov = state._cache.get(("af", idx_name))
        if prov is not None and prov[0] is idx and prov[2] >= 0:
            _, base, off = prov
            info = _ld_analyze_base(base, per_segment, base_info)
            if info[2] and info[5] + off < (1 << 63):
                # shifted ends must not wrap (elementwise int64 would)
                (_, _, _, start0, lo0, hi0, warp_starts, shift, trans0,
                 stride) = info
                lo = lo0 + off
                hi = hi0 + off
                if lo < 0 or hi >= len(arr):
                    raise SimulationError(
                        f"kernel {state.kernel.name!r}: out-of-bounds "
                        f"access to global buffer {buf!r} (size "
                        f"{len(arr)}, index range [{lo}, {hi}])"
                    )
                if off % per_segment == 0:
                    trans = trans0
                else:
                    shifted = warp_starts + off
                    trans = int(
                        ((shifted + 31 >> shift) - (shifted >> shift)).sum()
                    ) + warp_starts.size
                if stride:
                    view = np.lib.stride_tricks.as_strided(
                        arr[start0 + off:],
                        shape=idx.shape,
                        strides=(stride * item, item),
                    )
                    value = view.astype(np.float64)
                else:
                    value = arr[idx].astype(np.float64, copy=False)
                state.regs[dst.name] = value
                events = state.events
                events["mem.global.ld.trans"] += trans
                events["mem.global.bytes"] += trans * 128
                events["mem.global.bytes_useful"] += mask.size * item
                events["inst.ld.global"] += state._cur_warps
                return
        consec = (
            state.nthreads % 32 == 0
            and per_segment & (per_segment - 1) == 0
            and bool((idx[:, 1:] == idx[:, :-1] + 1).all())
        )
        if consec:
            lo = idx[:, 0].min()   # row ends bound consecutive rows
            hi = idx[:, -1].max()
        else:
            lo = idx.min()
            hi = idx.max()
        if lo < 0 or hi >= len(arr):
            raise SimulationError(
                f"kernel {state.kernel.name!r}: out-of-bounds access to "
                f"global buffer {buf!r} (size {len(arr)}, index range "
                f"[{lo}, {hi}])"
            )
        if consec:
            shift = per_segment.bit_length() - 1
            warp_starts = idx[:, ::32].ravel()
            trans = int(
                ((warp_starts + 31 >> shift) - (warp_starts >> shift)).sum()
            ) + warp_starts.size
            starts = idx[:, 0]
            nblocks, nthreads = idx.shape
            stride = int(starts[1] - starts[0]) if nblocks > 1 else 0
            if nblocks > 1 and stride > 0 and bool(
                (starts[1:] - starts[:-1] == stride).all()
            ):
                view = np.lib.stride_tricks.as_strided(
                    arr[int(starts[0]):],
                    shape=(nblocks, nthreads),
                    strides=(stride * item, item),
                )
                value = view.astype(np.float64)
            else:
                value = arr[idx].astype(np.float64, copy=False)
        else:
            trans = state._count_segments_sorted(idx, mask, per_segment, 1)
            value = arr[idx].astype(np.float64, copy=False)
        state.regs[dst.name] = value
        events = state.events
        events["mem.global.ld.trans"] += trans
        events["mem.global.bytes"] += trans * 128
        events["mem.global.bytes_useful"] += mask.size * arr.dtype.itemsize
        events["inst.ld.global"] += state._cur_warps

    run._specialized = "ld_global"
    run._instr = instr
    return run


def _c_atom_global_fast(instr):
    """Global atomic, single-address fast path.

    The block-result pattern — every active lane updates the same
    address — lets the same-address contention tracker update in one
    step instead of the engine's per-block-row ``np.unique`` loop. The
    dict update replicates the engine row walk exactly, including the
    tracking-cap semantics: rows are block-ascending, the cap check
    runs before each row, and an insertion that overflows the cap
    stops all further updates (so a fresh entry keeps only its first
    row's count). Multi-address updates delegate to the engine.
    """
    op0 = instr.op
    buf = instr.buf
    atomic_ufunc = _ATOMIC_UFUNC.get(op0)

    def run(state, mask):
        if (
            state.san is not None
            or instr.op is not op0
            or instr.buf is not buf
            or atomic_ufunc is None
        ):
            state._atom_global(instr, mask)
            return
        idx = state._global_indices(instr.idx, mask, buf)
        # Column-structured masks (broadcast row views, the shape every
        # If hands its sides) select whole columns: the boolean fancy
        # index over (blocks, threads) collapses to a column gather and
        # the per-row activity reductions to one row.
        row = None if state._cur_all else _col_row(state, mask)
        cols = None if row is None else np.flatnonzero(row)
        if state._cur_all:
            active = idx.reshape(-1)
        elif cols is not None:
            active = np.ascontiguousarray(idx[:, cols]).reshape(-1)
        else:
            active = idx[mask]
        if active.size == 0 or not bool((active == active[0]).all()):
            state._atom_global(instr, mask)
            return
        address = int(active[0])
        src = state._value_array(instr.src, mask)
        arr = state.device.get(buf)
        if cols is not None:
            sel = np.ascontiguousarray(src[:, cols]).reshape(-1)
        else:
            sel = src[mask]
        atomic_ufunc.at(arr, active, sel.astype(arr.dtype))
        state.events["atom.global.ops"] += active.size
        counts = state.atomic_addr_counts
        if len(counts) > _ATOMIC_TRACK_CAP:
            return
        if cols is not None:
            rows = np.arange(state.nblocks)
            per_row = np.full(state.nblocks, cols.size)
        else:
            rows = np.flatnonzero(mask.any(axis=1))
            per_row = mask.sum(axis=1)[rows]
        block_ids = [int(state.block_ids[r]) for r in rows]
        key = (buf, address)
        entry = counts.get(key)
        start = 0
        if entry is None:
            counts[key] = entry = [int(per_row[0]), block_ids[0], False]
            start = 1
            if len(counts) > _ATOMIC_TRACK_CAP:
                return  # cap overflow: remaining rows are skipped
        if start < len(rows):
            entry[0] += int(per_row[start:].sum())
            if any(b != entry[1] for b in block_ids[start:]):
                entry[2] = True

    run._specialized = "atom_global"
    run._instr = instr
    return run


# ---------------------------------------------------------------------
# region formation
# ---------------------------------------------------------------------


@dataclass
class Region:
    """One cell of the trace partition."""

    kind: str     # "fused" | "single-alu" | a BOUNDARY_KINDS value
    instrs: list


@dataclass
class FusedKernel:
    """A kernel's fused closure trace plus fusion statistics."""

    kernel_name: str
    trace: list
    stats: dict = field(default_factory=dict)
    regions: list = field(default_factory=list)


#: Instruction attributes that may hold a register operand.
_OPERAND_FIELDS = ("a", "b", "cond", "src", "idx", "offset")


def _reg_operands(instr):
    for field_name in _OPERAND_FIELDS:
        operand = getattr(instr, field_name, None)
        if isinstance(operand, Reg):
            yield operand.name


def _collect_visible_reads(trace, reads):
    """Register names some instruction reads *through the register
    file*: live-ins of (would-be) fused regions, and every operand of
    boundary, control and single-ALU instructions. A read of a name
    bound earlier in the same region resolves to a region-local value
    and never touches ``state.regs``, so it is excluded — mirroring
    the region former's partition exactly."""
    bound = None  # names bound so far in the current fusible run
    for closure in trace:
        instr = closure._instr
        if isinstance(instr, FUSIBLE_OPS):
            if bound is None:
                bound = set()
            for name in _reg_operands(instr):
                if name not in bound:
                    reads.add(name)
            bound.add(instr.dst.name)
            continue
        bound = None
        reads.update(_reg_operands(instr))
        if isinstance(instr, If):
            _collect_visible_reads(closure._then_trace, reads)
            _collect_visible_reads(closure._else_trace, reads)
        elif isinstance(instr, While):
            _collect_visible_reads(closure._cond_trace, reads)
            _collect_visible_reads(closure._body_trace, reads)


class _Fuser:
    def __init__(self, kernel_name, visible=None):
        self.kernel_name = kernel_name
        self.visible = visible
        self.regions = []
        self.n_regions = 0
        self.boundaries = {}
        self.specialized = {
            "shfl": 0, "ld_global": 0, "atom_global": 0, "control": 0,
            "st_shared": 0, "ld_shared": 0, "loop": 0,
        }
        self.fused_regions = 0
        self.fused_instructions = 0
        self.singletons = 0
        self.max_region = 0
        self.dead_stores = 0

    def fuse_trace(self, trace):
        out = []
        run = []  # pending fusible (closure, instr) pairs
        for closure in trace:
            instr = closure._instr
            if isinstance(instr, FUSIBLE_OPS):
                run.append((closure, instr))
                continue
            self._flush(run, out)
            self._boundary(closure, instr, out)
        self._flush(run, out)
        return out

    def _flush(self, run, out):
        if not run:
            return
        instrs = [instr for _, instr in run]
        # Single instructions get a generated region too (not the
        # original compiled closure): the region store keeps special
        # registers and uniform values as zero-stride views, which the
        # column fast paths downstream depend on recognizing.
        gen = _RegionCodegen(
            self.kernel_name, instrs, self.n_regions, self.visible
        )
        out.append(gen.build())
        self.dead_stores += gen.dead_stores
        if len(run) == 1:
            self.singletons += 1
            self._record("single-alu", instrs)
        else:
            self.fused_regions += 1
            self.fused_instructions += len(instrs)
            self.max_region = max(self.max_region, len(instrs))
            self._record("fused", instrs)
        run.clear()

    def _boundary(self, closure, instr, out):
        kind = BOUNDARY_KINDS.get(type(instr), "other")
        self.boundaries[kind] = self.boundaries.get(kind, 0) + 1
        if isinstance(instr, If):
            then_trace = self.fuse_trace(closure._then_trace)
            else_trace = self.fuse_trace(closure._else_trace)
            out.append(_c_if_fast(instr, then_trace, else_trace))
            self.specialized["control"] += 1
        elif isinstance(instr, While):
            cond_trace = self.fuse_trace(closure._cond_trace)
            body_trace = self.fuse_trace(closure._body_trace)
            fast = _c_while_fast(
                instr, cond_trace, body_trace,
                kernel_name=self.kernel_name, index=self.n_regions,
            )
            out.append(fast)
            self.specialized["control"] += 1
            if fast._loop_fused:
                self.specialized["loop"] += 1
        elif isinstance(instr, Shfl):
            out.append(_c_shfl_fast(instr))
            self.specialized["shfl"] += 1
        elif isinstance(instr, LdGlobal) and instr.width == 1:
            out.append(_c_ld_global_fast(instr))
            self.specialized["ld_global"] += 1
        elif isinstance(instr, AtomGlobal):
            out.append(_c_atom_global_fast(instr))
            self.specialized["atom_global"] += 1
        elif isinstance(instr, StShared):
            out.append(_c_st_shared_fast(instr))
            self.specialized["st_shared"] += 1
        elif isinstance(instr, LdShared):
            out.append(_c_ld_shared_fast(instr))
            self.specialized["ld_shared"] += 1
        else:
            out.append(closure)
        self._record(kind, [instr])

    def _record(self, kind, instrs):
        self.regions.append(Region(kind, instrs))
        self.n_regions += 1


def trace_instrs(trace):
    """Every instruction of a compiled or fused trace, sub-traces
    included, with multiplicity (unrolled loops splice the same instr
    several times). Fused mega-regions expand to their instructions."""
    out = []
    for closure in trace:
        instrs = getattr(closure, "_instrs", None)
        if instrs is not None:
            out.extend(instrs)
            continue
        instr = closure._instr
        out.append(instr)
        if isinstance(instr, If):
            out.extend(trace_instrs(closure._then_trace))
            out.extend(trace_instrs(closure._else_trace))
        elif isinstance(instr, While):
            out.extend(trace_instrs(closure._cond_trace))
            out.extend(trace_instrs(closure._body_trace))
    return out


# ---------------------------------------------------------------------
# memoized entry point
# ---------------------------------------------------------------------

_FUSE_MEMO = {}


def fuse_kernel(kernel) -> FusedKernel:
    """Fuse (and memoize) a kernel's compiled trace into regions.

    Keyed by kernel object identity like :func:`compile_kernel`, so all
    launches of a cached plan share one fused trace.
    """
    return memoize_by_identity(_FUSE_MEMO, kernel, _fuse_fresh)


def _fuse_fresh(kernel) -> FusedKernel:
    from ..obs import default_metrics, get_tracer  # obs is standalone

    compiled = compile_kernel(kernel)
    with get_tracer().span("fuse.kernel", kernel=kernel.name) as span:
        visible = set()
        _collect_visible_reads(compiled.trace, visible)
        fuser = _Fuser(kernel.name, visible)
        trace = fuser.fuse_trace(compiled.trace)
        stats = dict(compiled.stats)
        stats.update(
            regions=fuser.n_regions,
            fused_regions=fuser.fused_regions,
            fused_instructions=fuser.fused_instructions,
            singleton_alu=fuser.singletons,
            max_region_len=fuser.max_region,
            dead_stores=fuser.dead_stores,
            boundaries=dict(fuser.boundaries),
            specialized=dict(fuser.specialized),
        )
        span.set(
            regions=fuser.n_regions,
            fused_regions=fuser.fused_regions,
            fused_instructions=fuser.fused_instructions,
        )
    metrics = default_metrics()
    metrics.inc("fuse.kernels")
    metrics.inc("fuse.regions", fuser.n_regions)
    metrics.inc("fuse.fused_regions", fuser.fused_regions)
    metrics.inc("fuse.fused_instructions", fuser.fused_instructions)
    metrics.inc_many(fuser.boundaries, prefix="fuse.boundary.")
    metrics.inc_many(fuser.specialized, prefix="fuse.specialized.")
    if fuser.fused_regions:
        metrics.observe(
            "fuse.region_len",
            fuser.fused_instructions / fuser.fused_regions,
        )
    return FusedKernel(
        kernel_name=kernel.name,
        trace=trace,
        stats=stats,
        regions=fuser.regions,
    )
