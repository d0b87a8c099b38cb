"""Static analysis over VIR: uniform constants, kernel facts, loop proofs.

A conservative abstract interpreter over *uniform constants*
(:func:`eval_const_instr`) gives compile-time values:
:func:`summarize_loop` reads it for a loop's invariants, and the
sanitizer's static lint (:mod:`repro.sanitize.lint`) for a tree loop's
offsets:

* a register is tracked as a **uniform constant** when every lane of
  every block provably holds the same scalar value at that program
  point (it was written unconditionally from immediates / other uniform
  constants);
* anything else — special registers, loads, shuffles, parameters,
  launch constants (:class:`~repro.vir.instructions.Arg`), writes under
  divergent control flow — poisons the destination to :data:`UNKNOWN`.

``BinOp``/``UnOp`` fold (:func:`fold`) through the simulator's own
opcode table (:data:`~repro.vir.instructions.ALU_IMPL`) on the
registers' dtypes, so a folded constant is the value the engine
computes, int64 wrap-around included. A NaN operand, and any case
where numpy would warn or fail (division by zero, a bitwise op on a
float), gives ``UNKNOWN``, so a failed analysis can never change
observable behaviour — a proof simply does not hold.

Every static fact the simulator reads about a kernel comes from one
pass, :func:`kernel_facts`, computed once per kernel and kept on it
(:class:`KernelFacts`): the data-dependence verdict and the data
registers, which let sampled and profile launches skip their values
and proven loop trips (:func:`summarize_loop`); the
launch-invariant suffix, which the engine simulates once per launch
shape, and whether that shape includes the grid and the block ids; the
keyed combine in front of it, which the engine simulates once per
value of its key registers (:func:`_combine`); the
access summary behind the batchability verdict; the proof of every
top-level loop; and each register's variance (one value per launch,
per block or per lane) and writers, which the loop proofs and the
static lint read. ``docs/PERFORMANCE.md`` explains how the engine uses
them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .instructions import (
    ALU_IMPL,
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
    SPECIAL_LEVELS,
    Shfl,
    Special,
    StGlobal,
    StShared,
    UnOp,
    While,
    operands,
    reads,
    register_dtype,
    walk_instrs,
    writes,
)

#: Sentinel for "not a compile-time uniform constant".
UNKNOWN = object()


def written_regs(body) -> set:
    """Names of every register written anywhere in ``body`` (nested too)."""
    return {reg.name for instr in walk_instrs(body) for reg in writes(instr)}


def _read(operand, env):
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg):
        return env.get(operand.name, UNKNOWN)
    return UNKNOWN


def fold(op, values):
    """``ALU_IMPL[op]`` over uniform constants, as a Python scalar, or
    UNKNOWN: for an unknown or NaN operand, and wherever numpy would
    warn or fail (division by zero, a bitwise op on a float).

    Each operand is held as a one-element array of its register dtype
    (:func:`~repro.vir.instructions.register_dtype`), so integer
    arithmetic wraps at int64 exactly as the registers do (a numpy
    scalar would raise on that overflow instead).
    """
    if any(v is UNKNOWN or (isinstance(v, float) and math.isnan(v))
           for v in values):
        return UNKNOWN
    try:
        with np.errstate(all="raise"):
            lanes = [np.array([v], dtype=register_dtype(np.asarray(v).dtype))
                     for v in values]
            return ALU_IMPL[op](*lanes).item()
    except (ArithmeticError, TypeError, ValueError):
        return UNKNOWN


def eval_const_instr(instr, env) -> None:
    """Abstractly execute one instruction over a uniform-constant env.

    ``env`` maps register name -> scalar value (or UNKNOWN). Whatever
    cannot be proven uniform-constant poisons its destinations; the env
    is mutated in place.
    """
    if isinstance(instr, Comment):
        return
    if isinstance(instr, Mov):
        env[instr.dst.name] = _read(instr.a, env)
        return
    if isinstance(instr, (BinOp, UnOp)):
        values = [_read(operand, env) for operand in operands(instr).values()]
        env[instr.dst.name] = fold(instr.op, values)
        return
    if isinstance(instr, Sel):
        cond = _read(instr.cond, env)
        a = _read(instr.a, env)
        b = _read(instr.b, env)
        if UNKNOWN in (cond, a, b):
            env[instr.dst.name] = UNKNOWN
        else:
            env[instr.dst.name] = a if cond else b
        return
    # Anything else, and writes under (possibly) divergent control, is
    # not a uniform constant.
    for name in written_regs([instr]):
        env[name] = UNKNOWN


def eval_const_body(body, env) -> None:
    """Abstractly execute a straight-line body (mutates ``env``)."""
    for instr in body:
        eval_const_instr(instr, env)


# ---------------------------------------------------------------------
# kernel facts: one flow table, one fixpoint
# ---------------------------------------------------------------------

#: Instructions whose destination holds loaded (data) values.
_DATA_SOURCES = (LdGlobal, LdShared, Shfl)

#: Instructions that address memory through an ``idx`` operand.
_MEMORY_OPS = (LdGlobal, StGlobal, LdShared, StShared, AtomGlobal, AtomShared)

#: Special registers whose value depends on the grid or the block id.
_BLOCK_SPECIALS = frozenset({"ctaid", "nctaid"})

#: Register variance levels, narrowest first (:attr:`KernelFacts.variance`).
LAUNCH, BLOCK, LANE = "launch", "block", "lane"

#: Writers whose destination is a function of their operands alone.
ALU_WRITERS = (Mov, BinOp, UnOp, Sel)


def _reg_names(regs) -> set:
    return {reg.name for reg in regs if isinstance(reg, Reg)}


@dataclass(frozen=True)
class KernelFacts:
    """Every static fact the simulator reads about one kernel
    (:func:`kernel_facts`)."""

    #: Why loaded data can steer the kernel's events, or None when it is
    #: *data-oblivious*: no data reaches an ``If`` or ``While``
    #: condition, a memory index or a shuffle offset, so masks, addresses
    #: and shuffle lanes, and with them every event counter, are
    #: functions of the launch shape alone.
    data_dependence: str
    #: Names of the registers that hold data: the results of
    #: ``LdGlobal``, ``LdShared`` and ``Shfl`` and every register a write
    #: to which reads one (a ``Sel`` condition included). In a
    #: data-oblivious kernel they are read only to compute other data
    #: registers and as the value operand of a store, an atomic or a
    #: shuffle, so a launch that never writes them still computes every
    #: event (an event-only launch, see :mod:`repro.gpusim.compile`).
    data_registers: frozenset
    #: Top-level index -> :class:`LoopSummary` of every top-level
    #: ``While``, proved under the uniform constants at its entry.
    loops: dict
    #: Where a data-oblivious kernel's *launch-invariant suffix* starts,
    #: as a trace index (top-level instructions, comments excepted: one
    #: closure each), or None when the suffix is empty or the kernel is
    #: data-dependent. From there on no instruction, nested ones
    #: included, reads a launch constant (an
    #: :class:`~repro.vir.instructions.Arg` or ``ld.param``) or a
    #: register that depends on one, by data or control; data registers
    #: are left out, as an event-only launch never computes them. Special
    #: registers are not launch constants, so the suffix's events are a
    #: function of the launch geometry, the block ids it runs and the
    #: global buffers it touches.
    suffix_start: int
    #: The global buffers the suffix touches, sorted.
    suffix_buffers: tuple
    #: Whether the suffix reads ``ctaid`` or ``nctaid`` or a register
    #: that depends on one, by data or control. When it does not, its
    #: events depend on the block size and the number of blocks it runs,
    #: not on the grid or on which blocks they are.
    suffix_reads_block_id: bool
    #: Where a data-oblivious kernel's *keyed combine* starts, as a trace
    #: index, or None when it has none. From there up to
    #: :attr:`combine_end` no instruction, nested ones included, reads a
    #: launch constant, ``ctaid`` or ``nctaid``, or a register that
    #: depends on one by data or control, except through the *key
    #: registers* :attr:`combine_keys` (data registers are left out, as
    #: for the suffix). So the combine's events are a function of the
    #: key registers' values, the launch geometry and the global buffers
    #: it touches. It sits in front of the suffix: in the coop versions
    #: it is the block combine, whose guards read the block's element
    #: count ``min(max(n - ctaid * epb, 0), epb)``.
    combine_start: int
    #: Where the keyed combine ends, as a trace index: the suffix start,
    #: or None (the end of the kernel) when the combine writes a
    #: non-data register that the suffix reads, or there is no suffix.
    combine_end: int
    #: The key registers the keyed combine reads, directly or through
    #: registers written before it, sorted. A key register is written
    #: once, at the top level, outside any guard or loop, before the
    #: combine; it is ``block`` or ``launch`` (:attr:`variance`), not
    #: data, and not in the backward data slice of any global memory
    #: index (so ``ctaid * epb``, which places the loads, never is one).
    #: The engine keys the combine's memo by their values, which must be
    #: integers at run time.
    combine_keys: tuple
    #: The global buffers the keyed combine touches, sorted.
    combine_buffers: tuple
    #: Global buffers the kernel loads / stores.
    global_loads: frozenset
    global_stores: frozenset
    #: The first global buffer stored inside a ``While``, or None.
    store_in_loop: str
    #: ``(buf, sites, any site inside a While, ops)`` of every buffer the
    #: kernel updates with global atomics, in program order.
    global_atomics: tuple
    #: Register name -> the instructions that write it, nested ones
    #: included, in program order.
    writers: dict
    #: Register name -> its *variance*, the widest span over which the
    #: values it holds may differ: :data:`LAUNCH` (one value in every
    #: thread of a launch), :data:`BLOCK` (one per block) or
    #: :data:`LANE`. A register is ``lane`` when a write to it is a load,
    #: a shuffle or a lane-varying special
    #: (:data:`~repro.vir.instructions.SPECIAL_LEVELS`), reads a ``lane``
    #: register, or sits under an ``If`` or ``While`` whose condition is
    #: ``lane``; ``block`` likewise from ``%ctaid``. The fact is
    #: flow-insensitive: it holds at every program point. The levels
    #: mirror the engine's register shapes ``()``, ``(B, 1)`` and
    #: ``(1, T)`` (or ``(B, T)``).
    variance: dict


def kernel_facts(kernel) -> KernelFacts:
    """``kernel``'s :class:`KernelFacts`, computed on first use and kept
    as its ``static`` fact (:meth:`~repro.vir.program.Kernel.fact`).

    One walk builds the kernel's flow table (:func:`_flow_rows`), and
    one fixpoint over it (:func:`_dependents`) runs up to six times:
    from loaded values for the data registers and the data-dependence
    verdict; from launch constants and from the block-id specials, with
    control dependence, for the launch-invariant suffix; from both, cut
    at the key registers, for the keyed combine (:func:`_combine`); and
    from per-lane and per-block sources, with control dependence, for
    the register variance (:func:`_variance`). The same rows give the
    access summary, the writers of each register and the launch-uniform
    registers (:func:`_launch_uniform`), and with those one
    uniform-constant pass over the top level proves every top-level loop
    (:func:`summarize_loop`).
    """
    return kernel.fact("static", _analyze)


def _analyze(kernel) -> KernelFacts:
    body = kernel.body
    rows = _flow_rows(body)
    data, _ = _dependents(rows, _loads_data, control=False)
    dependence = _data_dependence(rows, data)
    writers = {}
    for row in rows:
        for name in row.writes:
            writers.setdefault(name, []).append(row.instr)
    variance = _variance(rows)
    suffix, combine = (None, (), False), (None, None, (), ())
    if dependence is None:
        suffix_top, suffix = _suffix(body, rows, data)
        combine = _combine(
            body, rows, data, suffix_top, _key_registers(rows, writers, variance, data)
        )
    loops = _loop_proofs(body, rows, _launch_uniform(rows, writers, variance), data)
    return KernelFacts(
        dependence, frozenset(data), loops, *suffix, *combine, *_access(rows),
        writers, variance,
    )


class _Row(NamedTuple):
    """One instruction of a kernel body, nested ones included."""

    top: int  # index of its top-level instruction
    instr: object
    writes: set  # registers it writes
    reads: set  # registers it reads
    guards: frozenset  # condition registers of its enclosing regions
    in_loop: bool  # inside a While's condition block or body


def _flow_rows(body) -> list:
    """The flow table of ``body``: one :class:`_Row` per instruction, in
    :func:`~repro.vir.instructions.walk_instrs` order."""
    rows = []

    def visit(region, top, guards, in_loop):
        for instr in region:
            rows.append(_Row(
                top, instr, _reg_names(writes(instr)),
                _reg_names(reads(instr)), guards, in_loop,
            ))
            if isinstance(instr, If):
                inner = guards | {instr.cond.name}
                visit(instr.then, top, inner, in_loop)
                visit(instr.otherwise, top, inner, in_loop)
            elif isinstance(instr, While):
                inner = guards | {instr.cond.name}
                visit(instr.cond_block, top, inner, True)
                visit(instr.body, top, inner, True)

    for top, instr in enumerate(body):
        visit((instr,), top, frozenset(), False)
    return rows


def _dependents(rows, source, control, exclude=frozenset()) -> tuple:
    """``(registers, tops)``: the registers that depend on a source, and
    the top-level indices of the rows that read a source or such a
    register.

    A row is a source when ``source(row.instr)``. A register depends on
    a source when a row writing it is a source or reads such a register,
    or, with ``control``, sits under an ``If``/``While`` whose condition
    does, to a fixpoint. The pass is flow-insensitive, so loop-carried
    flows and partial writes under a mask are covered without tracking
    program points. Registers in ``exclude`` never become dependent.
    """
    seeds = [source(row.instr) for row in rows]
    used = [row.reads | row.guards if control else row.reads for row in rows]
    dsts = [row.writes - exclude for row in rows]
    tainted = set()
    grew = True
    while grew:
        grew = False
        for dst, use, seed in zip(dsts, used, seeds):
            if dst and (seed or not use.isdisjoint(tainted)) and not (
                tainted.issuperset(dst)
            ):
                tainted.update(dst)
                grew = True
    return tainted, {
        row.top for row, use, seed in zip(rows, used, seeds)
        if seed or not use.isdisjoint(tainted)
    }


def _loads_data(instr) -> bool:
    return isinstance(instr, _DATA_SOURCES)


def _reads_launch_constant(instr) -> bool:
    return isinstance(instr, LdParam) or any(
        isinstance(op, Arg) for op in reads(instr)
    )


def _reads_block_id(instr) -> bool:
    return isinstance(instr, Special) and instr.kind in _BLOCK_SPECIALS


def _reads_launch_value(instr) -> bool:
    return _reads_launch_constant(instr) or _reads_block_id(instr)


def _varies_per_lane(instr) -> bool:
    if isinstance(instr, Special):
        return SPECIAL_LEVELS[instr.kind] == LANE
    return not isinstance(instr, (*ALU_WRITERS, LdParam))


def _varies_per_block(instr) -> bool:
    return _varies_per_lane(instr) or (
        isinstance(instr, Special) and SPECIAL_LEVELS[instr.kind] == BLOCK
    )


def _variance(rows) -> dict:
    """Register name -> variance level of every register ``rows`` write
    (see :attr:`KernelFacts.variance`)."""
    lane, _ = _dependents(rows, _varies_per_lane, control=True)
    block, _ = _dependents(rows, _varies_per_block, control=True)
    return {
        name: LANE if name in lane else BLOCK if name in block else LAUNCH
        for row in rows for name in row.writes
    }


def _launch_uniform(rows, writers, variance) -> dict:
    """Register name -> top-level index of its one write, for every
    *launch-uniform* register: a ``launch`` register written once in
    the kernel, at the top level. From that write on it holds one value
    in every lane of the launch (top-level code runs under the full
    mask)."""
    return {
        name: row.top for row in rows if not row.guards
        for name in row.writes
        if len(writers[name]) == 1 and variance[name] == LAUNCH
    }


def _data_dependence(rows, data):
    """The first place, in program order, where a register of ``data``
    steers events: an ``If``/``While`` condition, a memory index or a
    shuffle offset; None when there is none."""
    for row in rows:
        instr = row.instr
        kind = type(instr).__name__
        if isinstance(instr, _MEMORY_OPS):
            operand, where = instr.idx, f"the index of {kind} {instr.buf!r}"
        elif isinstance(instr, Shfl):
            operand, where = instr.offset, "a shuffle offset"
        elif isinstance(instr, (If, While)):
            operand, where = instr.cond, f"a {kind} condition"
        else:
            continue
        if isinstance(operand, Reg) and operand.name in data:
            return f"loaded value {operand} reaches {where}"
    return None


def _trace_index(body, top) -> int:
    """The trace index of top-level instruction ``top``: one closure per
    top-level instruction, comments excepted."""
    return sum(1 for instr in body[:top] if type(instr) is not Comment)


def _global_buffers(rows) -> tuple:
    return tuple(sorted({
        row.instr.buf for row in rows
        if isinstance(row.instr, (LdGlobal, StGlobal, AtomGlobal))
    }))


def _suffix(body, rows, data) -> tuple:
    """``(top, (suffix_start, suffix_buffers, suffix_reads_block_id))``
    of a data-oblivious kernel (see :class:`KernelFacts`); ``top`` is the
    suffix's top-level index, or None when the suffix is empty."""
    _, constants = _dependents(rows, _reads_launch_constant, True, data)
    start = max(constants) + 1 if constants else 0
    if all(type(instr) is Comment for instr in body[start:]):
        return None, (None, (), False)
    _, block_id = _dependents(rows, _reads_block_id, True, data)
    return start, (
        _trace_index(body, start),
        _global_buffers(row for row in rows if row.top >= start),
        any(top >= start for top in block_id),
    )


def _index_slice(rows) -> set:
    """The backward data slice of every global memory index: the index
    registers and, to a fixpoint, every register a write to one of them
    reads."""
    sliced = {
        row.instr.idx.name for row in rows
        if isinstance(row.instr, (LdGlobal, StGlobal, AtomGlobal))
        and isinstance(row.instr.idx, Reg)
    }
    grew = True
    while grew:
        grew = False
        for row in rows:
            if not row.writes.isdisjoint(sliced) and not row.reads <= sliced:
                sliced |= row.reads
                grew = True
    return sliced


def _key_registers(rows, writers, variance, data) -> dict:
    """Register name -> top-level index of its one write, for every
    candidate key register of a keyed combine (see
    :attr:`KernelFacts.combine_keys`)."""
    sliced = _index_slice(rows)
    return {
        name: row.top for row in rows if not row.guards and not row.in_loop
        for name in row.writes
        if len(writers[name]) == 1 and variance[name] in (LAUNCH, BLOCK)
        and name not in data and name not in sliced
    }


def _combine(body, rows, data, suffix_top, keys) -> tuple:
    """``(combine_start, combine_end, combine_keys, combine_buffers)`` of
    a data-oblivious kernel whose suffix starts at top-level index
    ``suffix_top`` (None: it has none), given its candidate key
    registers ``keys`` (:func:`_key_registers`); see
    :class:`KernelFacts`."""
    none = (None, None, (), ())
    _, tainted = _dependents(rows, _reads_launch_value, True, data | set(keys))
    end = len(body) if suffix_top is None else suffix_top
    start = max((top for top in tainted if top < end), default=-1) + 1
    if all(type(instr) is Comment for instr in body[start:end]):
        return none
    region = [row for row in rows if start <= row.top < end]
    written = set().union(*(row.writes for row in region)) - data
    if end < len(body) and any(
        not written.isdisjoint(row.reads | row.guards)
        for row in rows if row.top >= end
    ):
        # A replayed combine leaves its registers unwritten, so the
        # suffix that reads them is keyed along with it.
        end = len(body)
        if any(top >= start for top in tainted):
            return none
        region = [row for row in rows if row.top >= start]
    # The registers the combine reads that were written before it, and
    # back through their writers to the key registers they derive from.
    before = [row for row in rows if row.top < start]
    pending = list(set().union(*(row.reads | row.guards for row in region)) - data)
    seen, reached = set(), set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in keys:
            if keys[name] < start:
                reached.add(name)
            continue
        for row in before:
            if name in row.writes:
                pending.extend((row.reads | row.guards) - data)
    return (
        _trace_index(body, start),
        None if end == len(body) else _trace_index(body, end),
        tuple(sorted(reached)),
        _global_buffers(region),
    )


def _access(rows) -> tuple:
    """``(global_loads, global_stores, store_in_loop, global_atomics)``
    (see :class:`KernelFacts`)."""
    loads, stores, atomics = set(), set(), {}
    store_in_loop = None
    for row in rows:
        instr = row.instr
        if isinstance(instr, LdGlobal):
            loads.add(instr.buf)
        elif isinstance(instr, StGlobal):
            stores.add(instr.buf)
            if row.in_loop and store_in_loop is None:
                store_in_loop = instr.buf
        elif isinstance(instr, AtomGlobal):
            sites, in_loop, ops = atomics.get(instr.buf, (0, False, frozenset()))
            atomics[instr.buf] = (sites + 1, in_loop or row.in_loop, ops | {instr.op})
    return (
        frozenset(loads),
        frozenset(stores),
        store_in_loop,
        tuple((buf, *entry) for buf, entry in atomics.items()),
    )


def _loop_proofs(body, rows, uniform, data) -> dict:
    """Top-level index -> :func:`summarize_loop` proof of every
    top-level ``While`` of ``body``, from one uniform-constant pass and
    the launch-uniform registers ``uniform`` (:func:`_launch_uniform`)
    written before the loop. A proof also records the loop's
    :attr:`LoopSummary.live_out` from the flow table ``rows`` and the
    data registers ``data``."""
    env, loops = {}, {}
    for top, instr in enumerate(body):
        if type(instr) is While:
            summary = summarize_loop(
                instr, env, {name for name, at in uniform.items() if at < top}
            )
            if summary.reason is None:
                after = set().union(
                    *(row.reads | row.guards for row in rows if row.top > top)
                )
                inductions = {name for name, _step in summary.inductions}
                summary = dataclasses.replace(summary, live_out=frozenset(
                    (written_regs([instr]) - inductions - data) & after
                ))
            loops[top] = summary
        eval_const_instr(instr, env)
    return loops


@dataclass(frozen=True)
class LoopSummary:
    """What :func:`summarize_loop` proved about one ``While``.

    ``reason`` is None when the proof holds. Then:

    * ``inductions`` — ``(register, step)`` for every register the loop
      carries from trip to trip that is not data; each one is written
      once per trip, ``r = r + step`` in the body. ``step`` is a
      compile-time int or an :class:`ArgMultiple` of a launch constant
      or a launch-uniform register, the same in every lane;
    * the loop condition is ``induction <op> bound`` (``op`` one of
      ``lt``/``le``/``gt``/``ge``), where ``induction`` is one of the
      above, with any per-lane start value, and ``bound`` a per-lane
      loop invariant (``Reg``, ``Imm`` or ``Arg``);
    * ``loads`` — ``(buf, idx, elements_per_trip, width)`` for every
      ``LdGlobal``: its index moves by that constant each trip, a
      compile-time int or an :class:`ArgMultiple`;
    * ``live_out`` — the registers the loop writes that code after the
      loop reads, other than its inductions and the kernel's data
      registers (set by :func:`kernel_facts` for a top-level loop). When
      it is empty, a stretch that ends with every lane exiting at the
      same trip may skip that trip and its exit test too.

    The engine resolves every :class:`ArgMultiple` when the loop starts.

    Otherwise ``reason`` is a short slug (used in metric names) and
    ``detail`` says what broke the proof.
    """

    reason: str = None
    detail: str = ""
    inductions: tuple = ()
    induction: str = None
    op: str = None
    bound: object = None
    loads: tuple = ()
    live_out: frozenset = frozenset()


class ArgMultiple(NamedTuple):
    """``factor * arg``: a per-trip step that is an int multiple of a
    value known when the loop starts. ``arg`` is a launch constant
    (:class:`Arg`: the grid stride ``block * grid`` of a kernel built
    once for every grid) or a launch-uniform register (:class:`Reg`:
    the ``%ntid * %nctaid`` stride of the CUB and Kokkos grid-stride
    loops), read from its held value."""

    factor: int
    arg: object


class _Aff(NamedTuple):
    """A value ``base + coef * trip`` with a loop-invariant per-lane
    ``base``. ``coef`` is an int or an :class:`ArgMultiple`. ``const`` is
    the value itself when ``coef == 0`` and it is a known compile-time
    constant, a launch constant (:class:`Arg`) or a launch-uniform
    register (:class:`Reg`), else UNKNOWN."""

    coef: object
    const: object = UNKNOWN


#: Per-trip value kinds besides :class:`_Aff`: derived from loaded data,
#: or anything else (not affine in the trip, not data).
_DATA = "data"
_OTHER = "other"

#: Loop-body instructions the proof refuses, by the slug it reports.
_REFUSED = {
    StGlobal: "store",
    StShared: "store",
    AtomGlobal: "atomic",
    AtomShared: "atomic",
    LdShared: "shared",
    Shfl: "shuffle",
    Bar: "barrier",
    If: "nested",
    While: "nested",
}

#: Ordered comparisons, mapped to the operator with operands swapped.
_SWAPPED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}


class _Refuse(Exception):
    def __init__(self, reason, detail):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def summarize_loop(loop: While, env, uniform) -> LoopSummary:
    """Prove that a loop's per-trip events repeat while its mask holds.

    ``env`` is the uniform-constant environment at loop entry (see
    :func:`eval_const_instr`) and ``uniform`` names the launch-uniform
    registers written before the loop (:func:`_launch_uniform`). The
    loop qualifies when its condition block and body are straight-line
    ALU plus ``LdGlobal`` only, the registers it carries between trips
    are inductions or data, its condition compares an induction against
    a loop invariant, and every induction and load index moves by the
    same amount in every lane each trip: a compile-time int, or an int
    multiple of a launch constant or of a launch-uniform register. Then
    every trip under one mask issues the same instructions, and shifting
    all load indices by a multiple of the 128-byte segment reproduces the
    segment counts — so the events of a run of trips are periodic in
    the trip number (see ``docs/PERFORMANCE.md``). Inductions may start
    from per-lane values: the engine stops each run of trips before the
    first lane exits.
    """
    written = written_regs([loop])
    invariant = {name: Reg(name) for name in uniform if name not in written}
    invariant.update(
        (name, value)
        for name, value in env.items()
        if name not in written and value is not UNKNOWN
    )
    try:
        return _summarize(loop, invariant)
    except _Refuse as exc:
        return LoopSummary(reason=exc.reason, detail=exc.detail)


def _summarize(loop, consts) -> LoopSummary:
    trip = [i for i in loop.cond_block + loop.body if not isinstance(i, Comment)]
    body_start = len([i for i in loop.cond_block if not isinstance(i, Comment)])
    for instr in trip:
        reason = _REFUSED.get(type(instr))
        if reason is not None:
            raise _Refuse(reason, f"{type(instr).__name__} in the loop")

    # Where each register is written within one trip, and which ones the
    # loop carries (read in a trip before that trip writes them).
    written = {}
    for position, instr in enumerate(trip):
        for reg in writes(instr):
            written.setdefault(reg.name, []).append(position)
    carried, seen = set(), set()
    for instr in trip:
        carried.update(_reg_names(reads(instr)) & (written.keys() - seen))
        seen.update(_reg_names(writes(instr)))

    inductions = {}
    for name in sorted(carried):
        positions = written[name]
        if len(positions) == 1 and positions[0] >= body_start:
            step = _induction_step(trip[positions[0]], name, consts)
            if step is not None:
                inductions[name] = step

    # Least fixpoint: a carried non-induction register is data when every
    # write to it derives from a load, given the data found so far.
    others = carried - set(inductions)
    data = set()
    while True:
        init = {name: _Aff(step) for name, step in inductions.items()}
        init.update({name: _DATA if name in data else _OTHER for name in others})
        facts = _trip_kinds(trip, init, consts)
        grown = {
            name for name in others
            if all(facts[pos][1] == _DATA for pos in written[name])
        }
        if grown == data:
            break
        data = grown
    for name in sorted(others - data):
        last = trip[written[name][-1]]
        if isinstance(last, BinOp) and last.op in ("add", "sub"):
            steps = [op for op in (last.a, last.b) if op != Reg(name)]
            if len(steps) == 1:
                raise _Refuse(
                    "step",
                    f"%{name} steps by {steps[0]}, not a compile-time int "
                    "or launch-uniform",
                )
        raise _Refuse("carried", f"%{name} is carried between trips but is not data")

    induction, op, bound = _loop_condition(loop, trip, body_start, facts, inductions)

    loads = []
    for position, instr in enumerate(trip):
        if not isinstance(instr, LdGlobal):
            continue
        kind = facts[position][0]["idx"]
        if kind == _DATA:
            raise _Refuse("gather", f"a loaded value indexes {instr.buf!r}")
        if kind == _OTHER or (
            isinstance(instr.idx, Reg) and len(written.get(instr.idx.name, ())) > 1
        ):
            raise _Refuse(
                "index", f"index {instr.idx} of {instr.buf!r} is not affine in the trip"
            )
        loads.append((instr.buf, instr.idx, kind.coef, instr.width))
    return LoopSummary(
        inductions=tuple(sorted(inductions.items())),
        induction=induction,
        op=op,
        bound=bound,
        loads=tuple(loads),
    )


def _induction_step(instr, name, consts):
    """The per-trip step when ``instr`` is ``name = name ± step`` with a
    compile-time int step (an int) or a launch constant or launch-uniform
    register step (an :class:`ArgMultiple`), else None."""
    if not isinstance(instr, BinOp) or instr.op not in ("add", "sub"):
        return None
    me = Reg(name)
    if instr.a == me:
        other, sign = instr.b, (1 if instr.op == "add" else -1)
    elif instr.b == me and instr.op == "add":
        other, sign = instr.a, 1
    else:
        return None
    if isinstance(other, Imm):
        value = other.value
    elif isinstance(other, Arg):
        value = other
    else:
        value = consts.get(other.name, UNKNOWN)
    if isinstance(value, (Arg, Reg)):
        return ArgMultiple(sign, value)
    return sign * value if _is_int(value) else None


def _loop_condition(loop, trip, body_start, facts, inductions):
    """``(induction, op, bound)`` such that the loop runs while
    ``induction <op> bound``; follows ``mov`` copies of the condition
    register back to the comparison inside the condition block."""
    name, end = loop.cond.name, body_start
    while True:
        position = next(
            (p for p in reversed(range(end)) if Reg(name) in writes(trip[p])),
            None,
        )
        if position is None:
            raise _Refuse(
                "condition", f"%{name} is not computed in the condition block"
            )
        instr = trip[position]
        if isinstance(instr, Mov) and isinstance(instr.a, Reg):
            name, end = instr.a.name, position
            continue
        break
    kinds = facts[position][0]
    if _DATA in kinds.values():
        raise _Refuse("data_condition", "a loaded value reaches the loop condition")
    if isinstance(instr, BinOp) and instr.op in _SWAPPED:
        for ind, other, op in (
            (instr.a, "b", instr.op),
            (instr.b, "a", _SWAPPED[instr.op]),
        ):
            if (
                isinstance(ind, Reg)
                and ind.name in inductions
                and isinstance(kinds[other], _Aff)
                and kinds[other].coef == 0
            ):
                return ind.name, op, getattr(instr, other)
    raise _Refuse(
        "condition",
        "the condition does not compare an induction with a loop invariant",
    )


def _trip_kinds(trip, init, consts) -> list:
    """Abstractly run one trip; per position ``(operand kinds, result
    kind)``. Registers the loop never writes are invariant (``_Aff(0)``,
    with their compile-time value when ``consts`` knows it)."""
    env = dict(init)
    facts = []
    for instr in trip:
        kinds = {
            field: _operand_kind(op, env, consts)
            for field, op in operands(instr).items()
        }
        result = _result_kind(instr, kinds)
        for reg in writes(instr):
            env[reg.name] = result
        facts.append((kinds, result))
    return facts


def _operand_kind(operand, env, consts):
    if isinstance(operand, Imm):
        return _Aff(0, operand.value)
    if isinstance(operand, Arg):
        return _Aff(0, operand)
    kind = env.get(operand.name)
    if kind is None:
        return _Aff(0, consts.get(operand.name, UNKNOWN))
    return kind


def _int_affine(kind) -> bool:
    """Adding this value keeps an int index an int: a trip-varying or
    unknown value (a launch constant or launch-uniform register
    included), or a known int."""
    return (
        kind.coef != 0
        or kind.const is UNKNOWN
        or isinstance(kind.const, (Arg, Reg))
        or _is_int(kind.const)
    )


def _add_coefs(a, b):
    """``a + b`` for per-trip coefficients, or None when the sum is not
    an int or one :class:`ArgMultiple`."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if b == 0:
        return a
    if a == 0:
        return b
    return None


def _scale_coef(coef, const):
    """``coef * const`` for an invariant ``const``, or None when the
    product is not an int or one :class:`ArgMultiple`."""
    if _is_int(const):
        if isinstance(coef, ArgMultiple):
            return ArgMultiple(coef.factor * const, coef.arg) if const else 0
        return coef * const
    if isinstance(const, (Arg, Reg)) and isinstance(coef, int):
        return ArgMultiple(coef, const) if coef else 0
    return None


def _result_kind(instr, kinds):
    if isinstance(instr, LdGlobal):
        return _DATA
    if isinstance(instr, (Special, LdParam)):
        return _Aff(0)
    values = list(kinds.values())
    if _DATA in values:
        return _DATA
    if _OTHER in values:
        return _OTHER
    if isinstance(instr, Mov):
        return kinds["a"]
    if all(kind.coef == 0 for kind in values):
        return _Aff(0)
    coef = None
    if isinstance(instr, UnOp) and instr.op == "neg":
        coef = _scale_coef(kinds["a"].coef, -1)
    elif isinstance(instr, BinOp):
        a, b = kinds["a"], kinds["b"]
        if instr.op in ("add", "sub") and _int_affine(a) and _int_affine(b):
            b_coef = b.coef if instr.op == "add" else _scale_coef(b.coef, -1)
            coef = _add_coefs(a.coef, b_coef)
        elif instr.op == "mul":
            for x, y in ((a, b), (b, a)):
                if y.coef == 0:
                    coef = _scale_coef(x.coef, y.const)
                    if coef is not None:
                        break
    return _OTHER if coef is None else _Aff(coef)

