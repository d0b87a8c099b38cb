"""Static analysis over VIR: uniform constants, trip counts, data flow.

The closure compiler in :mod:`repro.gpusim.compile` unrolls structured
loops whose trip counts are statically known — the Listing 4 reduction
tree loops, whose induction registers are seeded from immediates and
stepped with constant arithmetic (``offset >>= 1`` style). This module
provides the conservative abstract interpreter that proves it:

* a register is tracked as a **uniform constant** when every lane of
  every block provably holds the same scalar value at that program
  point (it was written unconditionally from immediates / other uniform
  constants);
* anything else — special registers, loads, shuffles, parameters,
  launch constants (:class:`~repro.vir.instructions.Arg`), writes under
  divergent control flow — poisons the destination to :data:`UNKNOWN`.

Scalar evaluation mirrors the engine's numpy semantics exactly for the
cases it accepts (C-style floor division, bool-as-int coercion); any
case where Python and numpy could disagree (division by zero, NaN
ordering, out-of-range shifts) conservatively returns ``UNKNOWN``, so a
failed analysis can never change observable behaviour — the loop simply
stays a loop.

Two further proofs let sampled launches skip loop trips without
changing a single event counter (see :func:`data_dependence` and
:func:`summarize_loop`; ``docs/PERFORMANCE.md`` explains how the engine
uses them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .instructions import (
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
    walk_instrs,
)

#: Sentinel for "not a compile-time uniform constant".
UNKNOWN = object()


def written_regs(body) -> set:
    """Names of every register written anywhere in ``body`` (nested too)."""
    regs = set()
    for instr in walk_instrs(body):
        dst = getattr(instr, "dst", None)
        if isinstance(dst, Reg):
            regs.add(dst.name)
        elif isinstance(dst, list):
            regs.update(r.name for r in dst if isinstance(r, Reg))
    return regs


def _read(operand, env):
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Reg):
        return env.get(operand.name, UNKNOWN)
    return UNKNOWN


def _as_arith(value):
    """numpy arithmetic coerces bool operands to ints (_coerce_bool)."""
    if isinstance(value, bool):
        return int(value)
    return value


def _is_int_like(value) -> bool:
    return isinstance(value, (int, bool))


def _apply_binop(op, a, b):
    """Scalar twin of the engine's ``_np_binop``; UNKNOWN when unsure."""
    if isinstance(a, float) and math.isnan(a):
        return UNKNOWN
    if isinstance(b, float) and math.isnan(b):
        return UNKNOWN
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
        return bool(a) and bool(b)
    if op == "lor":
        return bool(a) or bool(b)
    a = _as_arith(a)
    b = _as_arith(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "div":
        if b == 0:
            return UNKNOWN  # numpy warns and yields 0/inf; stay conservative
        if _is_int_like(a) and _is_int_like(b):
            return a // b  # floor division, like the engine's _int_div
        return a / b
    if op == "idiv":
        if b == 0:
            return UNKNOWN
        return a // b  # floor division regardless of operand dtype
    if op == "mod":
        if b == 0:
            return UNKNOWN
        return a % b
    if not (_is_int_like(a) and _is_int_like(b)):
        return UNKNOWN  # bitwise ops on floats never appear in valid VIR
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << b if 0 <= b < 64 else UNKNOWN
    if op == "shr":
        return a >> b if 0 <= b < 64 else UNKNOWN
    return UNKNOWN


def _apply_unop(op, a):
    if isinstance(a, float) and math.isnan(a):
        return UNKNOWN
    if op == "neg":
        return -_as_arith(a)
    if op == "lnot":
        return not a
    if op == "bnot":
        if not _is_int_like(a):
            return UNKNOWN
        return ~_as_arith(a)
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
    if isinstance(instr, BinOp):
        a = _read(instr.a, env)
        b = _read(instr.b, env)
        if a is UNKNOWN or b is UNKNOWN:
            env[instr.dst.name] = UNKNOWN
        else:
            env[instr.dst.name] = _apply_binop(instr.op, a, b)
        return
    if isinstance(instr, UnOp):
        a = _read(instr.a, env)
        env[instr.dst.name] = UNKNOWN if a is UNKNOWN else _apply_unop(instr.op, a)
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
    if isinstance(instr, (If, While)):
        # Writes under (possibly) divergent control are not uniform.
        for name in written_regs([instr]):
            env[name] = UNKNOWN
        return
    dst = getattr(instr, "dst", None)
    if isinstance(dst, Reg):
        env[dst.name] = UNKNOWN
    elif isinstance(dst, list):
        for reg in dst:
            if isinstance(reg, Reg):
                env[reg.name] = UNKNOWN


def eval_const_body(body, env) -> None:
    """Abstractly execute a straight-line body (mutates ``env``)."""
    for instr in body:
        eval_const_instr(instr, env)


#: Special registers that hold the same value in every lane of a block.
UNIFORM_SPECIALS = frozenset({"ctaid", "ntid", "nctaid"})


def eval_uniform_instr(instr, env) -> None:
    """Abstractly track *block-uniformity* of registers.

    ``env`` maps register name -> ``True`` when every lane of a block
    provably holds the same value at that program point, ``False``
    otherwise. This complements :func:`eval_const_instr` (which tracks
    the uniform *value* when it is also a compile-time constant): a
    register seeded from ``ld.param`` or ``%ctaid`` is uniform without
    being constant. The sanitizer's static lint uses it to decide
    whether a shared-memory address is provably written by every active
    lane of a region (a uniform index under a multi-lane mask). Launch
    constants are uniform.

    Conservative like its twin: loads, shuffles, atomics and writes
    under (possibly divergent) ``If``/``While`` control poison their
    destinations to non-uniform.
    """
    from .instructions import LdParam, Special

    if isinstance(instr, Comment):
        return
    if isinstance(instr, Mov):
        env[instr.dst.name] = _uniform_operand(instr.a, env)
        return
    if isinstance(instr, BinOp):
        env[instr.dst.name] = (
            _uniform_operand(instr.a, env) and _uniform_operand(instr.b, env)
        )
        return
    if isinstance(instr, UnOp):
        env[instr.dst.name] = _uniform_operand(instr.a, env)
        return
    if isinstance(instr, Sel):
        env[instr.dst.name] = (
            _uniform_operand(instr.cond, env)
            and _uniform_operand(instr.a, env)
            and _uniform_operand(instr.b, env)
        )
        return
    if isinstance(instr, Special):
        env[instr.dst.name] = instr.kind in UNIFORM_SPECIALS
        return
    if isinstance(instr, LdParam):
        env[instr.dst.name] = True
        return
    if isinstance(instr, (If, While)):
        for name in written_regs([instr]):
            env[name] = False
        return
    dst = getattr(instr, "dst", None)
    if isinstance(dst, Reg):
        env[dst.name] = False
    elif isinstance(dst, list):
        for reg in dst:
            if isinstance(reg, Reg):
                env[reg.name] = False


def _uniform_operand(operand, env) -> bool:
    if isinstance(operand, (Imm, Arg)):
        return True
    if isinstance(operand, Reg):
        return env.get(operand.name, False)
    return False


def uniform_trip_count(loop: While, env, max_trips: int = 256):
    """Trip count of a ``While`` whose condition is uniform-constant.

    Simulates the loop's condition block and body over a copy of the
    uniform-constant environment. Returns ``(trips, env_after)`` when
    the loop provably executes its body exactly ``trips`` times for
    every lane of every block (``env_after`` is the register state after
    the final condition evaluation); ``(None, None)`` otherwise.
    """
    env = dict(env)
    trips = 0
    while trips <= max_trips:
        eval_const_body(loop.cond_block, env)
        cond = env.get(loop.cond.name, UNKNOWN)
        if cond is UNKNOWN:
            return None, None
        if not cond:
            return trips, env
        eval_const_body(loop.body, env)
        trips += 1
    return None, None


# ---------------------------------------------------------------------
# data-obliviousness and periodic loop summaries
# ---------------------------------------------------------------------

#: Instructions whose destination holds loaded (data) values.
_DATA_SOURCES = (LdGlobal, LdShared, Shfl)

#: Instructions that address memory through an ``idx`` operand.
_MEMORY_OPS = (LdGlobal, StGlobal, LdShared, StShared, AtomGlobal, AtomShared)

#: Operand fields each instruction reads (an ``If`` only its condition).
_OPERAND_FIELDS = {
    BinOp: ("a", "b"),
    UnOp: ("a",),
    Mov: ("a",),
    Sel: ("cond", "a", "b"),
    LdGlobal: ("idx",),
    StGlobal: ("idx", "src"),
    LdShared: ("idx",),
    StShared: ("idx", "src"),
    AtomGlobal: ("idx", "src"),
    AtomShared: ("idx", "src"),
    Shfl: ("src", "offset"),
    If: ("cond",),
}


def _operands(instr) -> dict:
    """``field -> operand`` for every operand an instruction reads."""
    return {
        name: getattr(instr, name)
        for name in _OPERAND_FIELDS.get(type(instr), ())
    }


def _dst_names(instr) -> list:
    dst = getattr(instr, "dst", None)
    if isinstance(dst, Reg):
        return [dst.name]
    if isinstance(dst, list):
        return [reg.name for reg in dst if isinstance(reg, Reg)]
    return []


def _taint(body):
    """The taint pass behind :func:`data_dependence` and
    :func:`data_registers`: ``(data, sinks)``, the set of registers that
    hold data and the ``(operand, where it steers events)`` sinks.

    The results of ``LdGlobal``, ``LdShared`` and ``Shfl`` are data, and
    data flows through every ALU operand (a ``Sel`` condition included).
    The pass is flow-insensitive — a register is data when any write to
    it reads data — and iterates to a fixpoint, so loop-carried flows
    and partial writes under a mask are covered without tracking
    program points.
    """
    writes = []  # (destinations, registers read, is a data source)
    sinks = []
    for instr in walk_instrs(body):
        kind = type(instr).__name__
        if isinstance(instr, _MEMORY_OPS):
            sinks.append((instr.idx, f"the index of {kind} {instr.buf!r}"))
        elif isinstance(instr, Shfl):
            sinks.append((instr.offset, "a shuffle offset"))
        elif isinstance(instr, (If, While)):
            sinks.append((instr.cond, f"a {kind} condition"))
        dsts = _dst_names(instr)
        if dsts:
            reads = {
                op.name for op in _operands(instr).values() if isinstance(op, Reg)
            }
            writes.append((dsts, reads, isinstance(instr, _DATA_SOURCES)))
    tainted = set()
    grew = True
    while grew:
        grew = False
        for dsts, reads, source in writes:
            flows = source or not reads.isdisjoint(tainted)
            if flows and not tainted.issuperset(dsts):
                tainted.update(dsts)
                grew = True
    return tainted, sinks


def data_dependence(body):
    """Why loaded data can steer a kernel's events, or None if it cannot.

    The kernel is *data-oblivious* — None — when no data (see
    :func:`_taint`) reaches an ``If`` or ``While`` condition, a memory
    index or a shuffle offset: masks, addresses and shuffle lanes, and
    with them every event counter, are then functions of the launch
    shape alone.
    """
    tainted, sinks = _taint(body)
    for operand, where in sinks:
        if isinstance(operand, Reg) and operand.name in tainted:
            return f"loaded value {operand} reaches {where}"
    return None


def data_registers(body) -> frozenset:
    """Names of the registers of ``body`` that hold data.

    In a data-oblivious kernel, data registers are read only to compute
    other data registers and as the value operand of a store, an atomic
    or a shuffle, so a trace that never writes them still computes every
    mask, address and shuffle lane, and with them every event (the
    event trace of :mod:`repro.gpusim.compile`)."""
    return frozenset(_taint(body)[0])


@dataclass(frozen=True)
class LoopSummary:
    """What :func:`summarize_loop` proved about one ``While``.

    ``reason`` is None when the proof holds. Then:

    * ``inductions`` — ``(register, step)`` for every register the loop
      carries from trip to trip that is not data; each one is written
      once per trip, ``r = r + step`` in the body, with a compile-time
      int ``step``;
    * the loop condition is ``induction <op> bound`` (``op`` one of
      ``lt``/``le``/``gt``/``ge``), where ``induction`` is one of the
      above with a compile-time constant start value and ``bound`` a
      per-lane loop invariant (``Reg``, ``Imm`` or ``Arg``);
    * ``loads`` — ``(buf, idx, elements_per_trip, width)`` for every
      ``LdGlobal``: its index moves by that constant each trip, a
      compile-time int or an :class:`ArgMultiple` the engine resolves
      at launch.

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


class ArgMultiple(NamedTuple):
    """``factor * arg``: a per-trip index step that is an int multiple
    of a launch constant (the grid stride ``block * grid`` of a kernel
    built once for every grid), known when the loop runs."""

    factor: int
    arg: Arg

    def resolve(self, args):
        """The step at a launch with arguments ``args``."""
        return self.factor * args[self.arg.name]


class _Aff(NamedTuple):
    """A value ``base + coef * trip`` with a loop-invariant per-lane
    ``base``. ``coef`` is an int or an :class:`ArgMultiple`. ``const`` is
    the value itself when ``coef == 0`` and it is a known compile-time
    constant or a launch constant (:class:`Arg`), else UNKNOWN."""

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


def summarize_loop(loop: While, env) -> LoopSummary:
    """Prove that a loop's per-trip events repeat while its mask holds.

    ``env`` is the uniform-constant environment at loop entry (see
    :func:`eval_const_instr`). The loop qualifies when its condition
    block and body are straight-line ALU plus ``LdGlobal`` only, the
    registers it carries between trips are inductions or data, its
    condition compares an induction that starts from a compile-time
    constant (so it is block-uniform) against a loop invariant, and
    every load index moves by a constant each trip. Then every trip
    issues the same instructions under the same mask, and shifting all
    load indices by a multiple of the 128-byte segment reproduces the
    segment counts — so the events of a run of trips are periodic in
    the trip number (see ``docs/PERFORMANCE.md``).
    """
    written = written_regs([loop])
    invariant = {
        name: value
        for name, value in env.items()
        if name not in written and value is not UNKNOWN
    }
    try:
        summary = _summarize(loop, invariant)
    except _Refuse as exc:
        return LoopSummary(reason=exc.reason, detail=exc.detail)
    if env.get(summary.induction, UNKNOWN) is UNKNOWN:
        return LoopSummary(
            reason="induction_start",
            detail=f"induction %{summary.induction} does not start from a "
            "compile-time constant",
        )
    return summary


def _summarize(loop, consts) -> LoopSummary:
    trip = [i for i in loop.cond_block + loop.body if not isinstance(i, Comment)]
    body_start = len([i for i in loop.cond_block if not isinstance(i, Comment)])
    for instr in trip:
        reason = _REFUSED.get(type(instr))
        if reason is not None:
            raise _Refuse(reason, f"{type(instr).__name__} in the loop")

    # Where each register is written within one trip, and which ones the
    # loop carries (read in a trip before that trip writes them).
    writes = {}
    for position, instr in enumerate(trip):
        for name in _dst_names(instr):
            writes.setdefault(name, []).append(position)
    carried, seen = set(), set()
    for instr in trip:
        for op in _operands(instr).values():
            if isinstance(op, Reg) and op.name in writes and op.name not in seen:
                carried.add(op.name)
        seen.update(_dst_names(instr))

    inductions = {}
    for name in sorted(carried):
        positions = writes[name]
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
            if all(facts[pos][1] == _DATA for pos in writes[name])
        }
        if grown == data:
            break
        data = grown
    for name in sorted(others - data):
        last = trip[writes[name][-1]]
        if isinstance(last, BinOp) and last.op in ("add", "sub"):
            operands = [op for op in (last.a, last.b) if op != Reg(name)]
            if len(operands) == 1:
                raise _Refuse(
                    "step",
                    f"%{name} steps by {operands[0]}, not a compile-time int",
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
            isinstance(instr.idx, Reg) and len(writes.get(instr.idx.name, ())) > 1
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
    """``step`` when ``instr`` is ``name = name ± step`` with a
    compile-time int step, else None."""
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
    else:
        value = consts.get(other.name, UNKNOWN)
    return sign * value if _is_int(value) else None


def _loop_condition(loop, trip, body_start, facts, inductions):
    """``(induction, op, bound)`` such that the loop runs while
    ``induction <op> bound``; follows ``mov`` copies of the condition
    register back to the comparison inside the condition block."""
    name, end = loop.cond.name, body_start
    while True:
        position = next(
            (p for p in reversed(range(end)) if name in _dst_names(trip[p])), None
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
            for field, op in _operands(instr).items()
        }
        result = _result_kind(instr, kinds)
        for name in _dst_names(instr):
            env[name] = result
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
    unknown value (a launch constant included), or a known int."""
    return (
        kind.coef != 0
        or kind.const is UNKNOWN
        or isinstance(kind.const, Arg)
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
    if isinstance(const, Arg) and isinstance(coef, int):
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

