"""Closure compilation of VIR kernels: compile once, dispatch never.

The interpreter in :mod:`repro.gpusim.engine` pays an ``isinstance``
dispatch chain, operand re-resolution and an active-warp count for every
instruction of every loop iteration of every launch. This module walks a
kernel body **once** and emits a flat *trace* — a list of specialized
closures, one per instruction, with the opcode dispatch, the operand
kinds (``Reg``/``Imm``/``Arg``), the numpy implementation and the event-counter
key all resolved at compile time. Executing a body then degenerates to

    for fn in trace: fn(state, mask)

in the run state (:class:`~repro.gpusim.engine._BatchedRun`): the
closures only touch the per-chunk *state* object, so one compilation
serves both block orders and every chunk — one block per chunk under
``sequential``, many under ``batched``.

Closure contract
----------------
A closure runs under three preconditions, established by the run
state's ``_run_trace``:

* ``mask`` has at least one active lane (the interpreter's per-
  instruction ``mask.any()`` check is hoisted to trace entry — valid
  because straight-line code never changes the mask);
* ``state._cur_warps`` holds the active-warp count of ``mask`` and
  ``state._cur_all`` whether every lane is active, so per-instruction
  event counting is a bare ``events[key] += state._cur_warps``;
* register arrays are never mutated in place by the run state (writes
  always rebind), so closures may store aliased/broadcast arrays
  without the interpreter's defensive copy.

Structured control flow compiles to closures holding pre-compiled
sub-traces (``If``/``While`` delegate to the run state's ``_exec_if_c`` /
``_exec_while_c``, which mirror the interpreted region semantics
exactly). On top of that, loops whose trip count is a **block-uniform
compile-time constant** — proven by the abstract interpreter in
:mod:`repro.vir.analysis`, e.g. the Listing 4 reduction-tree loops whose
induction registers are seeded from immediates — are **unrolled**: the
trace splices ``cond_block + trips × (body + cond_block)`` straight-line
into the parent, which is instruction-for-instruction the interpreter's
dynamic sequence (a uniform-true condition leaves the active mask equal
to the entry mask, and the dropped ``active &= cond`` updates produce no
events or register changes). Unrolling also preserves the
``branch.divergent`` loop accounting bit-for-bit: only *divergent*
back-edge tests count, and a loop is only unrolled when its condition
is block-uniform — i.e. provably never divergent — so both backends
report the same (zero) contribution for it.

Loops that stay loops carry the periodicity proof of
:func:`repro.vir.analysis.summarize_loop` (top-level loops only) into
their closure, so a sampled launch can skip proven-periodic trips
(``_BatchedRun._exec_while_c``); the kernel's
:func:`~repro.vir.analysis.data_dependence` verdict rides on the
:class:`CompiledKernel`.

Memory, atomic, shuffle and barrier closures all delegate to the run
state's methods (``_c_method``/``_c_bar``), so the opt-in sanitizer
hooks (:mod:`repro.sanitize`) and the runtime shfl mode/width
validation live in exactly one place and cover the compiled backend
for free.

The same compiler also emits a data-oblivious kernel's *event trace*
(:meth:`CompiledKernel.event_trace_for`, built on the first sampled
launch): given the kernel's data registers
(:func:`repro.vir.analysis.data_registers`), an ALU instruction whose
destination is data compiles to a bare ``inst.alu`` count, and memory,
atomic and shuffle instructions call the *event half* of their run-state
method (``_ld_global_events``, ...: indices, bounds checks, validation,
counters) and move no value. Unrolling and loop summaries are decided
exactly as for the full trace, so both traces count the same events.

Results and event counters are bit-identical to the interpreter on every
kernel; ``tests/gpusim/test_compiled_engine.py`` enforces this
exhaustively over the Figure 6 catalog.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ..vir.analysis import (
    LoopSummary,
    data_dependence,
    data_registers,
    eval_const_instr,
    summarize_loop,
    uniform_trip_count,
    written_regs,
)
from ..vir.instructions import (
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
from .engine import (
    SimulationError,
    _coerce_bool,
    _int_div,
    _is_integer,
    launch_constant,
    memoize_by_identity,
)

#: Unrolling bounds: a loop unrolls only when the abstract interpreter
#: proves a trip count <= MAX_TRIPS and the spliced closures (trips ×
#: body, nested splices included) stay under MAX_SPLICE — past that, the
#: loop closure is cheaper than the trace it would expand to.
MAX_TRIPS = 256
MAX_SPLICE = 4096


# ---------------------------------------------------------------------
# operand readers and ALU implementations
# ---------------------------------------------------------------------


def _reader(operand):
    """Compile an operand to a ``state -> value`` function."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda state: value
    if isinstance(operand, Arg):
        return lambda state: launch_constant(state, operand)
    if isinstance(operand, Reg):
        name = operand.name

        def read(state):
            try:
                return state.regs[name]
            except KeyError:
                raise SimulationError(
                    f"kernel {state.kernel.name!r}: read of unwritten "
                    f"register {operand}"
                ) from None

        return read
    raise SimulationError(f"bad operand {operand!r}")


def _div(a, b):
    if _is_integer(a) and _is_integer(b):
        return _int_div(a, b)
    return a / b


def _arith(fn):
    """Non-comparison ops see predicates as 0/1 ints (C semantics)."""

    def apply(a, b):
        return fn(_coerce_bool(a), _coerce_bool(b))

    return apply


#: op -> binary implementation, replicating ``engine._np_binop`` exactly
#: (same coercions, same numpy entry points) with the string dispatch
#: resolved at compile time.
_BINOP_IMPL = {
    "add": _arith(operator.add),
    "sub": _arith(operator.sub),
    "mul": _arith(operator.mul),
    "div": _arith(_div),
    "idiv": _arith(np.floor_divide),
    "mod": _arith(operator.mod),
    "min": _arith(np.minimum),
    "max": _arith(np.maximum),
    "and": _arith(np.bitwise_and),
    "or": _arith(np.bitwise_or),
    "xor": _arith(np.bitwise_xor),
    "shl": _arith(np.left_shift),
    "shr": _arith(np.right_shift),
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
    "land": np.logical_and,
    "lor": np.logical_or,
}

_UNOP_IMPL = {
    "neg": lambda a: -np.asarray(_coerce_bool(a)),
    "lnot": np.logical_not,
    "bnot": lambda a: np.bitwise_not(np.asarray(_coerce_bool(a))),
}


# ---------------------------------------------------------------------
# per-instruction closures
# ---------------------------------------------------------------------


def _c_binop(instr):
    ra = _reader(instr.a)
    rb = _reader(instr.b)
    opf = _BINOP_IMPL[instr.op]
    dst = instr.dst

    def run(state, mask):
        state._write(dst, opf(ra(state), rb(state)), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_unop(instr):
    ra = _reader(instr.a)
    opf = _UNOP_IMPL[instr.op]
    dst = instr.dst

    def run(state, mask):
        state._write(dst, opf(ra(state)), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_mov(instr):
    ra = _reader(instr.a)
    dst = instr.dst

    def run(state, mask):
        state._write(dst, ra(state), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_sel(instr):
    rc = _reader(instr.cond)
    ra = _reader(instr.a)
    rb = _reader(instr.b)
    dst = instr.dst

    def run(state, mask):
        state._write(dst, np.where(rc(state), ra(state), rb(state)), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_special(instr):
    kind = instr.kind
    dst = instr.dst

    def run(state, mask):
        value = state._cache.get(kind)
        if value is None:
            value = state._special(kind)
            state._cache[kind] = value
        state._write(dst, value, mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_ldparam(instr):
    name = instr.name
    dst = instr.dst
    key = ("param", name)

    def run(state, mask):
        value = state._cache.get(key)
        if value is None:
            value = np.full(state.shape, state.step.args[name])
            state._cache[key] = value
        state._write(dst, value, mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_alu_count(instr):
    """Event-trace closure of an ALU instruction whose destination holds
    data: its ``inst.alu`` event, and no value."""

    def run(state, mask):
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_bar(instr):
    def run(state, mask):
        state._bar(mask)

    return run


def _c_method(instr, method):
    """Memory / atomic / shuffle ops reuse the run state's vectorized
    implementations — only the dispatch is compiled away."""

    def run(state, mask):
        getattr(state, method)(instr, mask)

    return run


_METHOD_OPS = {
    LdGlobal: "_ld_global",
    StGlobal: "_st_global",
    LdShared: "_ld_shared",
    StShared: "_st_shared",
    AtomGlobal: "_atom_global",
    AtomShared: "_atom_shared",
    Shfl: "_shfl",
}

_ALU_OPS = {
    BinOp: _c_binop,
    UnOp: _c_unop,
    Mov: _c_mov,
    Sel: _c_sel,
    Special: _c_special,
    LdParam: _c_ldparam,
    Bar: _c_bar,
}


def _c_if(instr, then_trace, else_trace):
    cond_read = _reader(instr.cond)
    has_else = bool(instr.otherwise)

    def run(state, mask):
        state._exec_if_c(cond_read, then_trace, else_trace, has_else, mask)

    return run


def _c_while(instr, cond_trace, body_trace, summary):
    cond_read = _reader(instr.cond)

    def run(state, mask):
        state._exec_while_c(cond_trace, cond_read, body_trace, mask, summary)

    return run


#: Summary of loops that are not at the top level of a kernel body: the
#: periodicity proof (:func:`repro.vir.analysis.summarize_loop`) only
#: covers top-level loops.
_INNER_LOOP = LoopSummary(reason="inner", detail="loop is not at the top level")


# ---------------------------------------------------------------------
# kernel compilation with uniform-loop unrolling
# ---------------------------------------------------------------------


@dataclass
class CompiledKernel:
    """A kernel's flat closure trace plus compilation statistics."""

    kernel_name: str
    trace: list
    stats: dict = field(default_factory=dict)
    #: Why loaded data can steer this kernel's events, or None when it
    #: is data-oblivious (see :func:`repro.vir.analysis.data_dependence`).
    data_dependence: str = None
    #: The event trace (:meth:`event_trace_for`), None until first built.
    event_trace: list = None

    def event_trace_for(self, kernel) -> list:
        """The event trace of ``kernel``, this artifact's data-oblivious
        kernel: ``trace`` with every ALU instruction whose destination
        holds data reduced to its ``inst.alu`` count, and memory, atomic
        and shuffle instructions running only the event half of their
        run-state method. It produces every event of ``trace`` and moves
        no value. Built on first use (a sampled launch) and memoized
        here; the artifact does not keep ``kernel`` alive, so the caller
        passes it."""
        if self.event_trace is None:
            from ..obs import default_metrics  # runtime import: obs is standalone

            self.event_trace = _KernelCompiler(
                kernel, data=data_registers(kernel.body)
            ).compile()
            default_metrics().inc("compile.event_traces")
        return self.event_trace


class _KernelCompiler:
    """Compiles one kernel body to a closure trace: the full trace, or
    with ``data`` (the kernel's data registers) the event trace."""

    def __init__(self, kernel, data=None, max_trips=MAX_TRIPS,
                 max_splice=MAX_SPLICE):
        self.kernel = kernel
        self.data = data
        self.max_trips = max_trips
        self.max_splice = max_splice
        self.top_level = {id(instr) for instr in kernel.body}
        self.stats = {
            "instructions": sum(1 for _ in walk_instrs(kernel.body)),
            "closures": 0,
            "loops": 0,
            "unrolled_loops": 0,
            "unrolled_trips": 0,
        }

    def compile(self) -> list:
        return self._compile_body(self.kernel.body, {})

    def _compile_body(self, body, env) -> list:
        """Compile one region, threading the uniform-constant env
        (mutated in place) through it."""
        trace = []
        for instr in body:
            self._compile_instr(instr, env, trace)
        return trace

    def _emit(self, closure, trace) -> None:
        trace.append(closure)
        self.stats["closures"] += 1

    def _compile_instr(self, instr, env, trace) -> None:
        cls = type(instr)
        if cls is Comment:
            return  # the interpreter executes nothing for comments
        builder = _ALU_OPS.get(cls)
        if builder is not None:
            if self.data is not None and cls is not Bar and (
                instr.dst.name in self.data
            ):
                builder = _c_alu_count
            self._emit(builder(instr), trace)
            eval_const_instr(instr, env)
            return
        method = _METHOD_OPS.get(cls)
        if method is not None:
            if self.data is not None:
                method += "_events"
            self._emit(_c_method(instr, method), trace)
            eval_const_instr(instr, env)
            return
        if cls is If:
            then_trace = self._compile_body(instr.then, dict(env))
            else_trace = (
                self._compile_body(instr.otherwise, dict(env))
                if instr.otherwise
                else []
            )
            self._emit(_c_if(instr, then_trace, else_trace), trace)
            eval_const_instr(instr, env)  # poison branch-written regs
            return
        if cls is While:
            self._compile_while(instr, env, trace)
            return
        raise SimulationError(f"cannot compile {cls.__name__}")

    def _compile_while(self, instr, env, trace) -> None:
        self.stats["loops"] += 1
        trips, _ = uniform_trip_count(instr, env, self.max_trips)
        if trips is not None:
            spliced = self._try_unroll(instr, trips, env)
            if spliced is not None:
                self.stats["unrolled_loops"] += 1
                self.stats["unrolled_trips"] += trips
                trace.extend(spliced)
                return
        # Regular loop closure. The one compiled body must be valid for
        # *every* iteration, so its env drops everything the loop writes.
        written = written_regs([instr])
        stripped = {k: v for k, v in env.items() if k not in written}
        cond_trace = self._compile_body(instr.cond_block, dict(stripped))
        body_trace = self._compile_body(instr.body, dict(stripped))
        summary = _INNER_LOOP
        if id(instr) in self.top_level:
            summary = summarize_loop(instr, env)
        self._emit(_c_while(instr, cond_trace, body_trace, summary), trace)
        eval_const_instr(instr, env)  # poison loop-written regs

    def _try_unroll(self, instr, trips, env):
        """Splice ``cond_block + trips × (body + cond_block)`` compiled
        under the *evolving* env — exactly the interpreter's dynamic
        instruction sequence for a uniform-constant loop (nested uniform
        loops unroll per iteration, with per-iteration envs). Returns
        the closure list, or None past the size cap; on success the
        parent env is advanced to the post-loop register state."""
        spliced = []
        budget = self.max_splice - self.stats["closures"]
        trial = dict(env)
        saved = dict(self.stats)
        try:
            self._splice_body(instr.cond_block, trial, spliced, budget)
            for _ in range(trips):
                self._splice_body(instr.body, trial, spliced, budget)
                self._splice_body(instr.cond_block, trial, spliced, budget)
        except _SpliceOverflow:
            self.stats.update(saved)  # drop closures counted mid-splice
            return None
        env.clear()
        env.update(trial)
        return spliced

    def _splice_body(self, body, env, trace, budget) -> None:
        for instr in body:
            self._compile_instr(instr, env, trace)
            if len(trace) > budget:
                raise _SpliceOverflow


class _SpliceOverflow(Exception):
    pass


# ---------------------------------------------------------------------
# memoization (shared with the batchability analysis)
# ---------------------------------------------------------------------

_COMPILE_MEMO = {}


def compile_kernel(kernel) -> CompiledKernel:
    """Compile (and memoize) a kernel's closure trace.

    Keyed by kernel object identity: kernels are built once per
    (version, block) and reused by every plan of that pair (see
    :func:`repro.codegen.synthesize.build_plan_cached`), so every
    launch, block and batch chunk of every such plan shares one trace.
    """
    return memoize_by_identity(_COMPILE_MEMO, kernel, _compile_fresh)


def _compile_fresh(kernel) -> CompiledKernel:
    from ..obs import default_metrics  # runtime import: obs is standalone

    compiler = _KernelCompiler(kernel)
    compiled = CompiledKernel(
        kernel_name=kernel.name,
        trace=compiler.compile(),
        stats=compiler.stats,
        data_dependence=data_dependence(kernel.body),
    )
    metrics = default_metrics()
    metrics.inc("compile.kernels")
    metrics.observe("compile.trace_len", len(compiled.trace))
    return compiled
