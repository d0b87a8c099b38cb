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
A closure runs under four preconditions, established by the run
state's ``_run_trace``:

* ``mask`` has at least one active lane (the interpreter's per-
  instruction ``mask.any()`` check is hoisted to trace entry — valid
  because straight-line code never changes the mask);
* ``state._cur_warps`` holds the active-warp count of ``mask`` and
  ``state._cur_all`` whether every lane is active, so per-instruction
  event counting is a bare ``events[key] += state._cur_warps``;
* register arrays are never mutated in place by the run state (writes
  always rebind), so closures may store aliased/broadcast arrays
  without the interpreter's defensive copy;
* a register holds the smallest shape that broadcasts to the chunk's
  ``(B, T)``: ``()`` for launch-uniform values (``Imm``, ``Arg``,
  ``ld.param``, ``%ntid``, ``%nctaid`` and what is computed only from
  them), ``(B, 1)`` for block-uniform ones (``%ctaid`` and what derives
  from it), ``(1, T)`` for ``%tid``/``%laneid``/``%warpid``. ALU closures
  compute on those shapes and numpy broadcasting shapes the result. The
  run state builds a full array only when a write under a partial mask
  merges into an existing value, and in the memory, atomic and shuffle
  methods, which broadcast index and source operands as views and
  whose loads and gathers produce full arrays. A consumer that needs
  ``(B, T)`` broadcasts at the point of use.

Structured control flow compiles to closures holding pre-compiled
sub-traces (``If``/``While`` delegate to the run state's ``_exec_if_c`` /
``_exec_while_c``, which mirror the interpreted region semantics
exactly), so every loop — the Listing 4 reduction trees included — runs
as a loop and the trace has one closure per top-level instruction. Each
top-level loop closure carries its periodicity proof from the kernel's
facts (:func:`repro.vir.analysis.kernel_facts`), so a sampled launch
can skip proven-periodic trips (``_BatchedRun._exec_while_c``). The
compiler runs no analysis of its own: the loop proofs and the data
registers it reads, like the launch-invariant suffix the engine reads,
are computed once per kernel by that pass.

Memory, atomic, shuffle and barrier closures all delegate to the run
state's methods (``_c_method``/``_c_bar``), so the opt-in sanitizer
hooks (:mod:`repro.sanitize`) and the runtime shfl mode/width
validation live in exactly one place and cover the compiled backend
for free.

One trace serves launches that move values and *event-only* launches
(sampled or profile launches of a data-oblivious plan, see
``Executor._loop_fallback``); the run state's ``values`` flag tells
them apart. In an event-only launch an ALU closure whose destination
is one of the kernel's data registers (``KernelFacts.data_registers``)
only counts ``inst.alu``, and the memory, atomic and shuffle methods
run only their *event half* (indices, bounds checks, validation,
counters) and move no value. So both kinds of launch count the same
events, and the suffix facts (``KernelFacts.suffix_start``, a trace
index) index the one trace.

Results and event counters are bit-identical to the interpreter on every
kernel; ``tests/gpusim/test_compiled_engine.py`` enforces this
exhaustively over the Figure 6 catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vir.analysis import LoopSummary, kernel_facts
from ..vir.instructions import (
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
    Shfl,
    Special,
    StGlobal,
    StShared,
    UnOp,
    While,
)
from .engine import SimulationError, launch_constant

# ---------------------------------------------------------------------
# operand readers
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


# ---------------------------------------------------------------------
# per-instruction closures
# ---------------------------------------------------------------------


def _c_binop(instr):
    ra = _reader(instr.a)
    rb = _reader(instr.b)
    opf = ALU_IMPL[instr.op]
    dst = instr.dst

    def run(state, mask):
        state._write(dst, opf(ra(state), rb(state)), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_unop(instr):
    ra = _reader(instr.a)
    opf = ALU_IMPL[instr.op]
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
        state._write(dst, state._special(kind), mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_ldparam(instr):
    name = instr.name
    dst = instr.dst

    def run(state, mask):
        state._write(dst, state.step.args[name], mask)
        state.events["inst.alu"] += state._cur_warps

    return run


def _c_data_alu(run):
    """The closure ``run`` of an ALU instruction whose destination holds
    data: it computes only when the launch moves values
    (``state.values``), and always counts ``inst.alu``."""

    def data_run(state, mask):
        if state.values:
            run(state, mask)
        else:
            state.events["inst.alu"] += state._cur_warps

    return data_run


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

    def run(state, mask):
        state._exec_if_c(cond_read, then_trace, else_trace, mask)

    return run


def _c_while(instr, cond_trace, body_trace, summary):
    cond_read = _reader(instr.cond)

    def run(state, mask):
        state._exec_while_c(cond_trace, cond_read, body_trace, mask, summary)

    return run


#: Summary of loops that are not at the top level of a kernel body: the
#: periodicity proof (``KernelFacts.loops``) only covers top-level loops.
_INNER_LOOP = LoopSummary(reason="inner", detail="loop is not at the top level")


# ---------------------------------------------------------------------
# kernel compilation
# ---------------------------------------------------------------------


@dataclass
class CompiledKernel:
    """A kernel's flat closure trace."""

    kernel_name: str
    trace: list


class _KernelCompiler:
    """Compiles one kernel body to its closure trace."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.facts = kernel_facts(kernel)

    def compile(self) -> list:
        return self._compile_body(self.kernel.body, self.facts.loops)

    def _compile_body(self, body, loops=None) -> list:
        """Compile one region. ``loops``, the top-level loop proofs by
        index, is passed for the top-level body only: nested loops carry
        :data:`_INNER_LOOP`."""
        trace = []
        for index, instr in enumerate(body):
            if type(instr) is While:
                trace.append(_c_while(
                    instr,
                    self._compile_body(instr.cond_block),
                    self._compile_body(instr.body),
                    _INNER_LOOP if loops is None else loops[index],
                ))
            elif type(instr) is not Comment:  # comments execute nothing
                trace.append(self._compile_instr(instr))
        return trace

    def _compile_instr(self, instr):
        cls = type(instr)
        builder = _ALU_OPS.get(cls)
        if builder is not None:
            run = builder(instr)
            if cls is not Bar and instr.dst.name in self.facts.data_registers:
                run = _c_data_alu(run)
            return run
        method = _METHOD_OPS.get(cls)
        if method is not None:
            return _c_method(instr, method)
        if cls is If:
            return _c_if(
                instr,
                self._compile_body(instr.then),
                self._compile_body(instr.otherwise),
            )
        raise SimulationError(f"cannot compile {cls.__name__}")


def compile_kernel(kernel) -> CompiledKernel:
    """A kernel's compiled artifact, built once and kept as its
    ``compiled`` fact (:meth:`~repro.vir.program.Kernel.fact`).

    Kernels are built once per (version, block) and reused by every plan
    of that pair (see :func:`repro.codegen.synthesize.build_plan_cached`),
    so every launch, block and batch chunk of every such plan shares one
    trace.
    """
    return kernel.fact("compiled", _compile_fresh)


def _compile_fresh(kernel) -> CompiledKernel:
    from ..obs import default_metrics  # runtime import: obs is standalone

    compiled = CompiledKernel(
        kernel_name=kernel.name, trace=_KernelCompiler(kernel).compile()
    )
    metrics = default_metrics()
    metrics.inc("compile.kernels")
    metrics.observe("compile.trace_len", len(compiled.trace))
    return compiled
