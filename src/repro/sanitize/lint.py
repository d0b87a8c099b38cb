"""Static SIMT lint: a VIR pass over kernels, no execution required.

Built on :func:`repro.vir.analysis.kernel_facts`: each register's
writers and variance (one value per launch, per block or per lane), and
the uniform-constant evaluator for a tree loop's offsets. Two checks:

* **missing-barrier-in-tree-loop** — a ``While`` body that stores to a
  shared buffer and loads a *different* address of the same buffer with
  no ``Bar`` anywhere in the loop. Cross-lane shared traffic inside a
  barrier-free loop is only legal while it stays inside one warp
  (lockstep warp-synchronous execution orders it); the pass proves the
  intra-warp case by constant-evaluating the loop-carried offset
  registers that feed the load address but not the store address. An
  offset that reaches ``WARP`` or cannot be bounded is flagged.
* **non-atomic-rmw** — a shared store whose value derives from a load of
  the same buffer at the same address, one that is not ``lane``-varying,
  executed where more than one lane can be active. Every active lane of
  a block then performs the classic racy read-modify-write that
  ``atomicAdd`` exists to prevent. Single-lane regions
  (``if (tid == 0)`` style guards) are recognized and exempt.

Both checks are heuristic in the direction of the generated catalog:
they keep every stock Figure 6 variant clean while flagging the
deliberately-broken codelets in :mod:`repro.sanitize.negatives`. The
dynamic sanitizer remains the ground truth — the lint exists to catch
the same classes of bug without choosing an input size.
"""

from __future__ import annotations

from ..gpusim.engine import WARP
from ..vir.analysis import (
    ALU_WRITERS,
    LANE,
    UNKNOWN,
    eval_const_body,
    eval_const_instr,
    kernel_facts,
)
from ..vir.instructions import (
    Arg,
    Bar,
    BinOp,
    If,
    Imm,
    LdShared,
    Mov,
    Reg,
    Special,
    StShared,
    While,
    reads,
    walk_instrs,
)
from ..vir.printer import format_instr
from .dynamic import Diagnostic

#: Special registers that identify exactly one lane when pinned by ==.
_LANE_SPECIALS = frozenset({"tid", "laneid"})


def lint_kernel(kernel) -> list:
    """Run both static checks over one kernel; returns Diagnostics."""
    diags = []
    _lint_body(kernel, kernel_facts(kernel), kernel.body, const_env={},
               single_lane=False, diags=diags)
    return diags


def lint_plan(plan) -> list:
    """Lint every kernel step of a plan."""
    diags = []
    seen = set()
    for step in plan.kernel_steps():
        if id(step.kernel) in seen:
            continue
        seen.add(id(step.kernel))
        diags.extend(lint_kernel(step.kernel))
    return diags


# -- def/use plumbing ---------------------------------------------------


def _slice(roots, writers) -> set:
    """``roots`` and every register feeding them through the ALU writes
    of each (``writers``: :attr:`KernelFacts.writers`), transitively."""
    seen = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        for instr in writers.get(name, ()):
            if isinstance(instr, ALU_WRITERS):
                work.extend(op.name for op in reads(instr)
                            if isinstance(op, Reg))
    return seen


def _idx_regs(operand) -> set:
    return {operand.name} if isinstance(operand, Reg) else set()


def _is_single_lane_guard(cond: Reg, writers) -> bool:
    """True for conditions of the shape ``<lane id expr> == <x>``.

    Recognizes the generated ``if (tid == 0)`` / ``if (laneid == 0)``
    guards: a register written once (through copies) by an equality
    one side of which slices down to a per-lane special
    (``tid``/``laneid``).
    """
    instrs, copied = writers.get(cond.name, ()), {cond.name}
    while (len(instrs) == 1 and isinstance(instrs[0], Mov)
           and isinstance(instrs[0].a, Reg)
           and instrs[0].a.name not in copied):  # copies may cycle
        copied.add(instrs[0].a.name)
        instrs = writers.get(instrs[0].a.name, ())
    if not (len(instrs) == 1 and isinstance(instrs[0], BinOp)
            and instrs[0].op == "eq"):
        return False
    sides = _idx_regs(instrs[0].a) | _idx_regs(instrs[0].b)
    return any(
        isinstance(d, Special) and d.kind in _LANE_SPECIALS
        for name in _slice(sides, writers) for d in writers.get(name, ())
    )


# -- the recursive walk -------------------------------------------------


def _lint_body(kernel, facts, body, const_env, single_lane, diags) -> None:
    for instr in body:
        if isinstance(instr, If):
            guard = single_lane or _is_single_lane_guard(instr.cond,
                                                         facts.writers)
            # Region-local copies: writes inside are not constant
            # afterwards (eval_const_instr poisons them below).
            for region in (instr.then, instr.otherwise):
                _lint_body(kernel, facts, region, dict(const_env), guard,
                           diags)
        elif isinstance(instr, While):
            _check_tree_loop(kernel, instr, facts.writers, const_env, diags)
            for region in (instr.cond_block, instr.body):
                _lint_body(kernel, facts, region, dict(const_env),
                           single_lane, diags)
        elif isinstance(instr, StShared) and not single_lane:
            _check_rmw(kernel, instr, facts, diags)
        eval_const_instr(instr, const_env)


def _check_rmw(kernel, store: StShared, facts, diags) -> None:
    """Flag ``sdata[u] = f(sdata[u], ...)`` at a multi-lane program point
    where ``u`` is not ``lane``-varying."""
    if isinstance(store.idx, Reg) and facts.variance.get(
            store.idx.name, LANE) == LANE:
        return
    if not isinstance(store.src, Reg):
        return
    for name in _slice({store.src.name}, facts.writers):
        for load in facts.writers.get(name, ()):
            if not (isinstance(load, LdShared) and load.buf == store.buf
                    and _same_operand(load.idx, store.idx)):
                continue
            diags.append(Diagnostic(
                kind="non-atomic-rmw",
                kernel=kernel.name,
                instr=format_instr(store).strip(),
                message=(
                    f"shared {store.buf}[{store.idx}] is read-modify-"
                    f"written through `{format_instr(load).strip()}` at a "
                    f"program point where multiple lanes are active — "
                    f"every lane races on the same address; use an "
                    f"atomic or a single-lane guard"
                ),
                buf=store.buf,
                source="lint",
            ))
            return


def _same_operand(a, b) -> bool:
    if isinstance(a, Imm) and isinstance(b, Imm):
        return a.value == b.value
    if isinstance(a, Arg) and isinstance(b, Arg):
        return a.name == b.name
    if isinstance(a, Reg) and isinstance(b, Reg):
        return a.name == b.name
    return False


def _check_tree_loop(kernel, loop: While, writers, const_env, diags) -> None:
    """Flag barrier-free loops with cross-warp shared store/load traffic."""
    region = list(walk_instrs(loop.cond_block)) + list(walk_instrs(loop.body))
    if any(isinstance(i, Bar) for i in region):
        return
    stores = [i for i in region if isinstance(i, StShared)]
    loads = [i for i in region if isinstance(i, LdShared)]
    if not stores or not loads:
        return
    for store in stores:
        store_slice = _slice(_idx_regs(store.idx), writers)
        for load in loads:
            if load.buf != store.buf or _same_operand(load.idx, store.idx):
                continue
            offset_regs = (
                _slice(_idx_regs(load.idx), writers) - store_slice
            )
            if not offset_regs:
                continue
            bound = _max_offset(loop, offset_regs, const_env)
            if bound is not None and bound < WARP:
                continue  # provably intra-warp: warp-synchronous, legal
            reach = "unbounded" if bound is None else str(bound)
            diags.append(Diagnostic(
                kind="missing-barrier-in-tree-loop",
                kernel=kernel.name,
                instr=format_instr(load).strip(),
                message=(
                    f"loop stores to shared {store.buf} "
                    f"(`{format_instr(store).strip()}`) and reads it "
                    f"cross-lane with no barrier in the loop; the lane "
                    f"offset reaches {reach} (>= warp size {WARP}), so "
                    f"the exchange crosses warps without synchronization"
                ),
                buf=load.buf,
                source="lint",
            ))
            return


def _max_offset(loop: While, offset_regs, const_env):
    """Largest constant value any offset register takes across the loop.

    Simulates the loop over the uniform-constant environment (see
    :func:`repro.vir.analysis.eval_const_instr`). Returns ``None`` when a
    relevant register is never a known constant or the loop does not
    terminate constantly — callers treat that as "cannot prove
    intra-warp".
    """
    env = dict(const_env)
    best = None
    for _ in range(WARP * 8):  # generous trip cap for >>=1 style loops
        eval_const_body(loop.cond_block, env)
        best = _fold_offsets(env, offset_regs, best)
        cond = env.get(loop.cond.name, UNKNOWN)
        if cond is UNKNOWN:
            return best
        if not cond:
            return best
        eval_const_body(loop.body, env)
        best = _fold_offsets(env, offset_regs, best)
    return None


def _fold_offsets(env, offset_regs, best):
    for name in offset_regs:
        value = env.get(name, UNKNOWN)
        if value is UNKNOWN or isinstance(value, float):
            continue
        value = abs(int(value))
        if best is None or value > best:
            best = value
    return best
