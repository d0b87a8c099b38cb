"""The keyed combine memo and uniform loop exits.

``KernelFacts.combine_start`` finds the block combine of a
data-oblivious kernel that reads launch-dependent values only through
*key registers* (``KernelFacts.combine_keys``: in the coop versions the
block's element count ``min(max(n - ctaid * epb, 0), epb)``). An
event-only launch replays it from a memo keyed by the key values of the
chunk's rows, per block when every row holds the same values. A proven
loop whose lanes all leave at the same trip skips that trip and its exit
test too, unless code after the loop reads a register the loop leaves
(``LoopSummary.live_out``).

Memoized profiles must equal a fresh simulation bit for bit: every
kernel memo emptied and every loop trip simulated.
"""

import dataclasses

import numpy as np
import pytest

from repro import ReductionFramework
from repro.autotune import tuner
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.codegen import Tunables
from repro.gpusim import Executor, SimulationError
from repro.gpusim.device import Device
from repro.gpusim.engine import _BatchedRun
from repro.obs import default_metrics
from repro.runtime.session import _profile_plan
from repro.vir import KernelStep
from repro.vir.analysis import kernel_facts
from repro.vir.assembler import parse_kernel
from repro.vir.program import Plan

#: The paper's 12 input sizes (Figures 7-10), then a partial last block
#: with ``n`` below the 256-thread block and one above it.
SIZES = tuple(4 ** k for k in range(3, 15)) + (193, 4099)

COOP = ("l", "o", "m", "p", "n")

MEMOS = ("combine", "suffix")


def _counters(prefix):
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    return {k: v for k, v in counters.items() if k.startswith(prefix)}


def _delta(before, after):
    return {k: after[k] - before.get(k, 0) for k in after
            if after[k] != before.get(k, 0)}


def _no_uniform_exit(self, summary, *args):
    """``_skip_stretch`` as if code after every loop read a register the
    loop leaves: each stretch stops one trip short of the exit."""
    return SKIP(self, dataclasses.replace(summary, live_out={"read"}), *args)


SKIP = _BatchedRun._skip_stretch


def _fresh(plan, n, monkeypatch, skip=lambda self, *args: 0):
    """``plan``'s profile with its kernels' memos emptied (and restored
    afterwards) and ``skip`` as ``_skip_stretch``: by default every loop
    trip is simulated."""
    kernels = {id(step.kernel): step.kernel for step in plan.kernel_steps()}
    saved = {
        (key, memo): kernel.facts.pop(memo, None)
        for key, kernel in kernels.items() for memo in MEMOS
    }
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_BatchedRun, "_skip_stretch", skip)
            return _profile_plan(plan, n)
    finally:
        for (key, memo), entries in saved.items():
            kernels[key].facts.pop(memo, None)
            if entries is not None:
                kernels[key].facts[memo] = entries


def _assert_memoized_equals_fresh(points, monkeypatch, **fresh):
    """Profile every ``(plan, n)``, memos kept, then each one fresh
    (:func:`_fresh` with ``fresh``); return the ``exec.`` counters the
    memoized profiles moved."""
    before = _counters("exec.")
    got = [_profile_plan(plan, n) for plan, n in points]
    moved = _delta(before, _counters("exec."))
    for (plan, n), profile in zip(points, got):
        ref = _fresh(plan, n, monkeypatch, **fresh)
        assert len(profile.steps) == len(ref.steps)
        for step, ref_step in zip(profile.steps, ref.steps):
            assert step.sampled_blocks == ref_step.sampled_blocks
            assert dict(step.events) == dict(ref_step.events), (
                plan.name, n, step.grid, step.block, step.kernel_name
            )
    return moved


@pytest.mark.parametrize("ctype", ["float", "int"])
@pytest.mark.parametrize("op", ["add", "max", "min"])
def test_coop_combines_memoized_equal_fresh(op, ctype, monkeypatch):
    fw = ReductionFramework(op=op, ctype=ctype)
    moved = _assert_memoized_equals_fresh([
        (fw.build(version, n, Tunables(block=block)), n)
        for version in COOP
        for block in (64, 128, 256, 512, 1024)
        for n in SIZES
    ], monkeypatch)
    assert moved["exec.combine.reused"] > moved["exec.combine.simulated"]


@pytest.mark.parametrize("sizes, skip", [
    # Every trip simulated, up to the sizes where that stays cheap.
    (SIZES[:6] + SIZES[12:], {}),
    # Every size, against stretches that stop one trip short of the exit.
    (SIZES, {"skip": _no_uniform_exit}),
])
def test_catalog_and_figure_grid_equal_fresh(sizes, skip, monkeypatch):
    """Every Figure-6 version over the figures' compact grid: the
    compound versions' proven loops exit through the closed form."""
    fw = ReductionFramework()
    specs = tuner.sweep_specs(
        fw, sizes, blocks=(64, 256, 1024), grids=(None, 512)
    )
    moved = _assert_memoized_equals_fresh([
        (fw.build(version, n, tunables), n) for version, n, tunables in specs
    ], monkeypatch, **skip)
    assert moved["exec.loop.trips_extrapolated"] > 0
    assert moved["exec.combine.reused"] > 0


@pytest.mark.parametrize("build", [build_cub_plan, build_kokkos_plan])
def test_baselines_equal_fresh(build, monkeypatch):
    _assert_memoized_equals_fresh([
        (build(n, op), n) for op in ("add", "max") for n in SIZES
    ], monkeypatch)


def test_one_simulation_per_block_size_and_key_value():
    """Version l over the paper sizes: full blocks hold the block size
    in their element count, so each (block, count) is simulated once and
    every other launch replays it."""
    fw = ReductionFramework(op="min", ctype="int")
    plan = fw.build("l", 1 << 20, Tunables(block=128))
    kernel = plan.kernel_steps()[0].kernel
    assert kernel_facts(kernel).combine_keys == ("r7",)
    kernel.facts.pop("combine", None)
    before = _counters("exec.combine.")
    keys = set()
    for n in SIZES[:12]:
        _profile_plan(fw.build("l", n, Tunables(block=128)), n)
        keys.add(min(n, 128))
    combine = _delta(before, _counters("exec.combine."))
    assert combine == {
        "exec.combine.simulated": len(keys),
        "exec.combine.reused": 12 - len(keys),
    }
    assert len(kernel.facts["combine"]) == len(keys)


def test_disagreeing_rows_keep_a_whole_chunk_entry():
    """A sampled launch whose last block is partial keys its entry by
    every row's element count: another size with a different last block
    must not replay it."""
    fw = ReductionFramework()
    tunables = Tunables(block=256)
    kernel = fw.build("p", 1 << 20, tunables).kernel_steps()[0].kernel
    kernel.facts.pop("combine", None)
    for n in (300_007, 300_100, 300_007):
        _profile_plan(fw.build("p", n, tunables), n)
    whole = [key for key in kernel.facts["combine"] if isinstance(key[0][0], bytes)]
    assert len(whole) == 2


# -- uniform loop exits ----------------------------------------------------

#: A proven grid-stride accumulation whose index temporary ``%j`` is, with
#: ``READ_AFTER``, read after the loop (it steers a store).
LOOP = """
.kernel k(params: n; buffers: in, out)
  %t = %tid
  %n = ld.param [n]
  %acc = mov 0.0
  %i = mov %t
  while {
    %c = lt %i, %n
  } test %c {
    %j = add %i, 0
    %v = ld.global [in + %j]
    %acc = add %acc, %v
    %i = add %i, 64
  }
"""

READ_AFTER = """
  %last = lt %j, 64
  if %last {
    st.global [out + %t], %acc
  }
"""

STORE = """
  %z = eq %t, 0
  if %z {
    st.global [out + 0], %acc
  }
"""


def _loop_profile(kernel, n, interpreted=False):
    device = Device()
    device.bind("in", np.broadcast_to(np.zeros(1, dtype=np.float32), (n,)))
    device.alloc("out", 64)
    step = KernelStep(kernel, grid=1, block=64, args={"n": n},
                      buffers={"in": "in", "out": "out"})
    executor = Executor(
        device=device, backend="interpreted" if interpreted else "compiled"
    )
    return executor.run_plan(Plan(name="p", steps=[step]), values=False)


@pytest.mark.parametrize(
    "tail, live_out", [(STORE, set()), (READ_AFTER, {"j"})],
    ids=["store", "read-after"],
)
def test_uniform_exit_skips_the_last_trip_unless_a_temporary_is_read(
    tail, live_out
):
    kernel = parse_kernel(LOOP + tail)
    summary = kernel_facts(kernel).loops[4]
    assert summary.reason is None
    assert summary.live_out == live_out
    n = 64 * 10  # every lane runs ten trips
    before = _counters("exec.loop.")
    got = _loop_profile(kernel, n)
    loops = _delta(before, _counters("exec.loop."))
    # The logged first trip is simulated; without a live-out register
    # the other nine, exit test included, are added in closed form.
    simulated = 1 if not live_out else 2
    assert loops == {
        "exec.loop.trips_simulated": simulated,
        "exec.loop.trips_extrapolated": 10 - simulated,
    }
    ref = _loop_profile(kernel, n, interpreted=True)
    assert dict(got.steps[0].events) == dict(ref.steps[0].events)


def test_ragged_exit_still_simulates_the_last_trip():
    """Lanes 0..31 run one trip more than lanes 32..63: no uniform exit."""
    kernel = parse_kernel(LOOP + STORE)
    n = 64 * 10 + 32
    before = _counters("exec.loop.")
    got = _loop_profile(kernel, n)
    loops = _delta(before, _counters("exec.loop."))
    assert loops["exec.loop.trips_simulated"] >= 2
    ref = _loop_profile(kernel, n, interpreted=True)
    assert dict(got.steps[0].events) == dict(ref.steps[0].events)


def test_uniform_exit_past_the_cap_raises_where_simulation_does(monkeypatch):
    kernel = parse_kernel(LOOP + STORE)
    monkeypatch.setattr(Executor, "LOOP_CAP", 9)
    with pytest.raises(SimulationError, match="iteration cap"):
        _loop_profile(kernel, 64 * 10)
    monkeypatch.setattr(Executor, "LOOP_CAP", 10)
    assert _loop_profile(kernel, 64 * 10).steps[0].events
