"""Closed-form loop stretches and the grid-free suffix memo.

A proven loop (:func:`repro.vir.analysis.summarize_loop`) runs the first
trip of each constant-mask stretch with its global loads logged, adds
every trip up to the one before the next lane exit in closed form
(``_BatchedRun._skip_stretch``) and simulates the last trip. Profiles
must equal every-trip simulation bit for bit: the interpreter, or the
``compiled`` event-only launch with the skip disabled.

A launch-invariant suffix that reads no block id
(``KernelFacts.suffix_reads_block_id``) is memoized per block instead of
per grid and block ids, and serves chunks of any block count; replays
must equal fresh simulation over multi-chunk launches.
"""

import numpy as np
import pytest

from repro import ReductionFramework
from repro.autotune import tuner
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.codegen import Tunables
from repro.gpusim import Executor
from repro.gpusim.device import Device
from repro.gpusim.engine import _BatchedRun
from repro.obs import default_metrics
from repro.runtime import session
from repro.runtime.session import _profile_plan
from repro.vir import KernelStep
from repro.vir.analysis import kernel_facts
from repro.vir.assembler import parse_kernel
from repro.vir.program import Plan

#: The tune_cold sizes plus ragged ones (a tail block with partial
#: lanes, zero-trip lanes and a one-block grid).
SIZES = (1 << 10, 1 << 16, 1 << 22, 193, 4099, 100_003, 3_000_017)


def _counters(prefix):
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    return {k: v for k, v in counters.items() if k.startswith(prefix)}


def _delta(before, after):
    return {k: after[k] - before.get(k, 0) for k in after
            if after[k] != before.get(k, 0)}


def _every_trip(monkeypatch):
    """Disable the closed form: every trip of every loop is simulated."""
    monkeypatch.setattr(_BatchedRun, "_skip_stretch", lambda self, *args: 0)


def _interpreted_profile(plan, n):
    """``_profile_plan`` on the reference interpreter."""
    dtype = np.dtype(plan.meta.get("dtype", "float32"))
    device = Device()
    device.bind("in", np.broadcast_to(np.zeros(1, dtype=dtype), (n,)))
    max_grid = max(step.grid for step in plan.kernel_steps())
    sample_limit = (
        None if max_grid <= session.SAMPLING_GRID_LIMIT
        else session.PROFILE_SAMPLE_BLOCKS
    )
    return Executor(device=device, backend="interpreted").run_plan(
        plan, sample_limit=sample_limit, values=False
    )


def _assert_same_events(got, ref, where):
    assert len(got.steps) == len(ref.steps)
    for step, ref_step in zip(got.steps, ref.steps):
        assert step.sampled_blocks == ref_step.sampled_blocks, where
        assert dict(step.events) == dict(ref_step.events), (
            where, step.kernel_name
        )


def _points(ctype, labels=None):
    fw = ReductionFramework(ctype=ctype)
    specs = tuner.sweep_specs(fw, SIZES, candidates=labels)
    return [(fw.build(version, n, tunables), n) for version, n, tunables in specs]


# -- closed form == every trip --------------------------------------------


@pytest.mark.parametrize("ctype", ["float", "int"])
def test_tune_grid_closed_form_equals_every_trip(ctype, monkeypatch):
    points = _points(ctype)
    before = _counters("exec.loop.")
    got = [_profile_plan(plan, n) for plan, n in points]
    loops = _delta(before, _counters("exec.loop."))
    assert loops["exec.loop.trips_extrapolated"] > 0
    sampled = [bool(profile.meta["sampled"]) for profile in got]
    assert any(sampled) and not all(sampled)
    _every_trip(monkeypatch)
    before = _counters("exec.loop.")
    for (plan, n), profile in zip(points, got):
        _assert_same_events(profile, _profile_plan(plan, n), (plan.name, n))
    assert "exec.loop.trips_extrapolated" not in _delta(
        before, _counters("exec.loop.")
    )


@pytest.mark.parametrize("ctype", ["float", "int"])
def test_vector_loads_closed_form_equals_interpreter(ctype):
    """Versions c, d, h and i load 2 or 4 elements per lane."""
    for plan, n in _points(ctype, labels=["c", "d", "h", "i"]):
        _assert_same_events(
            _profile_plan(plan, n), _interpreted_profile(plan, n),
            (plan.name, n),
        )


@pytest.mark.parametrize("build", [build_cub_plan, build_kokkos_plan])
def test_baselines_closed_form_equals_every_trip(build, monkeypatch):
    """The CUB and Kokkos grid-stride loops step by the launch-uniform
    register ``%ntid * %nctaid`` from a per-lane start: proven, so no
    ``step`` or ``induction_start`` fallback, up to 2^28 elements."""
    points = [(build(n, op), n) for op in ("add", "max")
              for n in ((1 << 20) + 3, 1 << 24, 1 << 28)]
    before = _counters("exec.loop.")
    got = [_profile_plan(plan, n) for plan, n in points]
    loops = _delta(before, _counters("exec.loop."))
    assert loops["exec.loop.trips_extrapolated"] > 0
    assert set(loops) == {
        "exec.loop.trips_simulated", "exec.loop.trips_extrapolated",
        "exec.loop.fallback.nested",
    }
    _every_trip(monkeypatch)
    for (plan, n), profile in zip(points, got):
        _assert_same_events(profile, _profile_plan(plan, n), (plan.name, n))


#: Lanes 0-15 run 10 trips, lanes 16-39 run 75 and the rest 150: three
#: constant-mask stretches. Lane ``t`` loads ``in[t + 3 i]`` (unit warp
#: rows, a 32-trip segment period for 4-byte elements) and
#: ``in[2 t + i]`` (strided rows) on trip ``i``.
THREE_STRETCHES = """
.kernel stretches(params: -; buffers: in, out)
  %t = %tid
  %t2 = mul %t, 2
  %few = lt %t, 16
  %some = lt %t, 40
  %len0 = sel %some, 75, 150
  %len = sel %few, 10, %len0
  %acc = mov 0.0
  %i = mov 0
  while {
    %c = lt %i, %len
  } test %c {
    %off = mul %i, 3
    %idx = add %t, %off
    %v = ld.global [in + %idx]
    %idx2 = add %t2, %i
    %w = ld.global [in + %idx2]
    %acc = add %acc, %v
    %acc = add %acc, %w
    %i = add %i, 1
  }
  %z = eq %t, 0
  if %z {
    atom.global.device.add [out + 0], %acc
  }
"""


def test_three_stretches_simulate_two_trips_each():
    kernel = parse_kernel(THREE_STRETCHES)
    plan = Plan(name="p", steps=[KernelStep(
        kernel, grid=4, block=64, buffers={"in": "in", "out": "out"},
    )], scratch={"out": 1})
    before = _counters("exec.loop.")
    profile = _profile_plan(plan, 4096)
    loops = _delta(before, _counters("exec.loop."))
    _assert_same_events(profile, _interpreted_profile(plan, 4096), "p")
    assert profile.steps[0].events["branch.divergent"] > 0
    # One batched chunk runs the loop once: 150 trips in 3 stretches.
    assert loops["exec.loop.trips_simulated"] <= 2 * 3
    assert (loops["exec.loop.trips_simulated"]
            + loops["exec.loop.trips_extrapolated"]) == 150


def test_shift_stack_stays_within_batch_lanes(monkeypatch):
    """An unsampled 64 x 512 launch with a 32-trip segment period counts
    its shifted indices in groups of at most ``BATCH_LANES`` lanes."""
    sizes = []
    original = _BatchedRun._count_segments_sorted

    def spy(self, idx, *args):
        sizes.append(idx.size)
        return original(self, idx, *args)

    monkeypatch.setattr(_BatchedRun, "_count_segments_sorted", spy)
    kernel = parse_kernel(THREE_STRETCHES.replace(
        "%len0 = sel %some, 75, 150", "%len0 = sel %some, 75, 100"
    ))
    plan = Plan(name="p", steps=[KernelStep(
        kernel, grid=64, block=512, buffers={"in": "in", "out": "out"},
    )], scratch={"out": 1})
    profile = _profile_plan(plan, 4096)
    assert not profile.steps[0].sampled_blocks
    assert max(sizes) <= Executor.BATCH_LANES
    assert max(sizes) > 64 * 512  # shifts were stacked


# -- the grid-free suffix memo ---------------------------------------------

#: An n-bounded loop, then ``tail``.
HEAD = """
.kernel k(params: n; buffers: in, out)
  .shared s[64]
  %t = %tid
  %b = %ctaid
  %n = ld.param [n]
  %len = div %n, 100
  %acc = mov 0.0
  %i = mov 0
  while {
    %c = lt %i, %len
  } test %c {
    %v = ld.global [in + %i]
    %acc = add %acc, %v
    %i = add %i, 1
  }
"""


def _reads_block_id(tail, head=""):
    """Whether ``tail`` after HEAD, with ``head`` inserted before its
    loop, reads the block id."""
    text = HEAD.replace("  %acc = mov 0.0\n", head + "  %acc = mov 0.0\n")
    facts = kernel_facts(parse_kernel(text + tail))
    assert facts.suffix_start == len(parse_kernel(text).body)
    return facts.suffix_reads_block_id


@pytest.mark.parametrize("tail, expected", [
    # The combine of the catalog kernels: data only reaches values.
    ("  %z = eq %t, 0\n  if %z {\n    atom.global.device.add [out + 0], %acc\n"
     "  }\n", False),
    # A prologue register holding the block id.
    ("  atom.global.device.add [out + %b], 1.0\n", True),
    ("  %g = %nctaid\n  %z = lt %t, %g\n", True),
    # Derived from the block id, by data and by control.
    ("  %b2 = mul %b, 2\n  st.global [out + %b2], 1.0\n", True),
    ("  %p = eq %b, 0\n  if %p {\n    %j = mov 1\n  }\n  %q = add %j, 1\n", True),
])
def test_suffix_reads_block_id(tail, expected):
    assert _reads_block_id(tail) is expected


def test_block_id_control_dependence_in_the_prologue():
    """%j is written from an immediate, but only in block 0."""
    head = "  %j = mov 0\n  %p = eq %b, 0\n  if %p {\n    %j = mov 1\n  }\n"
    assert _reads_block_id("  st.shared [s + %j], 1.0\n", head) is True
    assert _reads_block_id("  st.shared [s + %t], 1.0\n", head) is False


BLOCK = 64


def _memo_plan(kernel, grid, out):
    return Plan(name="p", steps=[KernelStep(
        kernel, grid=grid, block=BLOCK, args={"n": 1000},
        buffers={"in": "in", "out": "out"},
    )], scratch={"out": out})


def _fresh(plan, n):
    kernel = plan.kernel_steps()[0].kernel
    saved = kernel.facts.pop("suffix", None)
    try:
        return _profile_plan(plan, n)
    finally:
        kernel.facts.pop("suffix", None)
        if saved is not None:
            kernel.facts["suffix"] = saved


@pytest.mark.parametrize("block_id, entries", [(False, 1), (True, 12)])
def test_memo_shared_across_grids_unless_it_reads_the_block_id(
    block_id, entries, monkeypatch
):
    """Grids 16, 32 and 48 run in 12 chunks of 8 blocks. A suffix that
    adds to ``out[0]`` shares one entry; one that adds to ``out[%b]``
    keeps one per (grid, block ids), or its replayed tallies would name
    the wrong blocks."""
    index = "%b" if block_id else "0"
    kernel = parse_kernel(HEAD + (
        "  %z = eq %t, 0\n  if %z {\n"
        f"    atom.global.device.add [out + {index}], %acc\n  }}\n"
    ))
    assert kernel_facts(kernel).suffix_reads_block_id is block_id
    monkeypatch.setattr(Executor, "BATCH_LANES", 8 * BLOCK)
    before = _counters("exec.suffix.")
    got = {grid: _profile_plan(_memo_plan(kernel, grid, 48), 1000)
           for grid in (16, 32, 48)}
    suffix = _delta(before, _counters("exec.suffix."))
    assert len(kernel.facts["suffix"]) == entries
    assert suffix.get("exec.suffix.reused", 0) == 2 + 4 + 6 - entries
    for grid, profile in got.items():
        ref = _fresh(_memo_plan(kernel, grid, 48), 1000)
        _assert_same_events(profile, ref, grid)
        expected = grid if not block_id else 1
        assert profile.steps[0].events["atom.global.max_same_addr"] == expected


def test_catalog_memo_is_shared_across_grids(monkeypatch):
    """Every Figure-6 kernel's combine reads no block id, so one
    per-block entry per (block size, buffers) serves every grid and
    every chunk block count, ragged last chunks included."""
    fw = ReductionFramework()

    def profile(n, grid):
        plan = fw.build("b", n, Tunables(block=256, grid=grid))
        return plan, _profile_plan(plan, n)

    plan, _ = profile(1 << 16, 8)
    kernel = plan.kernel_steps()[0].kernel
    assert kernel_facts(kernel).suffix_reads_block_id is False
    kernel.facts.pop("suffix")
    before = _counters("exec.suffix.")
    got = [profile(1 << 16, grid) for grid in (8, 16, 24, 32)]  # one chunk
    monkeypatch.setattr(Executor, "BATCH_LANES", 5 * 256)
    got += [profile(1 << 20, grid) for grid in (8, 16)]  # chunks of 5
    assert all(plan.kernel_steps()[0].kernel is kernel for plan, _ in got)
    assert len(kernel.facts["suffix"]) == 1
    assert _delta(before, _counters("exec.suffix.")) == {
        "exec.suffix.simulated": 1, "exec.suffix.reused": 3 + 2 + 4,
    }
    for plan, memoized in got:
        n = plan.meta["n"]
        _assert_same_events(memoized, _fresh(plan, n), plan.meta["geometry"])
