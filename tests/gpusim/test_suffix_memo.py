"""The launch-invariant suffix and its memo.

``KernelFacts.suffix_start`` (:func:`repro.vir.analysis.kernel_facts`)
finds the top-level tail of a kernel that reads no launch constant,
directly, through a register or through a loop or branch condition. An
event-only profile launch simulates that tail once per (block size,
buffer shapes), and per grid and block ids only when the tail reads the
block id, and replays it afterwards; memoized profiles must equal fresh
ones (taken with the kernel's memo emptied) bit for bit.
"""

import pytest

from repro import ReductionFramework
from repro.autotune import tuner
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.apps import Histogram
from repro.gpusim import SimulationError, compile_kernel
from repro.obs import default_metrics
from repro.runtime.session import _profile_plan
from repro.vir import KernelStep
from repro.vir.analysis import kernel_facts
from repro.vir.assembler import parse_kernel
from repro.vir.program import Plan

# -- the analysis --------------------------------------------------------

#: An n-bounded accumulation loop, then ``tail``.
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


def _suffix_start(kernel):
    """Where ``kernel``'s suffix starts (it has no comments, so trace and
    body indices agree); ``len(kernel.body)`` when it is empty."""
    start = kernel_facts(kernel).suffix_start
    return len(kernel.body) if start is None else start


def _suffix(tail):
    """``(suffix start, top-level instructions of the tail)``."""
    kernel = parse_kernel(HEAD + tail)
    head = len(parse_kernel(HEAD).body)
    return _suffix_start(kernel) - head, len(kernel.body) - head


def test_suffix_starts_after_a_register_written_in_an_n_bounded_loop():
    # %i is only ever written from itself and 0: it depends on n through
    # the loop condition alone.
    start, _ = _suffix(
        "  %q = mul %i, 2\n"
        "  %z = eq %t, 0\n"
        "  st.shared [s + %t], %acc\n"
    )
    assert start == 1


def test_suffix_starts_after_an_index_computed_under_a_bound_check():
    start, _ = _suffix(
        "  %p = lt %t, %n\n"
        "  if %p {\n"
        "    %j = add %t, 1\n"
        "  }\n"
        "  %w = mov 3\n"
        "  st.shared [s + %j], 1.0\n"
        "  %z = eq %t, 0\n"
    )
    assert start == 4


def test_suffix_reads_specials_and_data_but_no_launch_constant():
    tail = (
        "  %g = %nctaid\n"
        "  %h = %ctaid\n"
        "  %last = sub %g, 1\n"
        "  %z = eq %t, 0\n"
        "  st.shared [s + %t], %acc\n"
        "  bar.sync\n"
        "  %r = ld.shared [s + %t]\n"
        "  if %z {\n"
        "    atom.global.device.add [out + 0], %r\n"
        "  }\n"
    )
    start, length = _suffix(tail)
    assert (start, length) == (0, 8)
    # A launch constant read anywhere in the tail ends the suffix after it.
    start, _ = _suffix(tail + "  %m = add %t, $n\n  %y = eq %t, 1\n")
    assert start == length + 1
    start, _ = _suffix(tail + "  %p = ld.param [n]\n  %y = eq %t, 1\n")
    assert start == length + 1


def test_kernel_without_launch_constants_is_all_suffix():
    kernel = parse_kernel(
        ".kernel k(params: -; buffers: out)\n"
        "  %t = %tid\n"
        "  st.global [out + %t], 1.0\n"
    )
    assert _suffix_start(kernel) == 0


def test_artifact_records_the_suffix_as_a_trace_index():
    """Comments compile to no closure, so the trace index of the suffix
    counts the instructions before it without them."""
    kernel = parse_kernel(
        HEAD.replace("  %acc = mov 0.0\n", "  ; accumulate\n  %acc = mov 0.0\n")
        + "  ; combine\n"
        "  %z = eq %t, 0\n"
        "  if %z {\n"
        "    atom.global.device.add [out + 0], %acc\n"
        "  }\n"
    )
    facts = kernel_facts(kernel)
    assert kernel.body[8].text == "combine"
    assert facts.suffix_start == 7  # the eq after "; combine"
    assert len(compile_kernel(kernel).trace) == 9
    assert facts.suffix_buffers == ("out",)
    # A data-dependent kernel records no suffix.
    histogram = Histogram(bins=64).build_plan(4096).kernel_steps()[0].kernel
    assert kernel_facts(histogram).suffix_start is None


# -- the engine ----------------------------------------------------------

BLOCK = 64
GRID = 4

#: Lanes below a block-uniform, n-dependent trip count store: the store's
#: events depend on n through the loop condition only. Lane 0's store
#: after it is the launch-invariant suffix.
CONTROL = """
.kernel control(params: n; buffers: in, out)
  %t = %tid
  %n = ld.param [n]
  %len = div %n, 100
  %i = mov 0
  while {
    %c = lt %i, %len
  } test %c {
    %i = add %i, 1
  }
  %on = lt %t, %i
  if %on {
    st.global [out + %t], 1.0
  }
  %z = eq %t, 0
  if %z {
    st.global [out + 0], 2.0
  }
"""


def _counters():
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    return {k: v for k, v in counters.items() if k.startswith("exec.suffix.")}


def test_control_dependent_suffix_events_follow_n():
    """Two sizes share the launch geometry and buffers, but the stored
    lanes depend on n through a loop condition: the second profile must
    not replay the first's suffix."""
    kernel = parse_kernel(CONTROL)
    plan = Plan(name="p", steps=[KernelStep(
        kernel, grid=GRID, block=BLOCK, args={"n": 0},
        buffers={"in": "in", "out": "out"},
    )], scratch={"out": BLOCK})
    profiles, deltas = [], []
    for n in (1000, 3000, 3000):
        plan.steps[0].args["n"] = n
        before = _counters()
        profiles.append(_profile_plan(plan, n).steps[0])
        after = _counters()
        deltas.append({k: after[k] - before.get(k, 0) for k in after
                       if after[k] != before.get(k, 0)})
    first, second, again = profiles
    assert first.meta["exec.trace"] == "events"
    assert dict(first.events) != dict(second.events)
    assert dict(second.events) == dict(again.events)
    assert dict(second.events) == dict(_fresh(plan, 3000).steps[0].events)
    assert deltas == [{"exec.suffix.simulated": 1}] + [
        {"exec.suffix.reused": 1}
    ] * 2


# -- memoized profiles equal fresh ones ------------------------------------


def _fresh(plan, n):
    """``plan``'s profile with its kernels' memos emptied (and restored
    afterwards)."""
    kernels = {id(step.kernel): step.kernel for step in plan.kernel_steps()}
    saved = {key: kernel.facts.pop("suffix", None)
             for key, kernel in kernels.items()}
    try:
        return _profile_plan(plan, n)
    finally:
        for key, kernel in kernels.items():
            kernel.facts.pop("suffix", None)
            if saved[key] is not None:
                kernel.facts["suffix"] = saved[key]


def _assert_memoized_equals_fresh(points):
    """Profile every ``(plan, n)`` in order, memo kept, then each one
    fresh; events are compared as dicts."""
    before = _counters()
    got = [_profile_plan(plan, n) for plan, n in points]
    reused = _counters().get("exec.suffix.reused", 0)
    assert reused > before.get("exec.suffix.reused", 0)
    for (plan, n), profile in zip(points, got):
        ref = _fresh(plan, n)
        assert profile.result is None
        assert len(profile.steps) == len(ref.steps)
        for step, ref_step in zip(profile.steps, ref.steps):
            assert step.sampled_blocks == ref_step.sampled_blocks
            assert dict(step.events) == dict(ref_step.events), (
                plan.name, n, step.kernel_name
            )


def test_tune_cold_grid_memoized_equals_fresh():
    fw = ReductionFramework()
    specs = tuner.sweep_specs(fw, (1 << 10, 1 << 16, 1 << 22))
    assert len(specs) == 720
    _assert_memoized_equals_fresh([
        (fw.build(version, n, tunables), n) for version, n, tunables in specs
    ])


@pytest.mark.parametrize("op, ctype", [
    ("add", "float"), ("add", "int"), ("max", "float"),
])
def test_ragged_sizes_memoized_equal_fresh(op, ctype):
    fw = ReductionFramework(op=op, ctype=ctype)
    specs = tuner.sweep_specs(fw, (4099, 300_007), blocks=(64, 256))
    _assert_memoized_equals_fresh([
        (fw.build(version, n, tunables), n) for version, n, tunables in specs
    ])


#: The paper's 12 input sizes, 64 ... 2^28 (Figures 7-10).
PAPER_SIZES = tuple(4 ** k for k in range(3, 15))


def test_figures_grid_memoized_equals_fresh():
    """The figures' compact grid: per-block entries serve sampled
    3-block chunks, whole one-chunk grids and one-block grids alike."""
    fw = ReductionFramework()
    specs = tuner.sweep_specs(
        fw, PAPER_SIZES, candidates=["a", "b", "k", "p"],
        blocks=(64, 128, 256), grids=(None, 512),
    )
    _assert_memoized_equals_fresh([
        (fw.build(version, n, tunables), n) for version, n, tunables in specs
    ])


@pytest.mark.parametrize("build", [build_cub_plan, build_kokkos_plan])
def test_baselines_memoized_equal_fresh(build):
    _assert_memoized_equals_fresh([
        (build(n, op), n)
        for op in ("add", "max")
        for n in (1 << 10, 4099, 1 << 16, 300_007, 1 << 20, 1 << 22)
    ])


def test_buffer_lengths_are_part_of_the_key():
    """A suffix that fits one buffer length stays out of bounds of a
    shorter one: the same geometry must not replay its entry."""
    kernel = parse_kernel(
        ".kernel k(params: -; buffers: in, out)\n"
        "  %t = %tid\n"
        "  st.global [out + %t], 1.0\n"
    )

    def plan(size):
        return Plan(name="p", steps=[KernelStep(
            kernel, grid=GRID, block=BLOCK, buffers={"in": "in", "out": "out"}
        )], scratch={"out": size})

    for _ in range(2):
        _profile_plan(plan(BLOCK), BLOCK)
    assert len(kernel.facts["suffix"]) == 1
    with pytest.raises(SimulationError, match="out-of-bounds"):
        _profile_plan(plan(BLOCK - 5), BLOCK)
