"""Skipping proven-periodic loop trips in sampled launches.

The loop proof (:func:`repro.vir.analysis.summarize_loop`) and the
data-obliviousness proof (``KernelFacts.data_dependence``), both from
:func:`repro.vir.analysis.kernel_facts`, must refuse every loop shape
whose skipped trips could change an event, and the engine must only
extrapolate sampled ``compiled`` launches with no sanitizer and no race
checking. Errors raised from inside a skippable range — out-of-bounds
loads, the loop cap — must read exactly as the interpreter's.
"""

import numpy as np
import pytest

from repro.gpusim import Executor, SimulationError
from repro.gpusim.device import Device
from repro.gpusim.engine import _BatchedRun
from repro.obs import default_metrics
from repro.sanitize import Sanitizer
from repro.vir import Arg, KernelStep, Reg
from repro.vir.analysis import ArgMultiple, kernel_facts
from repro.vir.assembler import parse_kernel
from repro.vir.program import Plan

BLOCK = 64
GRID = 16
TRIPS = 40  # per lane, before the tail block's bound

#: The coarsened block-stride loop of the compound versions: lane ``t`` of
#: block ``b`` sums ``in[b * BLOCK * TRIPS + t + 64 * i]`` while
#: ``i < len``, with ``len`` clipped by ``n`` in the tail block.
LOOP = """
.kernel coarse(params: n; buffers: in, out)
  %t = %tid
  %b = %ctaid
  %n = ld.param [n]
  %base = mul %b, 2560
  %start = add %base, %t
  %rem = sub %n, %start
  %rem1 = add %rem, 63
  %rem2 = max %rem1, 0
  %len0 = div %rem2, 64
  %len = min %len0, 40
  %acc = mov 0.0
  %i = mov 0
  while {
    %c = lt %i, %len
  } test %c {
    %off = mul %i, 64
    %idx = add %start, %off
    %v = ld.global [in + %idx]
    %acc = add %acc, %v
    %i = add %i, 1
  }
  %z = eq %t, 0
  if %z {
    st.global [out + %b], %acc
  }
"""


#: LOOP with its load stride read as a launch constant, as the
#: synthesized grid-strided kernels read ``block * grid``.
ARG_LOOP = LOOP.replace("params: n;", "params: n, stride;").replace(
    "%off = mul %i, 64", "%off = mul %i, $stride"
)


#: A CUB-style grid-stride loop: lane ``t`` of block ``b`` starts at
#: ``b * ntid + t`` and steps by the launch-uniform register
#: ``%gs = %ntid * %nctaid``.
GRID_STRIDE = """
.kernel stride(params: n; buffers: in, out)
  %t = %tid
  %b = %ctaid
  %nt = %ntid
  %nc = %nctaid
  %n = ld.param [n]
  %base = mul %b, %nt
  %i = add %base, %t
  %gs = mul %nt, %nc
  %acc = mov 0.0
  while {
    %c = lt %i, %n
  } test %c {
    %v = ld.global [in + %i]
    %acc = add %acc, %v
    %i = add %i, %gs
  }
  %z = eq %t, 0
  if %z {
    st.global [out + %b], %acc
  }
"""


def _variant(body="", cond="%c = lt %i, %len", head="", step="%i = add %i, 1"):
    """LOOP with ``body`` inserted before the induction step, a different
    condition or step, or ``head`` instructions before the loop."""
    text = LOOP.replace("  %i = mov 0\n", f"  %i = mov 0\n{head}")
    text = text.replace("%c = lt %i, %len", cond)
    return text.replace("    %i = add %i, 1\n", f"{body}    {step}\n")


def _summary(text):
    """The proof for the kernel's first top-level loop, given the
    uniform constants known at its entry."""
    loops = kernel_facts(parse_kernel(text)).loops
    return loops[min(loops)]


def _data_dependence(text):
    return kernel_facts(parse_kernel(text)).data_dependence


def _launch(kernel, n=None, backend="compiled", sample_limit=3, size=None,
            stride=64, sanitizer=None, **constants):
    """One sampled launch of ``kernel``; ``constants`` override executor
    class constants (``LOOP_CAP``, ...) on this instance."""
    n = GRID * BLOCK * TRIPS - 5 if n is None else n
    device = Device()
    device.alloc("in", n if size is None else size, dtype=np.float32)
    device.alloc("out", GRID, dtype=np.float32)
    executor = Executor(device=device, backend=backend, sanitizer=sanitizer)
    for name, value in constants.items():
        setattr(executor, name, value)
    args = {"n": n, "stride": stride}
    step = KernelStep(kernel, grid=GRID, block=BLOCK,
                      args={name: args[name] for name in kernel.params},
                      buffers={"in": "in", "out": "out"})
    return executor.run_plan(Plan(name="p", steps=[step]),
                             sample_limit=sample_limit)


def _loop_counters(run):
    """``exec.loop.*`` counter deltas recorded while ``run()`` executes."""
    def snap():
        counters = default_metrics().snapshot(include_caches=False)["counters"]
        return {k: v for k, v in counters.items() if k.startswith("exec.loop.")}

    before = snap()
    result = run()
    after = snap()
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    return result, {k: v for k, v in delta.items() if v}


class TestLoopProof:
    def test_coarsening_loop_is_summarized(self):
        summary = _summary(LOOP)
        assert summary.reason is None, summary.detail
        assert summary.inductions == (("i", 1),)
        assert (summary.induction, summary.op) == ("i", "lt")
        assert [(buf, per_trip) for buf, _idx, per_trip, _w in summary.loads] == [
            ("in", 64)
        ]
        assert _data_dependence(LOOP) is None

    def test_launch_constant_stride(self):
        summary = _summary(ARG_LOOP)
        assert summary.reason is None, summary.detail
        assert [per_trip for _buf, _idx, per_trip, _w in summary.loads] == [
            ArgMultiple(1, Arg("stride"))
        ]

    @pytest.mark.parametrize(
        "offset, per_trip",
        [
            ("%off = mul $stride, %i", ArgMultiple(1, Arg("stride"))),
            ("%i2 = mul %i, 3\n    %off = mul %i2, $stride",
             ArgMultiple(3, Arg("stride"))),
            ("%s2 = mul $stride, 2\n    %off = mul %i, %s2", None),
            ("%off = mul %i, $stride\n    %off2 = add %off, %i", None),
        ],
    )
    def test_launch_constant_coefficients(self, offset, per_trip):
        """Only an int multiple of one launch constant is a step the
        engine can resolve: a constant derived inside the kernel, or an
        int added to a launch-constant step, is not affine."""
        text = ARG_LOOP.replace("%off = mul %i, $stride", offset).replace(
            "%idx = add %start, %off", "%idx = add %start, " + (
                "%off2" if "%off2" in offset else "%off"
            )
        )
        summary = _summary(text)
        if per_trip is None:
            assert summary.reason == "index", summary
        else:
            assert summary.loads[0][2] == per_trip, summary

    def test_swapped_comparison(self):
        summary = _summary(_variant(cond="%c = gt %len, %i"))
        assert (summary.reason, summary.op) == (None, "lt")

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("    st.global [out + %b], %acc\n", "store"),
            ("    atom.global.device.add [out + 0], %v\n", "atomic"),
            ("    %s = shfl.down %acc, 1, w=32\n", "shuffle"),
            ("    bar.sync\n", "barrier"),
            ("    %w = ld.global [in + %v]\n", "gather"),
        ],
    )
    def test_refused_bodies(self, body, reason):
        summary = _summary(_variant(body=body))
        assert summary.reason == reason, summary
        assert summary.detail

    def test_nonuniform_step(self):
        summary = _summary(_variant(step="%i = add %i, %t"))
        assert summary.reason == "step", summary
        assert "%t" in summary.detail

    def test_loaded_value_in_condition(self):
        # A load inside the loop reaching the condition.
        text = _variant(cond="%u = ld.global [in + %i]\n    %c = lt %u, 5.0")
        summary = _summary(text)
        assert summary.reason == "data_condition", summary
        # A bound loaded before the loop: the loop proof sees an
        # invariant, the kernel-wide taint pass refuses the kernel.
        text = _variant(cond="%c = lt %i, %m", head="  %m = ld.global [in + 0]\n")
        reason = _data_dependence(text)
        assert reason is not None and "While condition" in reason

    def test_gathered_index_taints_kernel(self):
        text = _variant(body="    %w = ld.global [in + %v]\n")
        assert "index of LdGlobal 'in'" in _data_dependence(text)

    def test_per_lane_induction_start(self):
        """An induction may start per lane: the engine stops every
        stretch before the first lane exits, so each lane's own trip
        count is simulated exactly."""
        text = LOOP.replace("  %i = mov 0\n", "  %i = mov %t\n")
        summary = _summary(text)
        assert summary.reason is None, summary.detail
        assert summary.inductions == (("i", 1),)
        # Lanes start at trips 0-3: four exits, long stretches between.
        kernel = parse_kernel(
            LOOP.replace("  %i = mov 0\n", "  %i = div %t, 16\n")
        )
        ref = _launch(kernel, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert ref.steps[0].events["branch.divergent"] > 0
        assert loops["exec.loop.trips_extrapolated"] > 0

    @pytest.mark.parametrize("change, reason", [
        ({}, None),
        # A step derived from a launch constant.
        ({"%gs = mul %nt, %nc": "%gs = mul %n, 2"}, None),
        # Not launch-uniform: the block id, or a second write.
        ({"%gs = mul %nt, %nc": "%gs = mul %nt, %b"}, "step"),
        ({"  %acc = mov 0.0\n": "  %acc = mov 0.0\n  %gs = add %gs, 1\n"},
         "step"),
        # Written after the loop starts.
        ({"  %gs = mul %nt, %nc\n": "",
          "  %z = eq %t, 0\n": "  %gs = mul %nt, %nc\n  %z = eq %t, 0\n"},
         "step"),
    ])
    def test_launch_uniform_register_step(self, change, reason):
        """A step may be a register written once before the loop from
        launch-uniform values only; it multiplies the load index too."""
        text = GRID_STRIDE
        for old, new in change.items():
            text = text.replace(old, new)
        summary = _summary(text)
        assert summary.reason == reason, summary
        if reason is None:
            step = ArgMultiple(1, Reg("gs"))
            assert summary.inductions == (("i", step),)
            assert [load[2] for load in summary.loads] == [step]

    def test_carried_non_data_register(self):
        text = _variant(body="    %k = mul %k, 2\n", head="  %k = mov 1\n")
        assert _summary(text).reason == "carried"


@pytest.fixture
def skips(monkeypatch):
    """Every ``_skip_stretch`` result (trips skipped, 0, or -1 for a
    bounds refusal), also for launches that raise."""
    results = []
    original = _BatchedRun._skip_stretch

    def spy(self, *args):
        results.append(original(self, *args))
        return results[-1]

    monkeypatch.setattr(_BatchedRun, "_skip_stretch", spy)
    return results


def _error(**launch_args):
    with pytest.raises(SimulationError) as err:
        _launch(**launch_args)
    return str(err.value)


class TestEngineExtrapolation:
    def test_sampled_compiled_skips_with_identical_events(self):
        kernel = parse_kernel(LOOP)
        ref = _launch(kernel, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert got.steps[0].sampled_blocks == 3
        assert loops["exec.loop.trips_extrapolated"] > 0
        # Observability only: the profile carries no loop counters.
        assert not any(k.startswith("exec.") for k in got.steps[0].events)

    def test_launch_constant_stride_skips_with_identical_events(self):
        kernel = parse_kernel(ARG_LOOP)
        ref = _launch(kernel, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert loops["exec.loop.trips_extrapolated"] > 0

    def test_non_int_launch_constant_step_simulates_every_trip(self):
        # A float launch constant makes the per-trip step a float: no
        # period exists, so every trip runs (indices still truncate).
        kernel = parse_kernel(ARG_LOOP)
        ref = _launch(kernel, backend="interpreted", stride=64.0)
        got, loops = _loop_counters(lambda: _launch(kernel, stride=64.0))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert "exec.loop.trips_extrapolated" not in loops
        assert loops["exec.loop.fallback.launch_constant"] >= 1

    def test_register_step_skips_with_identical_events(self):
        kernel = parse_kernel(GRID_STRIDE)
        ref = _launch(kernel, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert loops["exec.loop.trips_extrapolated"] > 0
        assert not any(key.startswith("exec.loop.fallback") for key in loops)

    def test_register_step_not_held_as_a_scalar_falls_back(self, monkeypatch):
        """A launch-uniform step register that the run state holds as
        ``(B, 1)`` is resolved from its held value at loop entry: not an
        integer ``()`` scalar, so every trip is simulated."""
        special = _BatchedRun._special

        def column_ntid(self, kind):
            value = special(self, kind)
            if kind == "ntid":
                return np.full((self.nblocks, 1), value)
            return value

        monkeypatch.setattr(_BatchedRun, "_special", column_ntid)
        kernel = parse_kernel(GRID_STRIDE)
        ref = _launch(kernel, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert "exec.loop.trips_extrapolated" not in loops
        assert loops["exec.loop.fallback.launch_constant"] >= 1

    def test_period_follows_the_segment_pattern(self):
        # Consecutive lanes step one element per trip: a warp touches one
        # 128-byte segment when its first index is aligned, else two, so
        # the per-trip events repeat only every 32 trips.
        text = LOOP.replace("%off = mul %i, 64", "%off = mov %i").replace(
            "%len = min %len0, 40", "%len = min %len0, 100"
        )
        kernel = parse_kernel(text)
        n = 3 * GRID * BLOCK * TRIPS  # 100 trips in every lane
        ref = _launch(kernel, n=n, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel, n=n))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert loops["exec.loop.trips_extrapolated"] > 0

    def test_exited_lanes_keep_their_induction(self):
        # Lanes 0-7 leave after 3 trips; skips in the 97-trip stretch that
        # follows must not advance their %i, which branches after the loop.
        text = LOOP.replace(
            "%len = min %len0, 40",
            "%few = lt %t, 8\n  %most = min %len0, 100\n"
            "  %len = sel %few, 3, %most",
        ).replace("%z = eq %t, 0", "%z = lt %i, 50")
        kernel = parse_kernel(text)
        n = 3 * GRID * BLOCK * TRIPS
        ref = _launch(kernel, n=n, backend="interpreted")
        got, loops = _loop_counters(lambda: _launch(kernel, n=n))
        assert ref.steps[0].events["branch.divergent"] > 0
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert loops["exec.loop.trips_extrapolated"] > 0

    @pytest.mark.parametrize(
        "reason", ["sanitizer", "unsampled", "interpreted"]
    )
    def test_fallbacks_simulate_every_trip(self, reason):
        args = {
            "sanitizer": {"sanitizer": Sanitizer()},
            "unsampled": {"sample_limit": None},
            "interpreted": {"backend": "interpreted"},
        }[reason]
        kernel = parse_kernel(LOOP)
        ref = _launch(kernel, backend="interpreted",
                      sample_limit=args.get("sample_limit", 3))
        got, loops = _loop_counters(lambda: _launch(kernel, **args))
        assert dict(got.steps[0].events) == dict(ref.steps[0].events)
        assert "exec.loop.trips_extrapolated" not in loops
        assert loops[f"exec.loop.fallback.{reason}"] >= 1

    def test_data_dependent_plan_kernel_disables_extrapolation(self):
        # A later kernel that branches on what the first one wrote makes
        # the whole plan ineligible: skipped trips change the stored data.
        consumer = parse_kernel("""
.kernel consumer(params: -; buffers: out)
  %v = ld.global [out + 0]
  %c = gt %v, 0.0
  if %c {
    %w = add %v, 1.0
  }
""")
        device = Device()
        n = GRID * BLOCK * TRIPS
        device.alloc("in", n, dtype=np.float32)
        device.alloc("out", GRID, dtype=np.float32)
        plan = Plan(name="p", steps=[
            KernelStep(parse_kernel(LOOP), grid=GRID, block=BLOCK,
                       args={"n": n}, buffers={"in": "in", "out": "out"}),
            KernelStep(consumer, grid=1, block=32, buffers={"out": "out"}),
        ])
        _, loops = _loop_counters(
            lambda: Executor(device=device).run_plan(plan, sample_limit=3)
        )
        assert "exec.loop.trips_extrapolated" not in loops
        assert loops["exec.loop.fallback.data_dependent"] >= 1

    def test_out_of_bounds_inside_skippable_range(self, skips):
        # The buffer ends 300 elements into the sampled tail block's
        # range, so its loads run off it at trip 4 of a 40-trip stretch.
        # The closed-form check refuses the skip; simulation raises.
        kernel = parse_kernel(LOOP)
        n = GRID * BLOCK * TRIPS
        size = n - BLOCK * TRIPS + 300
        interpreted = _error(kernel=kernel, n=n, size=size,
                             backend="interpreted")
        compiled = _error(kernel=kernel, n=n, size=size)
        assert compiled == interpreted
        assert "out-of-bounds access to global buffer 'in'" in compiled
        assert -1 in skips

    def test_out_of_bounds_with_launch_constant_stride(self, skips):
        # As above, with the per-trip step resolved from the launch.
        kernel = parse_kernel(ARG_LOOP)
        n = GRID * BLOCK * TRIPS
        size = n - BLOCK * TRIPS + 300
        interpreted = _error(kernel=kernel, n=n, size=size,
                             backend="interpreted")
        compiled = _error(kernel=kernel, n=n, size=size)
        assert compiled == interpreted
        assert "out-of-bounds access to global buffer 'in'" in compiled
        assert -1 in skips

    def test_loop_cap_reached_inside_skipped_trips(self, skips):
        # A never-ending loop with an invariant load: skipping runs up to
        # the cap, and the cap error is raised at the same trip.
        text = _variant(cond="%c = ge %i, 0").replace(
            "    %off = mul %i, 64\n    %idx = add %start, %off\n", ""
        ).replace("[in + %idx]", "[in + %t]")
        kernel = parse_kernel(text)
        interpreted = _error(kernel=kernel, backend="interpreted", LOOP_CAP=3000)
        compiled = _error(kernel=kernel, LOOP_CAP=3000)
        assert compiled == interpreted
        assert "iteration cap (3000)" in compiled
        assert sum(t for t in skips if t > 0) > 2900
