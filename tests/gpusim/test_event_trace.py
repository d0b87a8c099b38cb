"""Event-only launches.

A sampled ``compiled`` launch of a plan whose kernels are all
data-oblivious, and every launch of such a plan in a profile, moves no
values (``_BatchedRun.values`` is False): it runs the event halves of
its kernel's one compiled trace. It must give the events of a launch
that moves values bit for bit, raise its errors, compile no second
trace, and never run where values are observable.
"""

import numpy as np
import pytest

from repro import ReductionFramework
from repro.apps import Histogram
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.codegen import Tunables
from repro.codegen import build_plan_cached
from repro.gpusim import Executor, SimulationError
from repro.gpusim.compile import _KernelCompiler
from repro.gpusim.device import Device
from repro.gpusim.engine import _BatchedRun
from repro.obs import default_metrics, get_tracer
from repro.perf import cache as perf_cache
from repro.runtime.session import _profile_plan
from repro.sanitize import Sanitizer
from repro.vir import KernelStep
from repro.vir.assembler import parse_kernel
from repro.vir.program import Plan

PAIRS = [("add", "float"), ("add", "int"), ("max", "float")]

#: Sampled at both block sizes (grid > 64), with a ragged tail block.
N = 300_007

BLOCK = 64
GRID = 16


def _full_trace(monkeypatch):
    """Make every event-only launch move values and simulate its
    launch-invariant suffix, never reading the suffix memo (trip skipping
    stays on, so only the values differ)."""
    run = _BatchedRun.run

    def moving_values(self):
        self.values = True
        return run(self)

    monkeypatch.setattr(_BatchedRun, "run", moving_values)
    monkeypatch.setattr(
        _BatchedRun, "_run_suffix",
        lambda self, trace, mask: self._run_trace(trace, mask),
    )


def _assert_events_match_full(plan, n, monkeypatch):
    got = _profile_plan(plan, n)
    with monkeypatch.context() as patch:
        _full_trace(patch)
        ref = _profile_plan(plan, n)
    # Every launch of a data-oblivious profile is event-only.
    kinds = [step.meta["exec.trace"] for step in got.steps]
    assert kinds == ["events"] * len(got.steps)
    assert len(got.steps) == len(ref.steps)
    for step, ref_step in zip(got.steps, ref.steps):
        assert dict(step.events) == dict(ref_step.events), step.kernel_name


@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("op, ctype", PAIRS)
def test_catalog_events_match_full_trace(op, ctype, block, monkeypatch):
    fw = ReductionFramework(op=op, ctype=ctype)
    for label in fw.catalog:
        plan = fw.build(label, N, Tunables(block=block))
        _assert_events_match_full(plan, N, monkeypatch)


@pytest.mark.parametrize("op", ["add", "max"])
@pytest.mark.parametrize("build", [build_cub_plan, build_kokkos_plan])
def test_baseline_events_match_full_trace(build, op, monkeypatch):
    _assert_events_match_full(build(N, op), N, monkeypatch)


# -- errors ------------------------------------------------------------

#: A data-oblivious kernel: lane t of block b reads in[64 b + t], then
#: runs ``body`` (which leaves its result in %r); lane 0 stores it.
TEMPLATE = """
.kernel k(params: -; buffers: in, out)
  .shared s[64]
  %t = %tid
  %b = %ctaid
  %base = mul %b, 64
  %i = add %base, %t
{body}
  %z = eq %t, 0
  if %z {{
    st.global [out + %b], %r
  }}
"""

#: name -> (body, input elements, mutation of the Shfl instruction)
ERRORS = {
    # The tail block's last 5 lanes read past the input.
    "global": ("  %r = ld.global [in + %i]", GRID * BLOCK - 5, None),
    # Lane 63 reads s[64].
    "shared": (
        "  %v = ld.global [in + %i]\n"
        "  st.shared [s + %t], %v\n"
        "  bar.sync\n"
        "  %j = add %t, 1\n"
        "  %r = ld.shared [s + %j]",
        GRID * BLOCK, None,
    ),
    # The tail block's last vector starts in bounds and ends past them.
    "vector": (
        "  %q = mul %i, 4\n"
        "  {%r, %x, %y, %w} = ld.global.v4 [in + %q]",
        GRID * BLOCK * 4 - 2, None,
    ),
    "shfl_width": (
        "  %v = ld.global [in + %i]\n  %r = shfl.down %v, 1, w=32",
        GRID * BLOCK, ("width", 5),
    ),
    "shfl_mode": (
        "  %v = ld.global [in + %i]\n  %r = shfl.down %v, 1, w=32",
        GRID * BLOCK, ("mode", "bogus"),
    ),
}


def _error_kernel(name):
    body, _size, mutation = ERRORS[name]
    kernel = parse_kernel(TEMPLATE.format(body=body))
    if mutation is not None:
        # The dataclass validates at construction; mutate afterwards to
        # prove every trace re-validates at execution time.
        shfl = next(i for i in kernel.body if type(i).__name__ == "Shfl")
        setattr(shfl, *mutation)
    return kernel


def _launch(kernel, size, backend="compiled", sample_limit=3, sanitizer=None):
    device = Device()
    device.alloc("in", size, dtype=np.float32)
    device.alloc("out", GRID, dtype=np.float32)
    executor = Executor(device=device, backend=backend, sanitizer=sanitizer)
    step = KernelStep(kernel, grid=GRID, block=BLOCK,
                      buffers={"in": "in", "out": "out"})
    return executor.run_plan(Plan(name="p", steps=[step]),
                             sample_limit=sample_limit)


def _message(name, backend="compiled"):
    with pytest.raises(SimulationError) as info:
        _launch(_error_kernel(name), ERRORS[name][1], backend=backend)
    return str(info.value)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_errors_match_full_trace(name, monkeypatch):
    moved = []
    run = _BatchedRun.run

    def spy(self):
        moved.append(self.values)
        return run(self)

    with monkeypatch.context() as patch:
        patch.setattr(_BatchedRun, "run", spy)
        events = _message(name)
    assert moved == [False]  # the launch was event-only
    with monkeypatch.context() as patch:
        _full_trace(patch)
        full = _message(name)
    assert events == full == _message(name, backend="interpreted")
    assert events.startswith("kernel 'k': ")


# -- where launches are event-only ---------------------------------------

VALID = TEMPLATE.format(
    body="  %v = ld.global [in + %i]\n  %r = shfl.down %v, 1, w=32"
)


def test_one_compilation_per_kernel(monkeypatch):
    """The kernel-cache pre-warm compiles each kernel's one trace; value
    launches, sampled launches and profile launches all run it."""
    monkeypatch.setattr(
        perf_cache, "_default_plan_cache", perf_cache.ProfileCache()
    )
    compiled = []
    compile_trace = _KernelCompiler.compile

    def counting(self):
        compiled.append(id(self.kernel))
        return compile_trace(self)

    monkeypatch.setattr(_KernelCompiler, "compile", counting)
    fw = ReductionFramework(op="add")
    n = 100_003
    data = np.ones(n, dtype=np.float32)
    kernels = []
    for label in ("b", "f", "k", "o"):
        plan = build_plan_cached(
            fw.pre, fw.resolve(label), n, Tunables(block=64, grid=512)
        )
        kernels += [step.kernel for step in plan.kernel_steps()]
        for options in ({}, {"sample_limit": 3}, {"values": False}):
            executor = Executor()
            executor.device.upload("in", data)
            profile = executor.run_plan(plan, **options)
            assert {step.meta["exec.trace"] for step in profile.steps} == (
                {"full"} if not options else {"events"}
            )
        _profile_plan(plan, n)
    assert len(kernels) == 4
    assert sorted(compiled) == sorted(id(kernel) for kernel in kernels)


def test_trace_recorded_on_span_and_counter():
    kernel = parse_kernel(VALID)

    def events_counter():
        counters = default_metrics().snapshot(include_caches=False)["counters"]
        return counters.get("exec.trace.events", 0)

    tracer = get_tracer()
    enabled = tracer.enabled
    tracer.enabled = True
    try:
        before = events_counter()
        with tracer.capture() as captured:
            _launch(kernel, GRID * BLOCK)
            _launch(kernel, GRID * BLOCK, sample_limit=None)
        after = events_counter()
    finally:
        tracer.enabled = enabled
    launches = [s.args for s in captured if s.name == "exec.launch"]
    assert [(a["trace"], a["sampled_blocks"]) for a in launches] == [
        ("events", 3), ("full", 0),
    ]
    assert after - before == 1


def test_run_is_full_trace():
    fw = ReductionFramework()
    data = np.arange(70_001, dtype=np.float32) % 7
    for label in ("a", "p"):
        result = fw.run(data, label)
        assert result.value == float(data.sum(dtype=np.float64))
        assert {s.meta["exec.trace"] for s in result.profile.steps} == {"full"}


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_sanitizer_and_interpreted_runs_are_full_trace(backend):
    kernel = parse_kernel(VALID)
    ref = _launch(kernel, GRID * BLOCK)
    sanitized = _launch(kernel, GRID * BLOCK, backend=backend,
                        sanitizer=Sanitizer())
    plain = _launch(kernel, GRID * BLOCK, backend=backend)
    assert sanitized.steps[0].meta["exec.trace"] == "full"
    assert plain.steps[0].meta["exec.trace"] == (
        "events" if backend == "compiled" else "full"
    )
    for profile in (sanitized, plain):
        assert dict(profile.steps[0].events) == dict(ref.steps[0].events)


def test_data_dependent_plans_are_full_trace():
    # Histogram bins are addressed by the loaded keys.
    plan = Histogram(bins=64).build_plan(N)
    profile = _profile_plan(plan, N)
    assert profile.steps[0].sampled_blocks
    assert profile.steps[0].meta["exec.trace"] == "full"


#: The last instruction of TEMPLATE, and writes into the input instead.
WRITES_INTO_INPUT = {
    "store": "st.global [in + %b], %r",
    "atomic": "atom.global.device.add [in + %b], %r",
}


@pytest.mark.parametrize("write", sorted(WRITES_INTO_INPUT))
@pytest.mark.parametrize("grid", [GRID, 200])  # unsampled, sampled
def test_profile_input_is_a_read_only_zero_view(grid, write):
    """Profiles read an input of zeros that is never allocated, and a
    store or atomic into it raises, whatever trace the launch runs."""
    kernel = parse_kernel(
        TEMPLATE.format(body="  %r = ld.global [in + %i]").replace(
            "st.global [out + %b], %r", WRITES_INTO_INPUT[write]
        )
    )
    plan = Plan(name="p", steps=[KernelStep(
        kernel, grid=grid, block=BLOCK, buffers={"in": "in", "out": "out"}
    )], scratch={"out": grid})
    with pytest.raises(ValueError, match="read-only"):
        _profile_plan(plan, grid * BLOCK)
