"""Event-only sampled launches.

A sampled ``compiled`` launch of a plan whose kernels are all
data-oblivious runs the kernel's event trace
(:meth:`repro.gpusim.CompiledKernel.event_trace_for`): every value-only
instruction reduced to its events. It must give the full trace's events
bit for bit, raise the full trace's errors, be built only for a sampled
launch, and never run where values are observable.
"""

import numpy as np
import pytest

from repro import ReductionFramework
from repro.apps import Histogram
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.codegen import Tunables
from repro.gpusim import CompiledKernel, Executor, SimulationError, compile_kernel
from repro.gpusim.device import Device
from repro.obs import default_metrics, get_tracer
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
    """Make every launch that would run an event trace run the full one
    (trip skipping stays on, so only the trace differs)."""
    monkeypatch.setattr(
        CompiledKernel, "event_trace_for", lambda self, kernel: self.trace
    )


def _assert_events_match_full(plan, n, monkeypatch):
    got = _profile_plan(plan, n)
    with monkeypatch.context() as patch:
        _full_trace(patch)
        ref = _profile_plan(plan, n)
    kinds = [step.meta["exec.trace"] for step in got.steps]
    assert kinds == [
        "events" if step.sampled_blocks else "full" for step in got.steps
    ]
    assert "events" in kinds
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
    built = []
    event_trace_for = CompiledKernel.event_trace_for

    def spy(self, kernel):
        built.append(kernel.name)
        return event_trace_for(self, kernel)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledKernel, "event_trace_for", spy)
        events = _message(name)
    assert built == ["k"]  # the launch ran the event trace
    with monkeypatch.context() as patch:
        _full_trace(patch)
        full = _message(name)
    assert events == full == _message(name, backend="interpreted")
    assert events.startswith("kernel 'k': ")


# -- where the event trace runs ------------------------------------------

VALID = TEMPLATE.format(
    body="  %v = ld.global [in + %i]\n  %r = shfl.down %v, 1, w=32"
)


def test_built_lazily_on_first_sampled_launch():
    kernel = parse_kernel(VALID)
    artifact = compile_kernel(kernel)
    unsampled = _launch(kernel, GRID * BLOCK, sample_limit=None)
    assert unsampled.steps[0].meta["exec.trace"] == "full"
    assert artifact.event_trace is None
    sampled = _launch(kernel, GRID * BLOCK)
    assert sampled.steps[0].meta["exec.trace"] == "events"
    assert artifact.event_trace is not None
    again = _launch(kernel, GRID * BLOCK, sample_limit=None)
    assert again.steps[0].meta["exec.trace"] == "full"


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


def test_profile_input_is_a_read_only_zero_view():
    """Profiles read an input of zeros that is never allocated, and a
    store into it raises."""
    kernel = parse_kernel(
        TEMPLATE.format(body="  %r = ld.global [in + %i]").replace(
            "st.global [out + %b], %r", "st.global [in + %b], %r"
        )
    )
    plan = Plan(name="p", steps=[KernelStep(
        kernel, grid=GRID, block=BLOCK, buffers={"in": "in", "out": "out"}
    )], scratch={"out": GRID})
    with pytest.raises(ValueError, match="read-only"):
        _profile_plan(plan, GRID * BLOCK)
