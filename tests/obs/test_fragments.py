"""Tests for per-fragment wall-time / fallback attribution.

Covers the :class:`FragmentProfiler` accumulator, the label derivation
from backend identity attributes, the trace shim (attribute-preserving,
numbers-identical), the cooperative ``note_fallback`` hook, and the
engine integration: with tracing on, vector ``exec.launch``
spans carry ``fragments`` (and ``fallbacks``) args, while events stay
bit-identical to an untraced run.
"""

import numpy as np
import pytest

from repro.codegen import Tunables
from repro.gpusim import Executor
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.obs.fragments import (
    FragmentProfiler,
    fragment_label,
    instrument_trace,
    note_fallback,
)
from repro.runtime import ReductionFramework


class TestFragmentProfiler:
    def test_add_accumulates_calls_and_seconds(self):
        prof = FragmentProfiler()
        prof.add("fused.region#0", 1e-6)
        prof.add("fused.region#0", 2e-6)
        prof.add("spec.shfl#1", 5e-6)
        assert prof.totals["fused.region#0"] == [2, pytest.approx(3e-6)]
        assert prof.totals["spec.shfl#1"] == [1, pytest.approx(5e-6)]

    def test_span_args_shape_and_order(self):
        prof = FragmentProfiler()
        prof.add("b#1", 2e-6)
        prof.add("a#0", 1e-6)
        prof.note_fallback("fused.loop#0", "divergent-continue")
        args = prof.span_args()
        assert list(args["fragments"]) == ["a#0", "b#1"]
        assert args["fragments"]["a#0"] == {"calls": 1, "wall_us": 1.0}
        assert args["fallbacks"] == {"fused.loop#0:divergent-continue": 1}

    def test_no_fallbacks_key_when_clean(self):
        prof = FragmentProfiler()
        prof.add("a#0", 1e-6)
        assert "fallbacks" not in prof.span_args()


class TestFragmentLabel:
    def test_identity_attributes_win_in_priority_order(self):
        def closure(state, mask):
            pass

        closure._instrs = ("x",)
        closure._loop_fused = True
        assert fragment_label(closure, 3) == "fused.region#3"
        del closure._loop_fused
        assert fragment_label(closure, 0) == "fused.region#0"
        del closure._instrs
        closure._loop_fused = True
        assert fragment_label(closure, 1) == "fused.loop#1"
        del closure._loop_fused
        closure._specialized = "loop"
        assert fragment_label(closure, 2) == "spec.loop#2"
        del closure._specialized

    def test_falls_back_to_instr_type_then_name(self):
        class Shfl:
            pass

        def closure(state, mask):
            pass

        closure._instr = Shfl()
        assert fragment_label(closure, 0) == "instr.shfl#0"
        del closure._instr
        assert fragment_label(closure, 4) == "closure#4"


class TestInstrumentTrace:
    def test_shim_preserves_attributes_and_reports_time(self):
        calls = []

        def closure(state, mask):
            calls.append((state, mask))
            return "ret"

        closure._instrs = ("x",)
        prof = FragmentProfiler()
        (wrapped,) = instrument_trace([closure], prof)
        assert wrapped._instrs == ("x",)
        assert wrapped._timed_label == "fused.region#0"
        assert wrapped("s", "m") == "ret"
        assert calls == [("s", "m")]
        calls_count, seconds = prof.totals["fused.region#0"]
        assert calls_count == 1 and seconds >= 0.0

    def test_profiles_even_when_closure_raises(self):
        def closure(state, mask):
            raise ValueError("boom")

        prof = FragmentProfiler()
        (wrapped,) = instrument_trace([closure], prof)
        with pytest.raises(ValueError):
            wrapped(None, None)
        assert prof.totals["closure#0"][0] == 1

    def test_original_trace_is_not_mutated(self):
        def closure(state, mask):
            pass

        trace = [closure]
        wrapped = instrument_trace(trace, FragmentProfiler())
        assert trace[0] is closure
        assert wrapped[0] is not closure


class TestNoteFallbackHook:
    def test_noop_without_profiler(self):
        class State:
            pass

        note_fallback(State(), "fused.loop#0", "divergent-continue")  # no raise

    def test_records_when_profiler_attached(self):
        class State:
            pass

        state = State()
        state.fragprof = FragmentProfiler()
        note_fallback(state, "fused.loop#0", "divergent-continue")
        assert state.fragprof.fallbacks == {"fused.loop#0:divergent-continue": 1}


@pytest.fixture(scope="module")
def fw():
    return ReductionFramework(op="add")


def _run(plan, data, backend):
    executor = Executor(mode="batched", backend=backend)
    executor.device.upload("in", data)
    return executor.run_plan(plan)


class TestEngineIntegration:
    @pytest.mark.parametrize("backend", ["vector"])
    def test_launch_spans_carry_fragment_args(self, fw, backend):
        n = 2048
        data = np.random.default_rng(3).random(n).astype(np.float32)
        plan = fw.build("b", n, Tunables(block=64, grid=8))
        ref = _run(plan, data, backend)

        tracer = get_tracer()
        was_enabled = tracer.enabled
        enable_tracing()
        try:
            with tracer.capture() as spans:
                got = _run(plan, data, backend)
        finally:
            if not was_enabled:
                disable_tracing()

        # Numbers and events are bit-identical with tracing on.
        assert got.result == ref.result
        for r, g in zip(ref.steps, got.steps):
            assert dict(g.events) == dict(r.events)

        launches = [s for s in spans if s.name == "exec.launch"]
        assert launches, "expected exec.launch spans"
        attributed = [s for s in launches if "fragments" in s.args]
        assert attributed, "launch spans must carry fragment attribution"
        for span in attributed:
            for label, row in span.args["fragments"].items():
                assert "#" in label
                assert row["calls"] >= 1
                assert row["wall_us"] >= 0.0

    def test_untraced_run_records_no_fragments(self, fw):
        n = 1024
        data = np.random.default_rng(4).random(n).astype(np.float32)
        plan = fw.build("b", n, Tunables(block=64, grid=8))
        tracer = get_tracer()
        assert not tracer.enabled
        before = len(tracer.spans)
        _run(plan, data, "vector")
        assert len(tracer.spans) == before
