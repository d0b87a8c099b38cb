"""Unit tests for the tracing + metrics subsystem (:mod:`repro.obs`)."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace_events,
    default_metrics,
    disable_tracing,
    enable_tracing,
    get_tracer,
    text_summary,
    write_chrome_trace,
)
from repro.obs.export import WORKER_TID_BASE
from repro.obs.tracer import _NULL_SPAN


class TestDisabledFastPath:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", n=1)
        assert span is _NULL_SPAN
        assert tracer.span("other") is span  # one singleton, no allocation
        with span as s:
            s.set(ignored=True)
        assert tracer.spans == []


class TestEnabledSpans:
    def test_span_records_timing_and_args(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", n=42) as span:
            span.set(extra="yes")
        (recorded,) = tracer.spans
        assert recorded.name == "work"
        assert recorded.args == {"n": 42, "extra": "yes"}
        assert recorded.dur >= 0
        assert recorded.ts > 0

    def test_nesting_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_exception_records_error_attr_and_propagates(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.spans
        assert span.args["error"] == "ValueError"

    def test_thread_ids_are_stable_small_ints(self):
        tracer = Tracer(enabled=True)

        def work():
            with tracer.span("t"):
                pass

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with tracer.span("main"):
            pass
        tids = {s.tid for s in tracer.spans}
        assert tids <= set(range(4))

    def test_max_spans_bound_counts_dropped(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        tracer.clear()
        assert tracer.spans == [] and tracer.dropped == 0


class TestCaptureAndMerge:
    def test_capture_collects_only_inner_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("before"):
            pass
        with tracer.capture() as captured:
            with tracer.span("inside"):
                pass
        with tracer.span("after"):
            pass
        assert [s.name for s in captured] == ["inside"]
        assert len(tracer.spans) == 3  # capture does not steal spans

    def test_merge_remaps_tid_and_round_trips(self):
        worker = Tracer(enabled=True)
        with worker.capture() as captured:
            with worker.span("worker.op", i=7):
                pass
        shipped = [s.as_dict() for s in captured]
        parent = Tracer(enabled=True)
        parent.merge(shipped, tid=WORKER_TID_BASE + 3)
        (merged,) = parent.spans
        assert merged.name == "worker.op"
        assert merged.tid == WORKER_TID_BASE + 3
        assert merged.args == {"i": 7}

    def test_merge_respects_max_spans(self):
        parent = Tracer(enabled=True, max_spans=1)
        spans = [Span(f"s{i}", ts=float(i)).as_dict() for i in range(3)]
        parent.merge(spans)
        assert len(parent.spans) == 1
        assert parent.dropped == 2


class TestExporters:
    def _spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a.one", n=1):
            with tracer.span("b.two"):
                pass
        tracer.merge(
            [Span("c.worker", ts=1.0, dur=0.5).as_dict()],
            tid=WORKER_TID_BASE,
        )
        return tracer.spans

    def test_chrome_events_structure(self):
        events = chrome_trace_events(self._spans())
        xs = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in xs} == {"a.one", "b.two", "c.worker"}
        for event in xs:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] == event["name"].split(".")[0]
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in metas
            if e["name"] == "thread_name"
        }
        assert thread_names[WORKER_TID_BASE] == "worker-0"
        assert 0 in thread_names  # main thread named

    def test_chrome_events_empty(self):
        assert chrome_trace_events([]) == []

    def test_write_chrome_trace_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._spans(), path)
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) > 0

    def test_text_summary_aggregates_per_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("x.op"):
                pass
        lines = text_summary(tracer.spans)
        assert any("x.op" in line and "3" in line for line in lines)
        assert text_summary([]) == ["(no spans recorded)"]

    def test_numpy_args_serializable(self, tmp_path):
        import numpy as np

        tracer = Tracer(enabled=True)
        with tracer.span("np", value=np.int64(7), arr=np.float32(1.5)):
            pass
        path = tmp_path / "np.json"
        write_chrome_trace(tracer.spans, path)
        event = [
            e for e in json.loads(path.read_text())["traceEvents"]
            if e["ph"] == "X"
        ][0]
        assert event["args"]["value"] == 7


class TestSingleton:
    def test_enable_disable_mutate_in_place(self):
        tracer = get_tracer()
        was_enabled, old_path = tracer.enabled, tracer.path
        try:
            enabled = enable_tracing()
            assert enabled is tracer and tracer.enabled
            disabled = disable_tracing()
            assert disabled is tracer and not tracer.enabled
        finally:
            tracer.enabled, tracer.path = was_enabled, old_path

    def test_default_metrics_is_singleton(self):
        assert default_metrics() is default_metrics()


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("missing") == 0

    def test_gauges_and_histograms(self):
        m = MetricsRegistry()
        m.gauge("g", 1.5)
        for value in (1, 2, 4, 100):
            m.observe("h", value)
        snap = m.snapshot(include_caches=False)
        assert snap["gauges"]["g"] == 1.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["min"] == 1 and hist["max"] == 100
        assert hist["mean"] == pytest.approx(107 / 4)
        assert sum(hist["buckets"].values()) == 4

    def test_snapshot_json_serializable_with_caches(self):
        m = MetricsRegistry()
        m.inc("c")
        snap = m.snapshot(include_caches=True)
        encoded = json.loads(json.dumps(snap))
        assert encoded["counters"]["c"] == 1
        assert "profile" in encoded["caches"]
        assert "plan" in encoded["caches"]
        for section in ("profile", "plan"):
            assert "hits" in encoded["caches"][section]
            assert "entries" in encoded["caches"][section]

    def test_summary_lines_cover_everything(self):
        m = MetricsRegistry()
        m.inc("count.me")
        m.gauge("gauge.me", 2)
        m.observe("hist.me", 10)
        lines = "\n".join(m.summary_lines(include_caches=False))
        for name in ("count.me", "gauge.me", "hist.me"):
            assert name in lines
        m.clear()
        assert m.snapshot(include_caches=False) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestInstrumentationIntegration:
    def test_pipeline_spans_recorded_when_enabled(self):
        """Driving the real pipeline under an enabled tracer produces
        the documented span families (module memos may suppress
        frontend/plan spans — those are asserted by the subprocess CLI
        test instead)."""
        from repro import ReductionFramework
        from repro.perf import ProfileCache

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = len(tracer.spans)
        try:
            fw = ReductionFramework(op="add", cache=ProfileCache())
            fw.time(4096, "b", "kepler")
        finally:
            tracer.enabled = was_enabled
        new = tracer.spans[before:]
        names = {s.name for s in new}
        assert "sweep.point" in names
        assert "timing.model" in names
        assert "exec.launch" in names
        launch = next(s for s in new if s.name == "exec.launch")
        assert launch.args["backend"] in ("compiled", "interpreted")
        assert launch.args["grid"] >= 1
        assert "events" in launch.args
        assert launch.args["events"].get("threads", 0) > 0

    def test_executor_metrics_counters(self):
        from repro import ReductionFramework
        from repro.perf import ProfileCache

        metrics = default_metrics()
        launches_before = metrics.counter("exec.launch.batched") + (
            metrics.counter("exec.launch.sequential")
        )
        threads_before = metrics.counter("sim.threads")
        fw = ReductionFramework(op="add", cache=ProfileCache())
        fw.profile("b", 2048)
        launches_after = metrics.counter("exec.launch.batched") + (
            metrics.counter("exec.launch.sequential")
        )
        assert launches_after > launches_before
        assert metrics.counter("sim.threads") > threads_before



# -- worker-death coverage --------------------------------------------
#
# The poisoned pool entry point must be a module-level function:
# ProcessPoolExecutor pickles the callable by qualified name, and
# fork-started children resolve it against this (already imported)
# module, inheriting the monkeypatched globals below.

_DEATH_ORIGINAL_ENTRY = None
_DEATH_POISON_N = None


def _dying_profile_entry(spec):
    import os as _os

    if spec[4] == _DEATH_POISON_N:  # spec = (op, ctype, unroll, v, n, ...)
        _os._exit(1)
    return _DEATH_ORIGINAL_ENTRY(spec)


class TestWorkerDeath:
    """A pool worker dying mid-sweep must never corrupt the trace:
    spans shipped by specs that *did* complete still merge (each under
    the owning worker's stable ``worker-<slot>`` tid, exactly once),
    completed results are kept, and only the unfinished specs are
    retried — fresh process pool, then serial — with correct
    results."""

    SIZES = [1024, 2048, 4096, 8192]

    def _specs(self):
        from repro.codegen import Tunables

        return [("b", n, Tunables(block=64, grid=8)) for n in self.SIZES]

    def test_completed_worker_spans_merge_once_with_distinct_tids(self):
        # Tracer-level contract: workers 0 and 2 completed and shipped
        # spans; worker 1 died and shipped nothing. The parent merges
        # the survivors in submission order.
        shipped = {}
        for k in (0, 2):
            worker = Tracer(enabled=True)
            with worker.capture() as captured:
                with worker.span("sweep.point", worker=k):
                    pass
            shipped[k] = [s.as_dict() for s in captured]
        parent = Tracer(enabled=True)
        for k, spans in sorted(shipped.items()):
            parent.merge(spans, tid=WORKER_TID_BASE + k)
        merged = parent.spans
        assert [s.tid for s in merged] == [
            WORKER_TID_BASE, WORKER_TID_BASE + 2,
        ]
        assert len(merged) == 2  # once per surviving worker, no dupes
        assert WORKER_TID_BASE + 1 not in {s.tid for s in merged}

    def test_pool_worker_death_retries_unfinished_and_keeps_trace_clean(
        self, monkeypatch
    ):
        """Kill the process-pool worker that picks up the poisoned spec
        (``os._exit`` skips all cleanup, as a real crash would):
        map_profiles must keep every completed result, retry only the
        unfinished specs (fresh pool, then serial — where the
        unpatched ``_profile_spec`` entry point succeeds), return
        correct aligned results, and the trace must hold each sweep
        point exactly once — completed points under stable worker tids,
        retried points under real parent tids."""
        import sys

        from repro.perf import ProfileCache, default_cache, shutdown_scheduler
        from repro.perf import parallel as parallel_mod
        from repro.runtime import ReductionFramework

        serial_fw = ReductionFramework(op="add", cache=ProfileCache())
        expected = serial_fw.profile_many(self._specs(), max_workers=1)

        this_module = sys.modules[__name__]
        monkeypatch.setattr(
            this_module, "_DEATH_ORIGINAL_ENTRY",
            parallel_mod._profile_spec_traced,
        )
        monkeypatch.setattr(this_module, "_DEATH_POISON_N", 2048)
        monkeypatch.setattr(
            parallel_mod, "_profile_spec_traced", _dying_profile_entry
        )
        # The persistent pool (if an earlier test spawned it) forked
        # before the monkeypatch; drop it so the sweep's workers fork
        # now and inherit the poisoned entry point.
        shutdown_scheduler()
        # Guarantee the traced run actually profiles (the serial pass
        # above warmed the in-process default cache the pool's worker
        # frameworks share).
        default_cache().clear()

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = len(tracer.spans)
        try:
            fw = ReductionFramework(op="add", cache=ProfileCache())
            results = fw.profile_many(self._specs(), max_workers=2)
        finally:
            tracer.enabled = was_enabled
            shutdown_scheduler()  # don't leak poisoned forks to later tests
        new = tracer.spans[before:]

        assert len(results) == len(expected)
        for (profile, memsets), (ref_profile, ref_memsets) in zip(
            results, expected
        ):
            assert memsets == ref_memsets
            assert profile.result == ref_profile.result
            for got_step, ref_step in zip(profile.steps, ref_profile.steps):
                assert dict(got_step.events) == dict(ref_step.events)

        # Exactly one sweep.point per spec overall: specs completed by
        # pool workers shipped theirs (merged under stable worker
        # slots), retried specs recorded theirs in the parent.
        points = [s for s in new if s.name == "sweep.point"]
        assert sorted(s.args["n"] for s in points) == self.SIZES
        worker_tids = {s.tid for s in points if s.tid >= WORKER_TID_BASE}
        assert worker_tids <= {WORKER_TID_BASE, WORKER_TID_BASE + 1}
        # The poisoned spec kills any process worker that touches it, so
        # its point can only have landed via the serial tail.
        poison = [s for s in points if s.args["n"] == 2048]
        assert len(poison) == 1 and poison[0].tid < WORKER_TID_BASE

    def test_healthy_pool_merges_each_point_once(self):
        """Control run: with no deaths the process pool merges shipped
        worker spans under synthetic tids, one sweep.point per spec,
        every tid inside [WORKER_TID_BASE, WORKER_TID_BASE + w)."""
        from repro.perf import ProfileCache, default_cache
        from repro.runtime import ReductionFramework

        default_cache().clear()
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        before = len(tracer.spans)
        try:
            fw = ReductionFramework(op="add", cache=ProfileCache())
            fw.profile_many(self._specs(), max_workers=2)
        finally:
            tracer.enabled = was_enabled
        new = tracer.spans[before:]
        points = [s for s in new if s.name == "sweep.point"]
        assert sorted(s.args["n"] for s in points) == self.SIZES
        worker_tids = {s.tid for s in points if s.tid >= WORKER_TID_BASE}
        if worker_tids:  # the pool ran as processes, not a fallback
            assert worker_tids <= {WORKER_TID_BASE, WORKER_TID_BASE + 1}


class TestHistogramUnits:
    """Satellite: log2 buckets collapse sub-unit values into bucket 0,
    so timing call sites record microseconds (``_us`` suffix) and
    ``summary_lines`` labels the unit."""

    def test_hist_unit_suffix_convention(self):
        from repro.obs.metrics import _hist_unit

        assert _hist_unit("plan.compile_us") == "us"
        assert _hist_unit("span.noop_ms") == "ms"
        assert _hist_unit("payload_bytes") == "bytes"
        assert _hist_unit("pool.fanout") == ""

    def test_summary_lines_label_units(self):
        m = MetricsRegistry()
        m.observe("plan.compile_us", 1234.5)
        m.observe("pool.fanout", 6)
        lines = m.summary_lines(include_caches=False)
        us_line = next(l for l in lines if "plan.compile_us" in l)
        assert us_line.endswith("(us)")
        fanout_line = next(l for l in lines if "pool.fanout" in l)
        assert not fanout_line.endswith(")")

    def test_microsecond_scale_keeps_bucket_resolution(self):
        # In seconds, 3us and 800us collapse into log2 bucket 0; in
        # microseconds they land in distinguishable buckets.
        m = MetricsRegistry()
        m.observe("t_us", 3.0)
        m.observe("t_us", 800.0)
        hist = m.snapshot(include_caches=False)["histograms"]["t_us"]
        assert len(hist["buckets"]) == 2  # distinct buckets survived
