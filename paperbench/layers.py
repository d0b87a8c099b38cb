"""Per-layer span recorder for the traced benchmark run.

The program is not instrumented for this: :func:`install` replaces each
layer's public entry point *at the attribute its caller looks the name
up through* (``repro.runtime.session.plan_time``,
``repro.codegen.synthesize.build_plan``, ``Executor.run_kernel``, ...)
with a wrapper that records one span per call. Every span knows the
time its nested spans took, so a layer's **self time** is its spans'
durations minus their children's; summed over layers, self times plus
the explicitly reported unattributed remainder equal the traced wall
time exactly.

Spans are kept as running totals in memory (one recorder per process)
and read out once, by :meth:`Recorder.metrics`, when the workload ends.
Only the thread that installed the recorder is traced: the sweep
scheduler's helper threads never call a wrapped entry point on the
paths this benchmark drives.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict

#: Layers whose self time the traced run reports, in report order, with
#: the metric name that carries each one's self time.
LAYER_SELF_METRICS = (
    ("frontend.load", "frontend.load_s"),
    ("frontend.passes", "frontend.passes_s"),
    ("codegen", "codegen.plan_build_s"),
    ("gpusim.prepare", "gpusim.prepare_s"),
    ("gpusim.engine", "gpusim.engine_s"),
    ("timing", "timing.model_s"),
    ("perf.cache", "perf.cache_s"),
    ("perf.parallel", "perf.sched_self_s"),
    ("runtime", "runtime.self_s"),
    ("autotune", "autotune.self_s"),
    ("baselines", "baselines.s"),
    ("apps.scan", "apps.scan_s"),
    ("apps.histogram", "apps.histogram_s"),
    ("bench.check", "bench.check_s"),
)

#: The backend every launch is expected to use: the default engine spec
#: ``auto`` resolves to the ``compiled`` backend.
REQUESTED_BACKEND = "compiled"


class Recorder:
    """Running span totals for one traced process."""

    def __init__(self):
        self._tid = threading.get_ident()
        self._stack = []
        self.started = time.perf_counter()
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.plan_lookups = 0
        self.plans_built = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.launches = []  # (seconds, sampled, sequential, backend, insts)
        self.sched = []  # pooled map_profiles: (wall_s, busy_s, workers, retries)

    # -- spans ---------------------------------------------------------

    def call(self, layer, fn, args, kwargs):
        """Run ``fn`` inside one span of ``layer``; returns (result, s)."""
        with _Span(self, layer) as span:
            result = fn(*args, **kwargs)
        return result, span.seconds

    def span(self, layer):
        """Context manager recording one span of ``layer``."""
        return _Span(self, layer)

    # -- read-out ------------------------------------------------------

    def wall_s(self) -> float:
        return time.perf_counter() - self.started

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric, from the totals recorded so far."""
        out = {}
        for layer, name in LAYER_SELF_METRICS:
            out[name] = self.self_s.get(layer, 0.0)
        accounted = sum(out[name] for _, name in LAYER_SELF_METRICS)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - accounted

        out["frontend.loads"] = self.calls["frontend.load"]
        out["codegen.plans_built"] = self.plans_built
        out["codegen.plan_hit_ratio"] = _ratio(
            self.plan_lookups - self.plans_built, self.plan_lookups
        )
        out["gpusim.artifacts_built"] = self.calls["gpusim.prepare"]

        sampled = [l for l in self.launches if l[1]]
        unsampled = [l for l in self.launches if not l[1]]
        sequential = [l for l in self.launches if l[2]]
        insts = sum(l[4] for l in self.launches)
        launch_s = sum(l[0] for l in self.launches)
        out["gpusim.launches_sampled"] = len(sampled)
        out["gpusim.launch_sampled_s"] = sum(l[0] for l in sampled)
        out["gpusim.launch_sampled_p50_ms"] = (
            statistics.median(l[0] for l in sampled) * 1e3 if sampled else 0.0
        )
        out["gpusim.launches_unsampled"] = len(unsampled)
        out["gpusim.launch_unsampled_s"] = sum(l[0] for l in unsampled)
        out["gpusim.launches_sequential"] = len(sequential)
        out["gpusim.sequential_s"] = sum(l[0] for l in sequential)
        out["gpusim.sampled_share"] = _ratio(len(sampled), len(self.launches))
        out["gpusim.sequential_share"] = _ratio(
            len(sequential), len(self.launches)
        )
        out["gpusim.sim_warp_insts"] = insts
        out["gpusim.host_ns_per_inst"] = launch_s / insts * 1e9 if insts else 0.0
        out["gpusim.backend_mismatch"] = sum(
            1 for l in self.launches if l[3] != REQUESTED_BACKEND
        )

        out["timing.calls"] = self.calls["timing"]
        out["perf.cache_hits"] = self.cache_hits
        out["perf.cache_misses"] = self.cache_misses
        out["perf.cache_hit_ratio"] = _ratio(
            self.cache_hits, self.cache_hits + self.cache_misses
        )

        wall = sum(s[0] for s in self.sched)
        busy = sum(s[1] for s in self.sched)
        capacity = sum(s[0] * s[2] for s in self.sched)
        out["perf.sched_wall_s"] = wall
        out["perf.sched_busy_s"] = busy
        out["perf.sched_util"] = _ratio(busy, capacity)
        out["perf.sched_wait_s"] = capacity - busy
        out["perf.sched_retries"] = sum(s[3] for s in self.sched)

        out["baselines.calls"] = self.calls["baselines"]
        return out


class _Span:
    """One span; its duration minus ``child_s`` is the layer's self time."""

    def __init__(self, recorder, layer):
        self._recorder = recorder
        self._layer = layer
        self.child_s = 0.0
        self.seconds = 0.0

    def __enter__(self):
        self._traced = threading.get_ident() == self._recorder._tid
        if self._traced:
            self._recorder._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        if self._traced:
            recorder = self._recorder
            recorder._stack.pop()
            recorder.self_s[self._layer] += self.seconds - self.child_s
            recorder.calls[self._layer] += 1
            if recorder._stack:
                recorder._stack[-1].child_s += self.seconds
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """Stand-in for untraced runs: spans cost one method call."""

    _span = _NullSpan()

    def span(self, layer):
        return self._span


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------
# entry-point wrappers
# ---------------------------------------------------------------------


def _function(recorder, layer, fn):
    def wrapper(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs)[0]

    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder):
    """Wrap every layer entry point for the rest of the process."""
    import repro
    import repro.autotune
    import repro.autotune.tuner as tuner
    import repro.codegen.synthesize as synthesize
    import repro.gpusim as gpusim
    import repro.perf as perf
    import repro.runtime.session as session
    from repro.apps import Histogram, Scan
    from repro.autotune import DynamicSelector
    from repro.gpusim.engine import Executor
    from repro.obs import default_metrics
    from repro.perf.cache import ProfileCache
    from repro.perf.parallel import MIN_PARALLEL_SPECS, resolve_workers
    from repro.runtime.session import ReductionFramework

    rec = recorder

    # frontend: program load + preprocessing passes (session's _frontend)
    session.load_reduction_program = _function(
        rec, "frontend.load", session.load_reduction_program)
    session.preprocess = _function(rec, "frontend.passes", session.preprocess)

    # runtime: the framework's public methods
    for name in ("run", "profile", "profile_many", "time", "best_version",
                 "build"):
        setattr(ReductionFramework, name, _function(
            rec, "runtime", ReductionFramework.__dict__[name]))

    # codegen: plan-cache lookups (runtime's build_plan_cached) and the
    # builds behind their misses (synthesize's build_plan)
    lookup = session.build_plan_cached

    def build_plan_cached(*args, **kwargs):
        rec.plan_lookups += 1
        return rec.call("codegen", lookup, args, kwargs)[0]

    session.build_plan_cached = build_plan_cached
    build = synthesize.build_plan

    def build_plan(*args, **kwargs):
        rec.plans_built += 1
        return rec.call("codegen", build, args, kwargs)[0]

    synthesize.build_plan = build_plan

    # gpusim backend prepare: the plan-cache pre-warm resolves the
    # backend through repro.gpusim.get_backend on every miss
    resolve = gpusim.get_backend

    def get_backend(name):
        return _TimedBackend(resolve(name), rec)

    gpusim.get_backend = get_backend

    # gpusim engine: plans and launches, each launch classified from
    # the profile it returns
    Executor.run_plan = _function(rec, "gpusim.engine", Executor.run_plan)
    run_kernel = Executor.run_kernel

    def traced_run_kernel(*args, **kwargs):
        profile, seconds = rec.call("gpusim.engine", run_kernel, args, kwargs)
        rec.launches.append((
            seconds,
            bool(profile.sampled_blocks),
            profile.meta.get("exec.mode") == "sequential",
            profile.meta.get("exec.backend"),
            sum(v for k, v in profile.events.items() if k.startswith("inst.")),
        ))
        return profile

    Executor.run_kernel = traced_run_kernel

    # timing model, as the runtime (and the baselines) call it
    session.plan_time = _function(rec, "timing", session.plan_time)

    # profile cache: the default instance only (the plan cache is the
    # same class and belongs to codegen)
    cache = perf.default_cache()
    get = cache.get

    def cache_get(key):
        value = rec.call("perf.cache", get, (key,), {})[0]
        if value is None:
            rec.cache_misses += 1
        else:
            rec.cache_hits += 1
        return value

    cache.get = cache_get
    for name in ("put", "touch"):
        setattr(cache, name, _function(
            rec, "perf.cache", getattr(cache, name)))
    contains = ProfileCache.__contains__

    def cache_contains(self, key):
        if self is not cache:
            return contains(self, key)
        return rec.call("perf.cache", contains, (self, key), {})[0]

    ProfileCache.__contains__ = cache_contains

    # sweep scheduler: map_profiles as profile_many looks it up; only a
    # call that dispatches to the process pool counts as scheduling
    map_profiles = session.map_profiles

    def traced_map_profiles(specs, max_workers=None, on_result=None):
        specs = list(specs)
        workers = resolve_workers(max_workers)
        pooled = workers > 1 and len(specs) >= MIN_PARALLEL_SPECS
        metrics = default_metrics()
        busy0 = cache.stats.compute_time_s
        retries0 = metrics.counter("sweep.sched.retried")
        result, seconds = rec.call(
            "perf.parallel", map_profiles, (specs,),
            {"max_workers": max_workers, "on_result": on_result},
        )
        if pooled:
            rec.sched.append((
                seconds,
                cache.stats.compute_time_s - busy0,
                min(workers, len(specs)),
                metrics.counter("sweep.sched.retried") - retries0,
            ))
        return result

    session.map_profiles = traced_map_profiles

    # autotune: the benchmark's entry points and tune_all's inner calls
    tune_version = _function(rec, "autotune", tuner.tune_version)
    tuner.tune_version = repro.autotune.tune_version = tune_version
    tuner.sweep_specs = _function(rec, "autotune", tuner.sweep_specs)
    selector_build = DynamicSelector.__dict__["build"].__func__
    DynamicSelector.build = classmethod(
        _function(rec, "autotune", selector_build))

    # baselines (CUB-like, Kokkos-like, OpenMP) as the public API
    # exports them
    for name in ("cub_time", "kokkos_time", "openmp_time"):
        setattr(repro, name, _function(
            rec, "baselines", getattr(repro, name)))

    # applications
    Scan.run = _function(rec, "apps.scan", Scan.run)
    Histogram.run = _function(rec, "apps.histogram", Histogram.run)


class _TimedBackend:
    """A registry backend whose ``prepare`` records a span."""

    def __init__(self, backend, recorder):
        self._backend = backend
        self._recorder = recorder

    def prepare(self, kernel):
        return self._recorder.call(
            "gpusim.prepare", self._backend.prepare, (kernel,), {}
        )[0]

    def __getattr__(self, name):
        return getattr(self._backend, name)
