"""High-level runtime: compile once, then run or time any code version.

:class:`ReductionFramework` is the public entry point of the library::

    from repro import ReductionFramework

    fw = ReductionFramework(op="add")
    result = fw.run(data, version="p")          # Figure 6 version (p)
    seconds = fw.time(len(data), "p", "kepler") # modelled wall time
    label, _ = fw.best_version(len(data), "maxwell")

Timing runs execute a *sampled* subset of blocks on the functional
simulator to collect events, then feed the analytic per-architecture
model. Events are architecture-independent, so one profile serves all
three GPUs; profiles live in the unified in-memory cache of
:mod:`repro.perf` (shared across framework instances in the process),
and sweeps over many (version × size × tunables) points
fan out over the :mod:`repro.perf.parallel` pool.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..baselines import CUB_HOST_OVERHEAD_S, build_cub_plan, build_kokkos_plan
from ..codegen.synthesize import (
    Tunables,
    _pipeline_fingerprint,
    build_plan_cached,
    launch_geometry,
)
from ..core.pipeline import PreprocessResult, preprocess
from ..core.sources import load_reduction_program
from ..core.variants import (
    FIG6,
    Version,
    enumerate_versions,
    fig6_label,
    prune_versions,
)
from ..cpu import openmp_reduce_time
from ..gpusim import (
    Device,
    Executor,
    PlanProfile,
    get_architecture,
    plan_time,
)
from ..obs import default_metrics, get_tracer
from ..perf import ProfileCache, default_cache, map_profiles
from ..vir import MemsetStep

#: The profiling sampling policy: a launch whose grid exceeds
#: ``SAMPLING_GRID_LIMIT`` blocks is profiled on ``PROFILE_SAMPLE_BLOCKS``
#: sampled blocks; smaller launches run unsampled.
SAMPLING_GRID_LIMIT = 64
PROFILE_SAMPLE_BLOCKS = 3

# The DSL frontend (program load + preprocessing passes) is pure per
# (op, ctype, unroll) configuration, so its results are shared across
# every ReductionFramework instance in the process. Any caller may
# construct frameworks on several threads at once, and each key must
# still be built once so every framework sees the identical program.
# Builds are serialized *per key*: holding one global lock across the
# (expensive) load would stall an (add, float) framework behind an
# unrelated (max, int) frontend build — so the global lock only guards
# the two dicts and a short per-key lock guards each build.
_frontend_lock = threading.Lock()
_FRONTEND_MEMO = {}
_FRONTEND_BUILDING = {}


def _frontend(op: str, ctype: str, unroll: bool):
    key = (op, ctype, unroll)
    entry = _FRONTEND_MEMO.get(key)  # lock-free fast path (GIL-atomic read)
    if entry is not None:
        return entry
    with _frontend_lock:
        build_lock = _FRONTEND_BUILDING.setdefault(key, threading.Lock())
    with build_lock:
        entry = _FRONTEND_MEMO.get(key)
        if entry is None:
            with get_tracer().span(
                "frontend.load", op=op, ctype=ctype, unroll=unroll
            ):
                analyzed = load_reduction_program(op, ctype)
                entry = (analyzed, preprocess(analyzed, unroll=unroll))
            _FRONTEND_MEMO[key] = entry
        return entry


@dataclass
class ReduceResult:
    """Outcome of a functional reduction run."""

    value: float
    version: Version
    label: str
    plan_name: str
    profile: PlanProfile


class ReductionFramework:
    """DSL → AST passes → version synthesis → simulation/timing.

    **Thread safety**: any caller may share one instance across threads
    and issue concurrent :meth:`run` / :meth:`profile` calls; results
    stay bit-identical to serial calls. This holds because every
    per-call mutable object — the :class:`Executor`, its
    :class:`Device`, the profile being built — is constructed inside
    the call, while all shared state is reached only through
    thread-safe components: the frontend memo above, the process-wide
    plan/profile caches, and each kernel's fact store
    (:meth:`~repro.vir.program.Kernel.fact`: plain dict reads/writes of
    values that never change once built, atomic under the GIL; a lost
    race costs a duplicate build, never a wrong result — the same holds
    for the entries of a kernel's launch-invariant suffix memo).
    Instance attributes are never written after ``__init__``.
    """

    def __init__(
        self,
        op: str = "add",
        ctype: str = "float",
        unroll: bool = False,
        cache: ProfileCache = None,
    ):
        self.op = op
        self.ctype = ctype
        self.unroll = unroll
        self.analyzed, self.pre = _frontend(op, ctype, unroll)
        self.all_versions = enumerate_versions()
        self.versions = prune_versions(self.all_versions)
        self.catalog = dict(FIG6)
        self.cache = cache if cache is not None else default_cache()

    # -- version resolution ------------------------------------------------

    def resolve(self, version) -> Version:
        if isinstance(version, Version):
            return version
        if isinstance(version, str):
            if version in self.catalog:
                return self.catalog[version]
            for candidate in self.all_versions:
                if candidate.identifier == version:
                    return candidate
            raise KeyError(
                f"unknown version {version!r}; use a Figure 6 label "
                f"(a-p) or a version identifier"
            )
        raise TypeError(f"cannot resolve version from {version!r}")

    # -- functional execution -------------------------------------------------

    def build(self, version, n: int, tunables: Tunables = None):
        return build_plan_cached(self.pre, self.resolve(version), n, tunables)

    @property
    def dtype(self):
        """Device element type implied by the DSL element type."""
        return np.int32 if self.ctype == "int" else np.float32

    def run(
        self,
        data: np.ndarray,
        version="p",
        tunables: Tunables = None,
    ) -> ReduceResult:
        """Reduce ``data`` with one synthesized version, fully executed
        on the simulator."""
        data = np.ascontiguousarray(data, dtype=self.dtype)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("run() needs a non-empty 1-D array")
        resolved = self.resolve(version)
        plan = build_plan_cached(self.pre, resolved, data.size, tunables)
        executor = Executor()
        executor.device.upload("in", data)
        profile = executor.run_plan(plan)
        return ReduceResult(
            value=profile.result,
            version=resolved,
            label=fig6_label(resolved),
            plan_name=plan.name,
            profile=profile,
        )

    # -- timing ---------------------------------------------------------------

    def profile_key(self, version, n: int, tunables: Tunables = None) -> tuple:
        """Unified-cache key for one profiling point."""
        t = tunables or Tunables()
        return (
            "profile",
            self.op,
            self.ctype,  # determines the device dtype too
            self.resolve(version).identifier,
            int(n),
            t.block,
            t.grid,
            self.unroll,
            # The pass-log fingerprint: cached profiles invalidate
            # when any pass changes behaviour.
            _pipeline_fingerprint(self.pre),
        )

    def profile(self, version, n: int, tunables: Tunables = None):
        """Sampled event profile of one version at size n (cached)."""
        resolved = self.resolve(version)
        key = self.profile_key(resolved, n, tunables)
        return self._profile(resolved, n, tunables, key)

    def _profile(self, resolved, n, tunables, key):
        entry = self.cache.get(key)
        if entry is not None:
            return entry
        start = time.perf_counter()
        entry = profile_point(self.pre, resolved, n, tunables)
        self.cache.put(key, entry, cost_s=time.perf_counter() - start)
        return entry

    def profile_many(self, specs, max_workers: int = None):
        """Profile many ``(version, n, tunables)`` points, fanning the
        missing ones out over the :mod:`repro.perf.parallel` pool.

        Each point is looked up once in this framework's cache (a hit or
        a miss in its stats) and stored once on a miss. Misses that
        launch the same plan are profiled once. Misses are computed
        without touching any cache; completed profiles **stream** into
        this framework's cache as they finish (a pooled sweep's per
        kernel task, the moment the task's worker replies, so concurrent
        readers see results mid-sweep), then the cache's LRU recency is
        re-established in spec order — the final cache state is
        deterministic regardless of worker completion order. Results
        are returned aligned with ``specs``.
        """
        resolved = [
            (self.resolve(version), int(n), tunables)
            for version, n, tunables in specs
        ]
        keys = [
            self.profile_key(version, n, tunables)
            for version, n, tunables in resolved
        ]
        entries = [self.cache.get(key) for key in keys]
        missing = [
            index for index, entry in enumerate(entries) if entry is None
        ]
        # Every miss — including a single one — goes through map_profiles,
        # so cost_s accounting and metrics are identical whether the pool
        # ran in parallel, serially, or for exactly one spec. Misses that
        # launch the same plan (one version, size and launch geometry:
        # ``grid=None`` may resolve to an explicit grid) are profiled
        # once, and the profile is stored under each of their keys.
        if missing:
            groups = {}
            for index in missing:
                version, n, tunables = resolved[index]
                geometry = launch_geometry(version, n, tunables or Tunables())
                groups.setdefault(
                    (version.identifier, n, tuple(sorted(geometry.items()))), []
                ).append(index)
            grouped = list(groups.values())
            worker_specs = [
                (
                    self.op,
                    self.ctype,
                    self.unroll,
                    *resolved[group[0]],
                )
                for group in grouped
            ]
            stored = {}  # key -> the entry this sweep put in the cache

            def _insert(position, result):
                # Streaming insert, called in completion order as each
                # worker finishes its spec.
                profile, num_memsets, cost_s = result
                for index in grouped[position]:
                    key = keys[index]
                    if key not in self.cache:
                        stored[key] = (profile, num_memsets)
                        self.cache.put(key, stored[key], cost_s=cost_s)

            results = map_profiles(
                worker_specs, max_workers=max_workers, on_result=_insert
            )
            # A duplicate spec gets the entry its twin stored first.
            for group, (profile, num_memsets, _cost) in zip(grouped, results):
                for index in group:
                    entries[index] = stored.get(
                        keys[index], (profile, num_memsets)
                    )
        # Completion order varies run to run; touching in spec order
        # restores deterministic LRU recency (and thus eviction order)
        # identical to a serial sweep.
        self.cache.touch(keys)
        metrics = default_metrics()
        metrics.inc("sweep.points", len(resolved))
        metrics.inc("sweep.misses", len(missing))
        return entries

    def time(self, n: int, version, arch, tunables: Tunables = None) -> float:
        """Modelled wall time (seconds) of one version on one architecture."""
        arch = get_architecture(arch)
        profile, num_memsets = self.profile(version, n, tunables)
        with get_tracer().span(
            "timing.model",
            arch=arch.name,
            version=self.resolve(version).identifier,
            n=int(n),
        ) as span:
            seconds = plan_time(profile, arch, num_memsets=num_memsets)
            span.set(seconds=seconds)
        return seconds

    def best_version(
        self,
        n: int,
        arch,
        candidates=None,
        tunables: Tunables = None,
        max_workers: int = None,
    ):
        """Fastest version at size n on an architecture.

        ``candidates`` defaults to the Figure 6 catalog (the versions the
        paper plots); pass ``self.versions`` for the full pruned space.
        Missing profiles are computed in parallel; the timing model then
        reads them back from the shared cache.
        """
        arch = get_architecture(arch)
        if candidates is None:
            candidates = list(self.catalog)
        self.profile_many(
            [(candidate, n, tunables) for candidate in candidates],
            max_workers=max_workers,
        )
        best_key, best_time = None, float("inf")
        for candidate in candidates:
            seconds = self.time(n, candidate, arch, tunables)
            if seconds < best_time:
                best_key, best_time = candidate, seconds
        return best_key, best_time


def profile_point(pre, version, n, tunables):
    """``(profile, num_memsets)`` of one sweep point of the frontend
    result ``pre``, computed without touching any profile cache: callers
    own the caching (:meth:`ReductionFramework._profile`, and the
    sweep workers of :mod:`repro.perf.parallel`, whose results the
    calling framework inserts)."""
    with get_tracer().span("sweep.point", version=version.identifier, n=int(n)):
        plan = build_plan_cached(pre, version, n, tunables)
        profile = _profile_plan(plan, n)
    num_memsets = sum(1 for step in plan.steps if isinstance(step, MemsetStep))
    return profile, num_memsets


# ---------------------------------------------------------------------
# Baseline timing helpers (shared by benches and examples)
# ---------------------------------------------------------------------


def _profile_plan(plan, n: int) -> PlanProfile:
    """Event profile of ``plan`` on an ``n``-element input of zeros,
    under the profiling sampling policy: a launch grid above
    ``SAMPLING_GRID_LIMIT`` blocks runs ``PROFILE_SAMPLE_BLOCKS``
    sampled blocks. A profile reads events only, so no value is
    computed (every launch of a data-oblivious plan is event-only) and
    ``result`` stays None."""
    # The input buffer's dtype must match the plan's element type — an
    # int-element framework profiles against an int32 device array (the
    # transaction/coalescing counters depend on the element width). The
    # input is a read-only zero-stride view: every reader sees zeros and
    # no n-element buffer is allocated.
    dtype = np.dtype(plan.meta.get("dtype", "float32"))
    device = Device()
    device.bind("in", np.broadcast_to(np.zeros(1, dtype=dtype), (n,)))
    executor = Executor(device=device)
    max_grid = max(step.grid for step in plan.kernel_steps())
    sample_limit = (
        None if max_grid <= SAMPLING_GRID_LIMIT else PROFILE_SAMPLE_BLOCKS
    )
    return executor.run_plan(plan, sample_limit=sample_limit, values=False)


def _baseline_profile(kind: str, n: int, op: str, build) -> PlanProfile:
    """Profile a baseline plan through the unified (bounded) cache."""
    cache = default_cache()
    key = (kind, op, int(n))

    def compute():
        return _profile_plan(build(n, op), n)

    return cache.get_or_compute(key, compute)


def cub_time(n: int, arch, op: str = "add") -> float:
    """Modelled wall time of the CUB-like baseline."""
    arch = get_architecture(arch)
    profile = _baseline_profile("cub", n, op, build_cub_plan)
    return plan_time(
        profile, arch, extra_host_overhead_s=CUB_HOST_OVERHEAD_S
    )


def kokkos_time(n: int, arch, op: str = "add") -> float:
    """Modelled wall time of the Kokkos-like baseline."""
    arch = get_architecture(arch)
    profile = _baseline_profile("kokkos", n, op, build_kokkos_plan)
    return plan_time(profile, arch)


def openmp_time(n: int) -> float:
    """Modelled wall time of the OpenMP CPU baseline."""
    return openmp_reduce_time(n)
