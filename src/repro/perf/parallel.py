"""Work-stealing sweep scheduler over a persistent worker pool.

Event profiles are architecture-independent and every (version × size ×
tunables) point is independent of every other, so the sweep behind
``best_version`` / ``tune_all`` / ``DynamicSelector.build`` is
embarrassingly parallel.  Historically the fan-out was a blocking
``pool.map`` that tore the pool down after every call: workers rebuilt
their frameworks each sweep, specs ran in submission order so a large
unsampled profile submitted last serialized the tail, and one worker
death re-ran the *whole* spec list through the next pool class.

:class:`SweepScheduler` replaces that with:

* a **persistent, lazily-spawned process pool** shared by every
  ``map_profiles`` / ``profile_many`` / ``tune_all`` /
  ``DynamicSelector.build`` call in the process (workers keep their
  per-``(op, ctype, unroll, engine)`` framework memo warm across
  sweeps);
* **cost-ordered work stealing** — specs go into the pool's shared
  queue ordered by :func:`predicted_cost` (largest unsampled profiles
  first), and idle workers pull the next spec the moment they finish,
  so stragglers start early instead of anchoring the tail (LPT
  scheduling);
* **streaming completion** — each finished profile is handed to the
  caller's ``on_result`` callback immediately (the parent inserts it
  into the shared cache without waiting for the sweep), while the
  returned list stays aligned with ``specs``;
* **per-future fault tolerance** — when a worker dies mid-sweep
  (``BrokenProcessPool``), completed results are kept and only the
  unfinished specs are re-dispatched: first on a fresh process pool,
  then on threads, finally serially (where a genuine error propagates
  with its original traceback).

Worker spans ship back with the worker's **pid**, which the parent maps
to a stable ``worker-<slot>`` trace lane — one real worker is one lane,
regardless of which specs it stole.

Scheduler telemetry flows through :mod:`repro.obs`:
``sweep.sched.dispatched`` / ``completed`` / ``retried`` / ``steals``
counters, the ``sweep.sched.queue_depth`` histogram, pool
``pool_spawns`` / ``pool_reuses`` counters and the ``sweep.worker_util``
gauge — all surfaced by ``python -m repro stats``.
"""

from __future__ import annotations

import atexit
import os
import threading
import time

#: Environment override for the worker count (0/1 forces serial).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Environment override for the auto-selection cap (see
#: :func:`worker_cap`); ``REPRO_MAX_WORKERS`` always wins outright.
WORKER_CAP_ENV = "REPRO_WORKER_CAP"

#: Default upper bound on auto-selected workers. Overridable via
#: ``REPRO_WORKER_CAP`` so sharded sweeps on >8-core hosts can use the
#: whole machine without pinning an exact count.
DEFAULT_WORKER_CAP = 8

#: Below this many outstanding profiles a pool costs more than it saves.
MIN_PARALLEL_SPECS = 4

#: Mirrors of the sampling policy in ``repro.runtime.session``
#: (``_profile_plan``): launches whose grid exceeds the limit are
#: profiled on a few sampled blocks, everything else runs unsampled.
#: The cost heuristic only needs the same order of magnitude.
_SAMPLING_GRID_LIMIT = 64
_SAMPLE_BLOCKS = 3

_worker_frameworks = {}


def worker_cap() -> int:
    """The auto-selection cap: ``REPRO_WORKER_CAP`` or the default 8."""
    env = os.environ.get(WORKER_CAP_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap > 0:
            return cap
    return DEFAULT_WORKER_CAP


def resolve_workers(max_workers=None) -> int:
    """Effective worker count: explicit arg > env var > capped cpu count."""
    if max_workers is None:
        env = os.environ.get(MAX_WORKERS_ENV)
        if env is not None:
            try:
                max_workers = int(env)
            except ValueError:
                max_workers = None
    if max_workers is None:
        max_workers = min(os.cpu_count() or 1, worker_cap())
    return max(1, int(max_workers)) if max_workers > 0 else 1


def _profile_spec(spec):
    """Worker entry point: profile one (version, n, tunables) point.

    ``spec`` is ``(op, ctype, unroll, version, n, tunables,
    sample_limit, engine_mode, engine_backend)`` with a picklable
    frozen-dataclass version/tunables; the engine pair is the calling
    framework's spec, so every launch runs on the engine it asked for.
    Returns ``(profile, num_memsets, cost_s)``.
    """
    (op, ctype, unroll, version, n, tunables, sample_limit,
     engine_mode, engine_backend) = spec
    memo_key = (op, ctype, unroll, engine_mode, engine_backend)
    framework = _worker_frameworks.get(memo_key)
    if framework is None:
        from ..runtime.session import ReductionFramework

        framework = ReductionFramework(
            op=op, ctype=ctype, unroll=unroll,
            engine=f"{engine_mode}-{engine_backend}",
        )
        _worker_frameworks[memo_key] = framework
    start = time.perf_counter()
    profile, num_memsets = framework.profile(
        version, n, tunables, sample_limit=sample_limit
    )
    return profile, num_memsets, time.perf_counter() - start


def _profile_spec_traced(spec):
    """Process-pool entry point: ``_profile_spec`` plus the spans the
    worker recorded and the worker's pid, shipped back as plain values
    so the parent can merge the spans onto that worker's stable trace
    lane (``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so
    forked-worker timestamps line up with the parent's).
    """
    from ..obs import get_tracer

    with get_tracer().capture() as captured:
        result = _profile_spec(spec)
    return result + ([span.as_dict() for span in captured], os.getpid())


def predicted_cost(spec) -> float:
    """Relative simulation cost of one spec (unitless heuristic).

    Cost scales with simulated lanes × per-lane loop trips: an
    *unsampled* profile (small explicit grid) touches every element
    (cost ≈ n), a sampled one touches ``_SAMPLE_BLOCKS`` blocks' worth.
    The scheduler only needs the *order* right — largest unsampled
    points first — so stragglers start before the cheap tail.
    """
    n = int(spec[4])
    tunables = spec[5]
    sample_limit = spec[6]
    block = getattr(tunables, "block", None) or 256
    grid = getattr(tunables, "grid", None) or max(1, -(-n // block))
    if sample_limit is not None:
        blocks = min(grid, max(1, int(sample_limit)))
    elif grid > _SAMPLING_GRID_LIMIT:
        blocks = _SAMPLE_BLOCKS
    else:
        blocks = grid
    per_block_elems = max(block, -(-n // grid))
    return float(blocks) * per_block_elems


def dispatch_order(specs) -> list:
    """Spec indices in dispatch order: descending predicted cost,
    submission index as the deterministic tie-break."""
    return sorted(
        range(len(specs)), key=lambda i: (-predicted_cost(specs[i]), i)
    )


class _PoolUnavailable(Exception):
    """Raised when a pool class cannot even be constructed here."""


class SweepScheduler:
    """Persistent work-stealing dispatcher for profiling sweeps.

    One instance (the module singleton behind :func:`map_profiles`)
    owns one lazily-created :class:`ProcessPoolExecutor` that survives
    across sweep calls with the same effective worker count; a call
    requesting a different count recreates it.  Thread-safe: concurrent
    ``run`` calls share the pool's task queue.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._workers = 0
        #: pid -> stable worker slot for trace-lane attribution; reset
        #: whenever the pool is recreated so slots stay within
        #: [0, workers).
        self._slots = {}

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, workers, metrics):
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is not None and self._workers == workers:
                metrics.inc("sweep.sched.pool_reuses")
                return self._pool
            self._shutdown_locked()
            try:
                self._pool = ProcessPoolExecutor(max_workers=workers)
            except Exception:
                raise _PoolUnavailable
            self._workers = workers
            self._slots = {}
            metrics.inc("sweep.sched.pool_spawns")
            return self._pool

    def _discard(self, pool) -> None:
        """Drop a (possibly broken) pool so the next wave respawns."""
        with self._lock:
            if self._pool is not pool:
                return
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        pool, self._pool = self._pool, None
        self._workers = 0
        self._slots = {}
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def shutdown(self) -> None:
        """Tear the persistent pool down (tests, interpreter exit)."""
        with self._lock:
            self._shutdown_locked()

    def _slot(self, pid: int) -> int:
        with self._lock:
            return self._slots.setdefault(pid, len(self._slots))

    # -- the sweep -----------------------------------------------------

    def run(self, specs, max_workers=None, on_result=None):
        """Profile every spec; results aligned with ``specs``.

        ``on_result(index, result)`` — when given — is invoked in
        *completion* order, once per spec, as each profile lands (the
        streaming cache-insert hook). The aligned return list is
        unchanged from the historical contract.
        """
        from ..obs import default_metrics

        specs = list(specs)
        metrics = default_metrics()
        metrics.observe("pool.fanout", len(specs))
        workers = resolve_workers(max_workers)
        if workers <= 1 or len(specs) < MIN_PARALLEL_SPECS:
            metrics.inc("pool.serial")
            return _run_serial(specs, on_result)
        workers = min(workers, len(specs))
        start = time.perf_counter()
        results = [None] * len(specs)
        pending = dispatch_order(specs)
        dispatched_once = set()
        # Wave plan: the persistent process pool, one fresh process pool
        # (per-future retry after a worker death), threads, then serial.
        for kind in ("process", "process", "thread"):
            if not pending:
                break
            retried = [i for i in pending if i in dispatched_once]
            if retried:
                metrics.inc("sweep.sched.retried", len(retried))
            try:
                pending = self._run_wave(
                    kind, specs, pending, results, workers, on_result,
                    metrics, dispatched_once,
                )
            except _PoolUnavailable:
                continue
        if pending:
            metrics.inc(
                "sweep.sched.retried",
                len([i for i in pending if i in dispatched_once]),
            )
        for index in pending:  # last resort; a real error propagates
            results[index] = _profile_spec(specs[index])
            if on_result is not None:
                on_result(index, results[index])
        metrics.inc("pool.parallel")
        wall = time.perf_counter() - start
        busy = sum(r[2] for r in results if r is not None)
        if wall > 0:
            metrics.gauge(
                "sweep.worker_util",
                round(min(1.0, busy / (workers * wall)), 4),
            )
        return results

    def _run_wave(self, kind, specs, order, results, workers, on_result,
                  metrics, dispatched_once):
        """Dispatch ``order`` on one pool; returns the indices that did
        not finish (still in cost order). Successful results are
        recorded/streamed as they complete; a broken process pool is
        discarded so the next wave starts fresh."""
        from concurrent.futures import as_completed

        from ..obs import get_tracer
        from ..obs.export import WORKER_TID_BASE

        if kind == "process":
            pool = self._ensure_pool(workers, metrics)
            entry = _profile_spec_traced
        else:
            from concurrent.futures import ThreadPoolExecutor

            try:
                pool = ThreadPoolExecutor(max_workers=workers)
            except Exception:
                raise _PoolUnavailable
            entry = _profile_spec
        tracer = get_tracer()
        submitted = {}
        failed = False
        try:
            for index in order:
                try:
                    submitted[pool.submit(entry, specs[index])] = index
                except Exception:
                    failed = True
                    break  # pool already broken; the rest retries later
            dispatched_once.update(submitted.values())
            metrics.inc("sweep.sched.dispatched", len(submitted))
            unfinished = [
                i for i in order
                if i not in set(submitted.values())
            ]
            by_pid = {}
            queued = len(submitted)
            for future in as_completed(submitted):
                index = submitted[future]
                queued -= 1
                try:
                    item = future.result()
                except Exception:
                    failed = True
                    unfinished.append(index)
                    continue
                if kind == "process":
                    *result, spans, pid = item
                    result = tuple(result)
                    tracer.merge(
                        spans, tid=WORKER_TID_BASE + self._slot(pid)
                    )
                    by_pid[pid] = by_pid.get(pid, 0) + 1
                else:
                    result = item
                results[index] = result
                metrics.record(
                    counters={"sweep.sched.completed": 1},
                    observations={"sweep.sched.queue_depth": queued},
                )
                if on_result is not None:
                    on_result(index, result)
            if kind == "process" and by_pid:
                # A "steal" is a completion beyond the even share a
                # static partition would have handed that worker.
                fair = -(-sum(by_pid.values()) // workers)
                steals = sum(max(0, c - fair) for c in by_pid.values())
                if steals:
                    metrics.inc("sweep.sched.steals", steals)
        finally:
            if kind == "thread":
                pool.shutdown(wait=True)
            elif failed:
                self._discard(pool)
        position = {index: rank for rank, index in enumerate(order)}
        unfinished.sort(key=position.__getitem__)
        return unfinished


def _run_serial(specs, on_result):
    results = []
    for index, spec in enumerate(specs):
        result = _profile_spec(spec)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


# ---------------------------------------------------------------------
# process-wide scheduler singleton
# ---------------------------------------------------------------------

_scheduler = None
_scheduler_lock = threading.Lock()


def default_scheduler() -> SweepScheduler:
    """The process-wide scheduler shared by every sweep entry point."""
    global _scheduler
    if _scheduler is None:
        with _scheduler_lock:
            if _scheduler is None:
                _scheduler = SweepScheduler()
                atexit.register(shutdown_scheduler)
    return _scheduler


def shutdown_scheduler() -> None:
    """Close the persistent pool (no-op when none was ever created).

    Tests call this before monkeypatching worker entry points so the
    next sweep forks fresh workers that inherit the patched globals.
    """
    scheduler = _scheduler
    if scheduler is not None:
        scheduler.shutdown()


def map_profiles(specs, max_workers=None, on_result=None):
    """Profile every spec, in parallel when it pays off.

    Returns results aligned with ``specs`` (deterministic order).
    ``on_result(index, result)`` streams each completed profile to the
    caller the moment it lands — in completion order — so the parent
    can insert it into the shared cache while the sweep is still
    running. Falls back transparently: persistent process pool → fresh
    process pool (unfinished specs only) → threads → serial. Worker
    spans merge into the parent trace under the owning worker's stable
    ``worker-<slot>`` lane (process pools only — thread pools share the
    parent tracer, so their spans are already recorded).
    """
    return default_scheduler().run(
        specs, max_workers=max_workers, on_result=on_result
    )
