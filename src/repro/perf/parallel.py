"""Sweep fan-out over one persistent process pool.

Event profiles are architecture-independent and every (version × size ×
tunables) point is independent of every other, so the sweep behind
``best_version`` / ``tune_all`` / ``DynamicSelector.build`` is
embarrassingly parallel.  :func:`map_profiles` runs it on:

* a **persistent, lazily-created process pool** shared by every
  ``map_profiles`` / ``profile_many`` / ``tune_all`` /
  ``DynamicSelector.build`` call in the process (workers keep their
  frontend and kernel memos warm across sweeps); it is recreated when
  the worker count changes or the pool breaks;
* **kernel tasks** — the specs are partitioned into tasks that each
  share one kernel, a ``(version, block)`` (:func:`dispatch_order`),
  so a kernel is built, validated and pre-warmed in one worker rather
  than in all of them; a task is one submitted future and one reply
  message, and the largest tasks are dispatched first;
* **streaming completion** — each finished task's profiles are handed
  to the caller's ``on_result`` callback as the task lands (the parent
  inserts them into the shared cache without waiting for the sweep),
  while the returned list stays aligned with ``specs``;
* **one retry, then serial** — when a worker dies mid-sweep, completed
  tasks' results are kept and only the unfinished tasks are
  re-dispatched once on a fresh pool; whatever still fails runs serially
  in the parent, where a genuine error propagates with its original
  traceback.  A pool that cannot be constructed at all falls straight
  to serial.

Worker spans ship back with the worker's **pid**, which the parent maps
to a stable ``worker-<slot>`` trace lane — one real worker is one lane.

Telemetry flows through :mod:`repro.obs`: the ``sweep.sched.tasks``
(tasks dispatched), ``sweep.sched.retried`` (specs re-dispatched),
``pool_spawns`` and ``pool_reuses`` counters and the
``sweep.worker_util`` gauge — all surfaced by ``python -m repro stats``.
"""

from __future__ import annotations

import atexit
import os
import threading
import time

#: Environment override for the worker count (0/1 forces serial).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Upper bound on auto-selected workers; ``REPRO_MAX_WORKERS`` sets any
#: exact count.
_AUTO_WORKER_LIMIT = 8

#: Below this many outstanding profiles a pool costs more than it saves.
MIN_PARALLEL_SPECS = 4

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
        max_workers = min(os.cpu_count() or 1, _AUTO_WORKER_LIMIT)
    return max(1, int(max_workers)) if max_workers > 0 else 1


def _profile_spec(spec):
    """Worker entry point: profile one (version, n, tunables) point.

    ``spec`` is ``(op, ctype, unroll, version, n, tunables)`` with a
    picklable frozen-dataclass version/tunables. No profile cache is
    read or written here: the caller inserts the result into its own.
    Returns ``(profile, num_memsets, cost_s)``.
    """
    from ..runtime.session import _frontend, profile_point

    op, ctype, unroll, version, n, tunables = spec
    _analyzed, pre = _frontend(op, ctype, unroll)
    start = time.perf_counter()
    profile, num_memsets = profile_point(pre, version, n, tunables)
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


def _profile_task(task_specs):
    """Process-pool entry point: profile one task's specs in order, each
    through :func:`_profile_spec_traced`, and return all their results
    in one message."""
    return [_profile_spec_traced(spec) for spec in task_specs]


def predicted_cost(spec) -> float:
    """Relative simulation cost of one spec (unitless heuristic).

    Cost scales with simulated lanes × per-lane loop trips: an
    *unsampled* profile (small explicit grid) touches every element
    (cost ≈ n), a sampled one touches ``PROFILE_SAMPLE_BLOCKS`` blocks'
    worth (the sampling policy of ``repro.runtime.session``). Only the
    *order* matters — largest unsampled points first.
    """
    from ..runtime.session import PROFILE_SAMPLE_BLOCKS, SAMPLING_GRID_LIMIT

    n = int(spec[4])
    tunables = spec[5]
    block = getattr(tunables, "block", None) or 256
    grid = getattr(tunables, "grid", None) or max(1, -(-n // block))
    if grid > SAMPLING_GRID_LIMIT:
        blocks = PROFILE_SAMPLE_BLOCKS
    else:
        blocks = grid
    per_block_elems = max(block, -(-n // grid))
    return float(blocks) * per_block_elems


def _kernel(spec):
    """The ``(version, block)`` whose kernel profiles ``spec``."""
    return spec[3], getattr(spec[5], "block", None)


def _tasks(specs, order, workers) -> list:
    """Partition the spec indices ``order`` into kernel tasks.

    A task lists, in ``order``, indices whose specs share one
    :func:`_kernel`, so one worker builds, validates and pre-warms that
    kernel for all of them. A kernel's group is cut into near-equal
    consecutive pieces of at most ``ceil(len(order) / (2 * workers))``
    specs, so a sweep of at least ``2 * workers`` specs keeps at least
    that many tasks to balance over the workers. Tasks come back in
    descending summed :func:`predicted_cost`, their first index breaking
    ties.
    """
    order = list(order)
    groups = {}
    for index in order:
        groups.setdefault(_kernel(specs[index]), []).append(index)
    share = 2 * workers
    tasks = []
    for group in groups.values():
        size = len(group)
        pieces = min(size, -(-size * share // len(order)))
        tasks.extend(
            group[size * k // pieces:size * (k + 1) // pieces]
            for k in range(pieces)
        )
    return sorted(tasks, key=lambda task: (
        -sum(predicted_cost(specs[index]) for index in task), task[0]
    ))


def dispatch_order(specs, workers) -> list:
    """The sweep's kernel tasks (lists of spec indices) in dispatch
    order: :func:`_tasks` over every spec."""
    return _tasks(specs, range(len(specs)), workers)


# ---------------------------------------------------------------------
# the process-wide pool
# ---------------------------------------------------------------------

_lock = threading.Lock()
_pool = None
_pool_workers = 0
#: pid -> stable worker slot for trace-lane attribution; reset whenever
#: the pool is recreated so slots stay within [0, workers).
_slots = {}


def _get_pool(workers, metrics):
    """The persistent pool for ``workers``, or None when none can be
    constructed here."""
    global _pool, _pool_workers
    from concurrent.futures import ProcessPoolExecutor

    with _lock:
        if _pool is not None and _pool_workers == workers:
            metrics.inc("sweep.sched.pool_reuses")
            return _pool
        _shutdown_locked(wait=True)  # never fork beside a live pool
        try:
            _pool = ProcessPoolExecutor(max_workers=workers)
        except Exception:
            return None
        _pool_workers = workers
        metrics.inc("sweep.sched.pool_spawns")
        return _pool


def _discard(pool) -> None:
    """Drop a (possibly broken) pool so the next sweep respawns it, and
    join it first: forking a fresh pool while the old pool's manager
    thread still runs can hang the next wave."""
    with _lock:
        if _pool is pool:
            _shutdown_locked(wait=True)


def _shutdown_locked(wait=False) -> None:
    """Shut the persistent pool down; with ``wait``, join its manager
    thread and workers first."""
    global _pool, _pool_workers
    pool, _pool = _pool, None
    _pool_workers = 0
    _slots.clear()
    if pool is not None:
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:
            pass


def shutdown_scheduler() -> None:
    """Close the persistent pool (no-op when none was ever created).

    Tests call this before monkeypatching worker entry points so the
    next sweep forks fresh workers that inherit the patched globals.
    """
    with _lock:
        _shutdown_locked()


atexit.register(shutdown_scheduler)


def _slot(pid: int) -> int:
    with _lock:
        return _slots.setdefault(pid, len(_slots))


# ---------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------


def map_profiles(specs, max_workers=None, on_result=None):
    """Profile every spec, in parallel when it pays off.

    Returns results aligned with ``specs`` (deterministic order).
    ``on_result(index, result)`` — when given — is called once per spec.
    A pooled sweep calls it for each spec of a kernel task as the task
    completes, tasks in completion order, so the parent can insert the
    profiles into the shared cache while the sweep is still running.
    Worker spans merge into the parent trace under the owning worker's
    stable ``worker-<slot>`` lane.
    """
    from ..obs import default_metrics

    specs = list(specs)
    results = [None] * len(specs)
    metrics = default_metrics()
    metrics.observe("pool.fanout", len(specs))
    workers = resolve_workers(max_workers)
    if workers <= 1 or len(specs) < MIN_PARALLEL_SPECS:
        metrics.inc("pool.serial")
        return _run_serial(specs, range(len(specs)), results, on_result)
    workers = min(workers, len(specs))
    start = time.perf_counter()
    pending = dispatch_order(specs, workers)
    for _attempt in range(2):  # the persistent pool, then a fresh one
        pool = _get_pool(workers, metrics)
        if pool is None:
            break
        metrics.inc("sweep.sched.tasks", len(pending))
        pending = _run_wave(pool, specs, pending, results, on_result)
        if not pending:
            break
        metrics.inc("sweep.sched.retried", sum(map(len, pending)))
    for task in pending:
        _run_serial(specs, task, results, on_result)
    metrics.inc("pool.parallel")
    wall = time.perf_counter() - start
    busy = sum(r[2] for r in results)
    if wall > 0:
        metrics.gauge(
            "sweep.worker_util", round(min(1.0, busy / (workers * wall)), 4)
        )
    return results


def _run_serial(specs, indices, results, on_result):
    """Profile ``indices`` in this process; a real error propagates."""
    for index in indices:
        results[index] = _profile_spec(specs[index])
        if on_result is not None:
            on_result(index, results[index])
    return results


def _run_wave(pool, specs, tasks, results, on_result):
    """Dispatch ``tasks`` on ``pool``, one future per task; returns the
    tasks that did not finish, in dispatch order. Each finished task's
    results are recorded and streamed as it completes; after any
    failure the pool is discarded so the retry starts on fresh
    workers."""
    from concurrent.futures import as_completed

    from ..obs import get_tracer
    from ..obs.export import WORKER_TID_BASE

    tracer = get_tracer()
    submitted = {}
    unfinished = []
    for position, task in enumerate(tasks):
        try:
            future = pool.submit(_profile_task, [specs[i] for i in task])
        except RuntimeError:  # pool broken or shut down; the rest retries
            unfinished = list(range(position, len(tasks)))
            break
        submitted[future] = position
    for future in as_completed(submitted):
        position = submitted[future]
        try:
            replies = future.result()
        except Exception:  # worker death or any spec error: retry it
            unfinished.append(position)
            continue
        for index, (*result, spans, pid) in zip(tasks[position], replies):
            result = tuple(result)
            tracer.merge(spans, tid=WORKER_TID_BASE + _slot(pid))
            results[index] = result
            if on_result is not None:
                on_result(index, result)
    if unfinished:
        _discard(pool)
    return [tasks[position] for position in sorted(unfinished)]
