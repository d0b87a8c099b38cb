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
* **cost-ordered dispatch** — specs are submitted in
  :func:`dispatch_order` (largest unsampled profiles first), so
  stragglers start before the cheap tail;
* **streaming completion** — each finished profile is handed to the
  caller's ``on_result`` callback as it lands (the parent inserts it
  into the shared cache without waiting for the sweep), while the
  returned list stays aligned with ``specs``;
* **one retry, then serial** — when a worker dies mid-sweep, completed
  results are kept and only the unfinished specs are re-dispatched once
  on a fresh pool; whatever still fails runs serially in the parent,
  where a genuine error propagates with its original traceback.  A pool
  that cannot be constructed at all falls straight to serial.

Worker spans ship back with the worker's **pid**, which the parent maps
to a stable ``worker-<slot>`` trace lane — one real worker is one lane.

Telemetry flows through :mod:`repro.obs`: the ``sweep.sched.retried``,
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


def dispatch_order(specs) -> list:
    """Spec indices in dispatch order: descending predicted cost,
    submission index as the deterministic tie-break."""
    return sorted(
        range(len(specs)), key=lambda i: (-predicted_cost(specs[i]), i)
    )


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
        _shutdown_locked()
        try:
            _pool = ProcessPoolExecutor(max_workers=workers)
        except Exception:
            return None
        _pool_workers = workers
        metrics.inc("sweep.sched.pool_spawns")
        return _pool


def _discard(pool) -> None:
    """Drop a (possibly broken) pool so the next sweep respawns it."""
    with _lock:
        if _pool is pool:
            _shutdown_locked()


def _shutdown_locked() -> None:
    global _pool, _pool_workers
    pool, _pool = _pool, None
    _pool_workers = 0
    _slots.clear()
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
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
    ``on_result(index, result)`` — when given — streams each completed
    profile to the caller once per spec, in completion order, so the
    parent can insert it into the shared cache while the sweep is still
    running. Worker spans merge into the parent trace under the owning
    worker's stable ``worker-<slot>`` lane.
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
    pending = dispatch_order(specs)
    for _attempt in range(2):  # the persistent pool, then a fresh one
        pool = _get_pool(workers, metrics)
        if pool is None:
            break
        pending = _run_wave(pool, specs, pending, results, on_result)
        if not pending:
            break
        metrics.inc("sweep.sched.retried", len(pending))
    _run_serial(specs, pending, results, on_result)
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


def _run_wave(pool, specs, order, results, on_result):
    """Dispatch ``order`` on ``pool``; returns the indices that did not
    finish, in cost order. Results are recorded and streamed as they
    complete; after any failure the pool is discarded so the retry
    starts on fresh workers."""
    from concurrent.futures import as_completed

    from ..obs import get_tracer
    from ..obs.export import WORKER_TID_BASE

    tracer = get_tracer()
    submitted = {}
    unfinished = []
    for position, index in enumerate(order):
        try:
            submitted[pool.submit(_profile_spec_traced, specs[index])] = index
        except RuntimeError:  # pool broken or shut down; the rest retries
            unfinished = list(order[position:])
            break
    for future in as_completed(submitted):
        index = submitted[future]
        try:
            *result, spans, pid = future.result()
        except Exception:  # worker death or any spec error: retry it
            unfinished.append(index)
            continue
        result = tuple(result)
        tracer.merge(spans, tid=WORKER_TID_BASE + _slot(pid))
        results[index] = result
        if on_result is not None:
            on_result(index, result)
    if unfinished:
        _discard(pool)
    rank = {index: position for position, index in enumerate(order)}
    return sorted(unfinished, key=rank.__getitem__)
