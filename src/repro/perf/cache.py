"""Unified profile/plan cache for the simulation hot path.

One in-process store replaces the three disjoint caches the runtime
used to carry (the per-instance ``ReductionFramework`` profile cache,
the module-global baseline cache, and the ad-hoc reuse in the benchmark
harness). A key is a plain tuple of *everything that determines a
profile* — operator, element ctype, version identifier, input size,
tunables, unroll flag and the preprocessing-pass configuration — so two
framework instances built the same way share work, and a stale entry
can never be returned after any of those inputs change.

The store is a bounded LRU (``max_entries``); eviction keeps long
sweeps from growing without bound. Profiles live in process memory
only: a cold tuning sweep takes well under a second, so nothing is
persisted across processes.

Statistics (hits, misses, time saved) are tracked per process and
surfaced through ``--cache-stats`` and ``python -m repro stats``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

#: Default bound on in-memory entries (LRU eviction beyond this).
DEFAULT_MAX_ENTRIES = 4096


@dataclass
class CacheStats:
    """Per-process counters for one :class:`ProfileCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Simulation seconds spent computing entries on misses.
    compute_time_s: float = 0.0
    #: Simulation seconds *not* re-spent thanks to hits (sum of the
    #: recorded compute cost of every hit entry).
    time_saved_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "compute_time_s": round(self.compute_time_s, 6),
            "time_saved_s": round(self.time_saved_s, 6),
        }


@dataclass
class _Entry:
    value: object
    cost_s: float = 0.0


@dataclass
class ProfileCache:
    """Bounded, thread-safe, in-memory LRU profile store."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._lock = threading.RLock()
        self._mem = OrderedDict()  # key -> _Entry

    def get(self, key):
        """Cached value for ``key`` or ``None`` (which is never a value)."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._mem.move_to_end(key)
            self.stats.hits += 1
            self.stats.time_saved_s += entry.cost_s
            return entry.value

    def put(self, key, value, cost_s: float = 0.0) -> None:
        with self._lock:
            self._mem[key] = _Entry(value=value, cost_s=cost_s)
            self._mem.move_to_end(key)
            while len(self._mem) > self.max_entries:
                self._mem.popitem(last=False)
                self.stats.evictions += 1
            self.stats.stores += 1
            self.stats.compute_time_s += cost_s

    def get_or_compute(self, key, compute):
        """Return the cached value, or compute, record its cost, store."""
        value = self.get(key)
        if value is not None:
            return value
        start = time.perf_counter()
        value = compute()
        self.put(key, value, cost_s=time.perf_counter() - start)
        return value

    def touch(self, keys) -> None:
        """Re-establish LRU recency for ``keys`` (first → least recent).

        The pooled sweep inserts profiles in *completion* order,
        which varies run to run; callers that promised deterministic
        merge semantics (``profile_many``) touch the keys in submission
        order afterwards so the recency order — and hence which entries
        a bounded cache evicts next — is independent of scheduling.
        Unknown keys are skipped; no stats are recorded.
        """
        with self._lock:
            for key in keys:
                if key in self._mem:
                    self._mem.move_to_end(key)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._mem

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()


# ---------------------------------------------------------------------
# process-wide default caches
# ---------------------------------------------------------------------

_default_cache = None
_default_lock = threading.Lock()


def default_cache() -> ProfileCache:
    """The process-wide cache shared by frameworks, baselines, benches."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ProfileCache()
        return _default_cache


#: Default bound on cached built kernels (each entry holds one plan's
#: kernels + compiled closure traces; a sweep needs one per version and
#: block size).
DEFAULT_PLAN_ENTRIES = 512

_default_plan_cache = None


def default_plan_cache() -> ProfileCache:
    """The process-wide cache of *built kernels* behind plans.

    Keys hold everything that shapes a synthesized kernel — operator,
    element ctype, version identifier, block size and the preprocessing
    pass log, but not the input size or grid, which kernels read as
    launch arguments (see :func:`repro.codegen.synthesize.kernel_key`);
    values are tuples of :class:`~repro.vir.program.Kernel` objects
    carrying memoized compiled closure traces and batchability
    summaries, which :func:`~repro.codegen.synthesize.build_plan_cached`
    assembles into a plan per call.
    """
    global _default_plan_cache
    with _default_lock:
        if _default_plan_cache is None:
            _default_plan_cache = ProfileCache(max_entries=DEFAULT_PLAN_ENTRIES)
        return _default_plan_cache
