"""Unified profile/plan cache for the simulation hot path.

One content-hash-keyed store replaces the three disjoint caches the
runtime used to carry (the per-instance ``ReductionFramework`` profile
cache, the module-global baseline cache, and the ad-hoc reuse in the
benchmark harness). A key hashes *everything that determines a profile*
— operator, element ctype, version identifier, input size, tunables,
unroll flag and the preprocessing-pass configuration — so two framework
instances built the same way share work, and a stale entry can never be
returned after any of those inputs change.

Two tiers:

* **memory** — a bounded LRU (``max_entries``); eviction keeps long
  sweeps from growing without bound;
* **disk** (optional) — pickled entries under a directory, written
  atomically (``os.replace``) so concurrent writers — parallel sweep
  workers or several benchmark processes — can share one cache safely.
  Enable it by passing ``disk_dir`` or setting ``REPRO_CACHE_DIR``.

Statistics (hits, misses, time saved) are tracked per process and
surfaced through ``python -m repro cache``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

#: Default bound on in-memory entries (LRU eviction beyond this).
DEFAULT_MAX_ENTRIES = 4096

#: Environment variable enabling the on-disk tier for the default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DISK_SUFFIX = ".profile.pkl"


def content_key(**fields) -> str:
    """Stable content hash of keyword fields (order-independent)."""
    blob = repr(sorted(fields.items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-process counters for one :class:`ProfileCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
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
            "disk_hits": self.disk_hits,
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
    """Bounded, thread-safe, optionally disk-backed profile store."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    disk_dir: object = None  # str | Path | None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._lock = threading.RLock()
        self._mem = OrderedDict()  # key -> _Entry
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # -- core API -----------------------------------------------------

    def get(self, key: str):
        """Cached value for ``key`` or ``None`` (which is never a value)."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
                self.stats.hits += 1
                self.stats.time_saved_s += entry.cost_s
                return entry.value
            if not self.disk_dir:
                self.stats.misses += 1
                return None
        # Disk probe outside the lock: unpickling an entry must not
        # stall every other thread's memory-tier hit behind file I/O
        # (any caller may share the process-wide cache across threads).
        entry = self._disk_load(key)
        with self._lock:
            current = self._mem.get(key)
            if current is not None:
                # A concurrent put/get landed while we probed the disk;
                # its in-process object wins (callers may rely on
                # sharing the id-keyed memos hanging off it).
                self._mem.move_to_end(key)
                self.stats.hits += 1
                self.stats.time_saved_s += current.cost_s
                return current.value
            if entry is not None:
                self._insert(key, entry)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self.stats.time_saved_s += entry.cost_s
                return entry.value
            self.stats.misses += 1
            return None

    def put(self, key: str, value, cost_s: float = 0.0) -> None:
        entry = _Entry(value=value, cost_s=cost_s)
        with self._lock:
            self._insert(key, entry)
            self.stats.stores += 1
            self.stats.compute_time_s += cost_s
        # Pickle + write happen after the lock is released; the disk
        # tier is content-addressed so concurrent writers of one key
        # race benignly (os.replace is atomic, last writer wins with
        # identical content).
        self._disk_store(key, entry)

    def get_or_compute(self, key: str, compute):
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
        order afterwards so the memory tier's recency order — and hence
        which entries a bounded cache evicts next — is independent of
        scheduling. Unknown keys are skipped; no stats are recorded.
        """
        with self._lock:
            for key in keys:
                if key in self._mem:
                    self._mem.move_to_end(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._mem:
                return True
        # stat() outside the lock, same rationale as get().
        return self._disk_path(key).is_file() if self.disk_dir else False

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def clear(self, memory: bool = True, disk: bool = False) -> None:
        with self._lock:
            if memory:
                self._mem.clear()
        if disk and self.disk_dir:
            for path in self.disk_dir.glob(f"*{_DISK_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- introspection -------------------------------------------------

    def disk_info(self) -> dict:
        """Entry count and total bytes of the disk tier (zeros if off)."""
        if not self.disk_dir or not self.disk_dir.is_dir():
            return {"dir": str(self.disk_dir or ""), "entries": 0, "bytes": 0}
        entries = 0
        total_bytes = 0
        for path in self.disk_dir.glob(f"*{_DISK_SUFFIX}"):
            try:
                # stat() individually: a concurrent clear(disk=True) or
                # corrupt-entry unlink may remove files mid-walk.
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "dir": str(self.disk_dir),
            "entries": entries,
            "bytes": total_bytes,
        }

    # -- internals -----------------------------------------------------

    def _insert(self, key: str, entry: _Entry) -> None:
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}{_DISK_SUFFIX}"

    def _disk_load(self, key: str):
        if not self.disk_dir:
            return None
        path = self._disk_path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            return _Entry(value=payload["value"], cost_s=payload.get("cost_s", 0.0))
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated/corrupt file (e.g. killed writer on a non-POSIX
            # filesystem) is a miss; drop it so it gets rewritten.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, entry: _Entry) -> None:
        if not self.disk_dir:
            return
        path = self._disk_path(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.disk_dir), prefix=".tmp-", suffix=_DISK_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        {"value": entry.value, "cost_s": entry.cost_s},
                        handle,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp_name, path)  # atomic on POSIX
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # disk tier is best-effort; memory tier already holds it


# ---------------------------------------------------------------------
# process-wide default cache
# ---------------------------------------------------------------------

_default_cache = None
_default_lock = threading.Lock()


def default_cache() -> ProfileCache:
    """The process-wide cache shared by frameworks, baselines, benches.

    The disk tier is enabled when ``REPRO_CACHE_DIR`` is set at first
    use (or after :func:`configure`).
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ProfileCache(
                disk_dir=os.environ.get(CACHE_DIR_ENV) or None
            )
        return _default_cache


#: Default bound on cached built kernels (each entry holds one plan's
#: kernels + compiled closure traces; a sweep needs one per version and
#: block size).
DEFAULT_PLAN_ENTRIES = 512

_default_plan_cache = None


def default_plan_cache() -> ProfileCache:
    """The process-wide cache of *built kernels* behind plans.

    Keys hash everything that shapes a synthesized kernel — operator,
    element ctype, version identifier, block size and the preprocessing
    pass log, but not the input size or grid, which kernels read as
    launch arguments (see :func:`repro.codegen.synthesize.kernel_key`);
    values are tuples of :class:`~repro.vir.program.Kernel` objects
    carrying memoized compiled closure traces and batchability
    summaries, which :func:`~repro.codegen.synthesize.build_plan_cached`
    assembles into a plan per call. Memory tier only: the whole point
    is sharing the in-process objects (and their id-keyed memos), so a
    pickled copy would be useless.
    """
    global _default_plan_cache
    with _default_lock:
        if _default_plan_cache is None:
            _default_plan_cache = ProfileCache(max_entries=DEFAULT_PLAN_ENTRIES)
        return _default_plan_cache


def configure(max_entries: int = None, disk_dir=None) -> ProfileCache:
    """Replace the default cache (e.g. to turn the disk tier on/off)."""
    global _default_cache
    with _default_lock:
        current = _default_cache
        _default_cache = ProfileCache(
            max_entries=(
                max_entries
                if max_entries is not None
                else (current.max_entries if current else DEFAULT_MAX_ENTRIES)
            ),
            disk_dir=disk_dir,
        )
        return _default_cache
