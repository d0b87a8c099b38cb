"""Performance layer: unified profile cache + parallel sweep evaluation.

See :mod:`repro.perf.cache` for the bounded in-memory LRU cache and
:mod:`repro.perf.parallel` for the profiling pool. The batched
simulator itself lives in :mod:`repro.gpusim.engine`; ``docs/PERFORMANCE.md``
describes how the three pieces compose.
"""

from .cache import (
    CacheStats,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_PLAN_ENTRIES,
    ProfileCache,
    default_cache,
    default_plan_cache,
)
from .parallel import (
    MAX_WORKERS_ENV,
    map_profiles,
    resolve_workers,
    shutdown_scheduler,
)

__all__ = [
    "CacheStats",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_PLAN_ENTRIES",
    "MAX_WORKERS_ENV",
    "ProfileCache",
    "default_cache",
    "default_plan_cache",
    "map_profiles",
    "resolve_workers",
    "shutdown_scheduler",
]
