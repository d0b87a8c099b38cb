"""Process-wide metrics registry: counters, gauges, histograms.

The registry is always on — every operation is a couple of dict updates
under a lock, at operation granularity (per launch / per sweep / per
compile), so it costs nothing measurable next to the work it counts.
It aggregates what the ad-hoc signals used to scatter:

* simulator event totals per :data:`repro.gpusim.events.EVENT_KEYS`
  (``sim.<key>`` counters, fed by the executor after every launch);
* batched-vs-sequential launch counts (``exec.launch.batched`` /
  ``exec.launch.sequential``);
* compiled-trace lengths (``compile.trace_len`` histogram) and compile
  counts;
* sweep fan-out sizes and pool usage from :mod:`repro.perf.parallel`
  (``pool.fanout`` histogram, ``pool.parallel`` / ``pool.serial``);
* sweep pool health (``sweep.sched.tasks`` / ``retried`` /
  ``pool_spawns`` / ``pool_reuses`` counters and the
  ``sweep.worker_util`` gauge — worker busy-time over
  ``workers × wall`` for the last sweep);
* profile/plan cache statistics, pulled live from
  ``repro.perf.default_cache`` / ``default_plan_cache`` at snapshot
  time so they can never drift from the caches' own accounting.

``python -m repro stats`` dumps a snapshot; ``python -m repro trace``
appends one to its run summary.
"""

from __future__ import annotations

import threading


def _bucket(value: float) -> int:
    """Power-of-two histogram bucket index (0 for values < 1)."""
    bucket = 0
    value = int(value)
    while value > 1:
        value >>= 1
        bucket += 1
    return bucket


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._hists = {}

    # -- updates -------------------------------------------------------

    def inc(self, name: str, value=1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        with self._lock:
            self._gauges[name] = value

    def record(self, counters=None, gauges=None, observations=None) -> None:
        """Apply a group of updates under ONE lock acquisition.

        The executor publishes several logically-coupled metrics per
        launch — a launch counter plus its event totals — and any caller
        may launch from several threads at once.  Separate
        ``inc``/``observe`` calls leave a window where a concurrent
        ``snapshot`` sees one update without the other (a torn read);
        grouping them keeps every snapshot consistent.
        """
        with self._lock:
            if counters:
                table = self._counters
                for name, value in counters.items():
                    table[name] = table.get(name, 0) + int(value)
            if gauges:
                self._gauges.update(gauges)
            if observations:
                for name, value in observations.items():
                    self._observe_locked(name, value)

    def observe(self, name: str, value) -> None:
        """Record one histogram sample (count/total/min/max + log2 buckets).

        The buckets are power-of-two, so every value below 1 collapses
        into bucket 0 — record timings in a fixed sub-second unit
        (microseconds, with a ``_us`` name suffix so
        :meth:`summary_lines` labels the unit), never in raw seconds.
        """
        with self._lock:
            self._observe_locked(name, value)

    def _observe_locked(self, name: str, value) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = {
                "count": 0, "total": 0.0,
                "min": float("inf"), "max": float("-inf"),
                "buckets": {},
            }
        hist["count"] += 1
        hist["total"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        bucket = _bucket(value)
        hist["buckets"][bucket] = hist["buckets"].get(bucket, 0) + 1

    # -- reads ---------------------------------------------------------

    def counter(self, name: str):
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, include_caches: bool = True) -> dict:
        """One JSON-serializable view of everything the registry holds."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            hists = {}
            for name, hist in sorted(self._hists.items()):
                count = hist["count"]
                hists[name] = {
                    "count": count,
                    "total": hist["total"],
                    "min": hist["min"] if count else 0,
                    "max": hist["max"] if count else 0,
                    "mean": hist["total"] / count if count else 0,
                    "buckets": {
                        f"<2^{b + 1}": n
                        for b, n in sorted(hist["buckets"].items())
                    },
                }
        data = {"counters": counters, "gauges": gauges, "histograms": hists}
        if include_caches:
            data["caches"] = _cache_stats()
        return data

    def summary_lines(self, include_caches: bool = True) -> list:
        """Human-readable snapshot, one metric per line."""
        snap = self.snapshot(include_caches=include_caches)
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            lines.extend(
                f"  {name} = {value}" for name, value in snap["counters"].items()
            )
        if snap["gauges"]:
            lines.append("gauges:")
            lines.extend(
                f"  {name} = {value}" for name, value in snap["gauges"].items()
            )
        if snap["histograms"]:
            lines.append("histograms:")
            for name, hist in snap["histograms"].items():
                unit = _hist_unit(name)
                lines.append(
                    f"  {name}: count={hist['count']} mean={hist['mean']:.2f} "
                    f"min={hist['min']} max={hist['max']}"
                    + (f" ({unit})" if unit else "")
                )
        for cache_name, stats in snap.get("caches", {}).items():
            lines.append(f"{cache_name} cache:")
            lines.extend(f"  {key} = {value}" for key, value in stats.items())
        if not lines:
            lines.append("(no metrics recorded)")
        return lines

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


def _hist_unit(name: str) -> str:
    """Histogram display unit, derived from the name's suffix convention."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return ""


def _cache_stats() -> dict:
    """Live statistics of the process-wide profile and plan caches."""
    try:  # runtime import: obs must stay importable standalone
        from ..perf import default_cache, default_plan_cache
    except ImportError:  # pragma: no cover - only hit in partial installs
        return {}
    profile = default_cache()
    plan = default_plan_cache()
    stats = {
        "profile": profile.stats.as_dict(),
        "plan": plan.stats.as_dict(),
    }
    stats["profile"]["entries"] = len(profile)
    stats["plan"]["entries"] = len(plan)
    return stats


# ---------------------------------------------------------------------
# process-wide singleton
# ---------------------------------------------------------------------

_metrics = None
_metrics_lock = threading.Lock()


def default_metrics() -> MetricsRegistry:
    """The process metrics registry shared by every subsystem."""
    global _metrics
    if _metrics is None:
        with _metrics_lock:
            if _metrics is None:
                _metrics = MetricsRegistry()
    return _metrics
