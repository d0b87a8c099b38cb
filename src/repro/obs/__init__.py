"""Observability layer: structured tracing + metrics for the pipeline.

Zero-dependency (stdlib only) and zero-cost when disabled: the tracer
hands out a shared no-op span object unless tracing was switched on via
the ``REPRO_TRACE`` environment variable, :func:`enable_tracing`, or the
``python -m repro trace`` CLI verb. Every stage of the synthesis →
simulation pipeline is instrumented at *operation* granularity
(frontend load, preprocessing passes, plan build/compile, kernel
launches, timing-model evaluations, sweep points) — never per simulated
instruction — so the enabled overhead stays small and the disabled
overhead is unmeasurable (guarded by ``benchmarks/bench_simperf.py``).

See ``docs/OBSERVABILITY.md`` for the span catalog, the metrics
registry, and how to load traces in ``chrome://tracing`` / Perfetto.
"""

from .export import (
    chrome_trace_events,
    collapsed_stacks,
    text_summary,
    write_chrome_trace,
    write_collapsed,
)
from .metrics import MetricsRegistry, default_metrics
from .tracer import (
    TRACE_ENV,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "chrome_trace_events",
    "collapsed_stacks",
    "default_metrics",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "text_summary",
    "write_chrome_trace",
    "write_collapsed",
]
