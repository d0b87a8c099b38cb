"""Per-fragment wall-time and fallback attribution for backend traces.

The vector backend executes a kernel as a short trace of *fragments* —
fused-region mega-expressions, megafused loops, specialized shuffles —
each a closure called as ``fn(state, mask)``.  When a launch is slower
than the backend promises, the question is always "which fragment, and
did it take its fast path or fall back?".

This module answers it without touching the hot path:

* :func:`instrument_trace` wraps each *top-level* closure of a trace
  with a wall-clock shim feeding a :class:`FragmentProfiler`.  The
  executor only instruments when the tracer is enabled, and the wrapped
  trace is a per-launch copy — the backend's memoized original is never
  mutated, so disabled runs execute the exact same closures as before.
* Fallback sites (e.g. a megafused loop whose lanes diverge on
  ``continue``) call :func:`note_fallback`, which is a single
  ``getattr`` + ``None`` check on the run state — fallbacks are already
  the slow path, and the cause tally only accumulates when a profiler
  is attached.

The executor attaches the result to the launch span
(``exec.launch`` args ``fragments`` / ``fallbacks``), so Chrome traces,
the collapsed-stack flamegraph pipeline and tests all see per-fragment
wall time and *why* a fragment left its fast path.
"""

from __future__ import annotations

import time


class FragmentProfiler:
    """Accumulates per-fragment calls/wall-time and fallback causes
    for one launch (not thread-safe: one profiler per launch, and a
    launch's chunks run on one thread)."""

    __slots__ = ("totals", "fallbacks")

    def __init__(self):
        self.totals = {}  # label -> [calls, seconds]
        self.fallbacks = {}  # "label:cause" -> count

    def add(self, label: str, seconds: float) -> None:
        entry = self.totals.get(label)
        if entry is None:
            entry = self.totals[label] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    def note_fallback(self, label: str, cause: str) -> None:
        key = f"{label}:{cause}"
        self.fallbacks[key] = self.fallbacks.get(key, 0) + 1

    def span_args(self) -> dict:
        """JSON-friendly summary for the launch span's args."""
        args = {
            "fragments": {
                label: {
                    "calls": calls,
                    "wall_us": round(seconds * 1e6, 2),
                }
                for label, (calls, seconds) in sorted(self.totals.items())
            }
        }
        if self.fallbacks:
            args["fallbacks"] = dict(sorted(self.fallbacks.items()))
        return args


def fragment_label(closure, index: int) -> str:
    """Stable display label for one top-level trace closure, derived
    from the identity attributes the backends hang on their wrappers."""
    if getattr(closure, "_instrs", None) is not None:
        base = "fused.region"
    elif getattr(closure, "_loop_fused", False):
        base = "fused.loop"
    else:
        specialized = getattr(closure, "_specialized", None)
        if specialized is not None:
            base = f"spec.{specialized}"
        else:
            instr = getattr(closure, "_instr", None)
            if instr is not None:
                base = f"instr.{type(instr).__name__.lower()}"
            else:
                base = getattr(closure, "__name__", "closure")
    return f"{base}#{index}"


def instrument_trace(trace, profiler: FragmentProfiler) -> list:
    """A copy of ``trace`` whose top-level closures report wall time.

    Wrapper functions re-expose the original closure's attribute dict,
    so identity-attribute consumers (labels, tests) see through the
    shim; sub-traces captured inside control-flow closures are *not*
    wrapped — a fragment's time includes everything it runs.
    """
    wrapped = []
    for index, closure in enumerate(trace):
        wrapped.append(
            _timed(closure, profiler, fragment_label(closure, index))
        )
    return wrapped


def _timed(closure, profiler, label):
    def run(state, mask):
        start = time.perf_counter()
        try:
            return closure(state, mask)
        finally:
            profiler.add(label, time.perf_counter() - start)

    run.__dict__.update(closure.__dict__)
    run.__name__ = getattr(closure, "__name__", "closure")
    run._timed_label = label
    return run


def note_fallback(state, label: str, cause: str) -> None:
    """Record a guard-miss cause on the launch's profiler, if any.

    Called from backend fallback sites; ``state`` is the executing
    block/batch run, which carries a ``fragprof`` attribute only while
    the executor is tracing.
    """
    profiler = getattr(state, "fragprof", None)
    if profiler is not None:
        profiler.note_fallback(label, cause)
