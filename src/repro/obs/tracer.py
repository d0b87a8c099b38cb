"""Process-wide hierarchical span tracer.

Design constraints, in priority order:

1. **Zero overhead when disabled.** Instrumented code calls
   ``get_tracer().span(name, **attrs)`` unconditionally; a disabled
   tracer returns one shared :class:`_NullSpan` singleton whose
   ``__enter__``/``__exit__``/``set`` are empty methods — no timestamp
   is read, no dict is touched, nothing allocates per call beyond the
   keyword dict the caller builds. All instrumentation sits at
   operation granularity (per launch, per pass, per plan build), never
   inside the simulator's per-instruction loops.
2. **Deterministic cross-process merge.** Sweep workers capture the
   spans they record (:meth:`Tracer.capture`) and ship them back as
   plain dicts; the parent merges them in submission order with a
   synthetic worker thread id. ``time.perf_counter`` is
   ``CLOCK_MONOTONIC`` on Linux — system-wide, so parent and worker
   timestamps land on one consistent timeline.
3. **Bounded memory.** A tracer keeps at most ``max_spans`` spans and
   counts the overflow in :attr:`Tracer.dropped`.

Activation: set ``REPRO_TRACE=<path>`` to enable the process tracer and
write a Chrome ``trace_event`` JSON to ``<path>`` at interpreter exit,
or call :func:`enable_tracing` (what ``python -m repro trace`` does).
"""

from __future__ import annotations

import atexit
import os
import threading
import time

#: Environment variable: when set, tracing is on for the whole process
#: and the trace is written to the variable's value at exit.
TRACE_ENV = "REPRO_TRACE"

#: Default bound on retained spans (overflow increments ``dropped``).
DEFAULT_MAX_SPANS = 1_000_000


class _NullSpan:
    """Shared no-op span: the disabled tracer's entire fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed operation; also its own context manager."""

    __slots__ = ("name", "ts", "dur", "tid", "depth", "args", "_tracer")

    def __init__(self, name, ts=0.0, dur=0.0, tid=0, depth=0, args=None,
                 tracer=None):
        self.name = name
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.depth = depth
        self.args = args if args is not None else {}
        self._tracer = tracer

    def set(self, **attrs) -> None:
        """Attach (or overwrite) structured attributes."""
        self.args.update(attrs)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "tid": self.tid,
            "depth": self.depth,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: dict, tid=None) -> "Span":
        return cls(
            name=data["name"],
            ts=data.get("ts", 0.0),
            dur=data.get("dur", 0.0),
            tid=data.get("tid", 0) if tid is None else tid,
            depth=data.get("depth", 0),
            args=dict(data.get("args", ())),
        )

    def __enter__(self):
        tracer = self._tracer
        local = tracer._local
        self.depth = getattr(local, "depth", 0)
        local.depth = self.depth + 1
        self.ts = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.dur = time.perf_counter() - self.ts
        tracer = self._tracer
        tracer._local.depth = self.depth
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer._record(self)
        return False

    def __repr__(self):
        return (
            f"Span({self.name!r}, ts={self.ts:.6f}, dur={self.dur:.6f}, "
            f"tid={self.tid}, args={self.args!r})"
        )


class _Capture:
    """Context manager collecting spans recorded by the current thread."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.spans = []

    def __enter__(self):
        local = self._tracer._local
        stack = getattr(local, "captures", None)
        if stack is None:
            stack = local.captures = []
        stack.append(self.spans)
        return self.spans

    def __exit__(self, exc_type, exc, tb):
        self._tracer._local.captures.remove(self.spans)
        return False


class Tracer:
    """Records spans process-wide; thread-safe; enable/disable in place."""

    def __init__(self, enabled: bool = False, path: str = None,
                 max_spans: int = DEFAULT_MAX_SPANS):
        self.enabled = enabled
        #: Where the atexit hook (env activation) writes the trace;
        #: ``None`` disables the hook.
        self.path = path
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans = []
        self._local = threading.local()
        self._next_tid = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, **args):
        """A context-managed span — the shared no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, tid=self._tid(), args=args, tracer=self)

    def _tid(self) -> int:
        # Stored on the thread-local, not keyed by threading.get_ident():
        # the OS recycles idents after a thread exits, so an ident-keyed
        # table hands a dead thread's tid to an unrelated new thread and
        # their spans interleave on one trace row. A thread-local id
        # assigned from a monotonic counter is unique for the lifetime
        # of the trace.
        tid = getattr(self._local, "tid", None)
        if tid is None:
            with self._lock:
                tid = self._next_tid
                self._next_tid += 1
            self._local.tid = tid
        return tid

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(span)
        captures = getattr(self._local, "captures", None)
        if captures:
            for bucket in captures:
                bucket.append(span)

    # -- worker capture / merge ---------------------------------------

    def capture(self) -> _Capture:
        """Collect the spans this thread records inside a ``with`` block
        (used by sweep workers to ship their spans to the parent)."""
        return _Capture(self)

    def merge(self, span_dicts, tid: int = None) -> None:
        """Append spans serialized by :meth:`Span.as_dict` (e.g. from a
        worker process), optionally remapping them onto one thread id.
        Call in submission order for a deterministic merged trace."""
        spans = [Span.from_dict(d, tid=tid) for d in span_dicts]
        with self._lock:
            for span in spans:
                if len(self._spans) >= self.max_spans:
                    self.dropped += 1
                else:
                    self._spans.append(span)

    # -- inspection / lifecycle ---------------------------------------

    @property
    def spans(self) -> list:
        """Snapshot of recorded spans (chronology of completion)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def export_chrome(self, path) -> int:
        """Write the Chrome ``trace_event`` JSON; returns span count."""
        from .export import write_chrome_trace

        spans = self.spans
        write_chrome_trace(spans, path)
        return len(spans)

    def export_collapsed(self, path) -> int:
        """Write a collapsed-stack flamegraph (``flamegraph.pl`` /
        speedscope input); returns the number of stack lines."""
        from .export import write_collapsed

        return write_collapsed(self.spans, path)


# ---------------------------------------------------------------------
# process-wide singleton
# ---------------------------------------------------------------------

_tracer = None
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process tracer (created on first use; env-activated)."""
    global _tracer
    if _tracer is None:
        with _tracer_lock:
            if _tracer is None:
                path = os.environ.get(TRACE_ENV) or None
                tracer = Tracer(enabled=bool(path), path=path)
                if path:
                    atexit.register(_write_at_exit)
                _tracer = tracer
    return _tracer


def enable_tracing(path: str = None) -> Tracer:
    """Turn the process tracer on (keeps already-recorded spans)."""
    tracer = get_tracer()
    tracer.enabled = True
    if path is not None:
        tracer.path = path
    return tracer


def disable_tracing() -> Tracer:
    """Turn the process tracer off (spans stay until :meth:`clear`)."""
    tracer = get_tracer()
    tracer.enabled = False
    return tracer


def _write_at_exit() -> None:
    tracer = _tracer
    if tracer is None or not tracer.path:
        return
    spans = tracer.spans
    if not spans:
        return
    try:
        tracer.export_chrome(tracer.path)
    except OSError:
        pass  # tracing is best-effort; never fail the real work at exit
