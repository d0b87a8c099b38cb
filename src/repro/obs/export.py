"""Trace exporters: Chrome ``trace_event`` JSON, collapsed stacks, summary.

The Chrome format is the ``traceEvents`` array of complete (``"ph":
"X"``) events understood by ``chrome://tracing`` and
https://ui.perfetto.dev — open the produced file directly. Timestamps
are microseconds relative to the earliest span, durations microseconds;
thread rows carry ``thread_name`` metadata so sweep workers (merged by
:meth:`repro.obs.tracer.Tracer.merge`) appear as ``worker-<k>`` lanes.
"""

from __future__ import annotations

import json

#: Synthetic tid base for spans merged from worker processes.
WORKER_TID_BASE = 1000


def _json_default(value):
    """Best-effort serializer for span attributes (numpy scalars etc.)."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def chrome_trace_events(spans) -> list:
    """Spans → list of Chrome ``trace_event`` dicts (one "X" per span)."""
    if not spans:
        return []
    t0 = min(span.ts for span in spans)
    events = []
    tids = set()
    for span in spans:
        tids.add(span.tid)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.ts - t0) * 1e6,
            "dur": span.dur * 1e6,
            "pid": 0,
            "tid": span.tid,
            "args": dict(span.args),
        })
    meta = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": "repro"},
    }]
    for tid in sorted(tids):
        if tid >= WORKER_TID_BASE:
            thread_name = f"worker-{tid - WORKER_TID_BASE}"
        elif tid == 0:
            thread_name = "main"
        else:
            thread_name = f"thread-{tid}"
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": thread_name},
        })
    # Stable order: metadata first, then spans by start time (ties keep
    # recording order, so the export is deterministic for a given trace).
    events.sort(key=lambda event: event["ts"])
    return meta + events


def write_chrome_trace(spans, path) -> None:
    """Write ``{"traceEvents": [...]}`` JSON loadable by chrome://tracing."""
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=_json_default)
        handle.write("\n")


def _thread_name(tid: int) -> str:
    if tid >= WORKER_TID_BASE:
        return f"worker-{tid - WORKER_TID_BASE}"
    if tid == 0:
        return "main"
    return f"thread-{tid}"


def collapsed_stacks(spans) -> list:
    """Spans → collapsed-stack lines (``frame;frame;frame <self-us>``).

    The format consumed by ``flamegraph.pl``, speedscope and inferno:
    one line per unique stack, the count being the stack's *self* time
    in integer microseconds. Nesting is reconstructed per thread from
    the recorded ``depth``; each thread's stacks are rooted at its lane
    name (``main`` / ``worker-<k>``), matching the Chrome export. The
    output is sorted, so a fixed trace yields byte-identical lines.
    """
    by_tid = {}
    for span in spans:
        by_tid.setdefault(span.tid, []).append(span)
    totals = {}
    for tid in sorted(by_tid):
        # Sort by start time; a parent enters before its children, and
        # on identical timestamps the shallower frame is the parent.
        ordered = sorted(by_tid[tid], key=lambda s: (s.ts, s.depth))
        stack = [_thread_name(tid)]
        for span in ordered:
            # depth is 0-based from the thread's outermost frame; frame
            # 0 of the stack is the synthetic thread root.
            del stack[span.depth + 1:]
            parent = ";".join(stack)
            stack.append(span.name)
            path = ";".join(stack)
            self_us = span.dur * 1e6
            totals[path] = totals.get(path, 0.0) + self_us
            # A child's time is not the parent's self time.
            totals[parent] = totals.get(parent, 0.0) - self_us
    lines = []
    for path in sorted(totals):
        value = int(round(totals[path]))
        if value > 0:
            lines.append(f"{path} {value}")
    return lines


def write_collapsed(spans, path) -> int:
    """Write collapsed stacks to ``path``; returns the line count."""
    lines = collapsed_stacks(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def text_summary(spans) -> list:
    """Per-span-name aggregate lines (count, total/mean/max duration)."""
    if not spans:
        return ["(no spans recorded)"]
    groups = {}
    for span in spans:
        entry = groups.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.dur
        entry[2] = max(entry[2], span.dur)
    width = max(len(name) for name in groups)
    lines = [f"{'span':<{width}}  {'count':>7}  {'total':>10}  "
             f"{'mean':>10}  {'max':>10}"]
    for name, (count, total, peak) in sorted(
        groups.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"{name:<{width}}  {count:>7}  {total * 1e3:>8.2f}ms  "
            f"{total / count * 1e3:>8.3f}ms  {peak * 1e3:>8.3f}ms"
        )
    return lines
