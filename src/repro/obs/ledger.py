"""Append-only bench ledger with per-metric regression attribution.

``BENCH_searchspace.json`` is the *snapshot of record* — the committed,
human-reviewed numbers of the last blessed run.  The ledger is the
*trajectory*: every ``benchmarks/bench_simperf.py`` run appends one
schema-versioned JSON line to ``BENCH_ledger.jsonl`` (backend timings,
git sha), and ``python -m repro bench report`` judges the newest entry
against the best of the trailing window **per metric**, replacing the
old single 25%-ratio guard with attributed output:

    compiled/interpreted speedup regressed: 2.4x vs 4.58x best ...

Every watched metric is timing-derived and machine-noisy, so each
carries a tolerance band (``kind="higher"`` / ``"lower"``).

Everything is a pure function of the ledger lines, so reports are
deterministic and golden-testable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

#: Bump when the entry layout changes; readers skip newer-schema lines.
LEDGER_SCHEMA_VERSION = 1

#: Ledger file name at the repository root (next to BENCH_searchspace).
DEFAULT_LEDGER_NAME = "BENCH_ledger.jsonl"

#: Trailing entries (before the newest) the report compares against.
DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class WatchedMetric:
    """One metric the regression report judges.

    ``kind``: ``"higher"`` — bigger is better, regression when the value
    falls more than ``tolerance`` (fractional) below the window's best;
    ``"lower"`` — smaller is better, symmetric.
    """

    key: str
    kind: str
    tolerance: float = 0.0
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or self.key


#: The per-metric watchlist (keys are dotted paths into the bench
#: payload; missing keys — e.g. a metric an older bench did not emit —
#: are skipped, never treated as zero).
WATCHED_METRICS = (
    WatchedMetric("profile_large.speedup", "higher", 0.25,
                  "batched/sequential speedup"),
    WatchedMetric("compiled_executor.speedup_vs_interpreted", "higher", 0.25,
                  "compiled/interpreted speedup"),
    WatchedMetric("best_version_sweep.speedup", "higher", 0.40,
                  "warm/cold sweep speedup"),
    # The disabled-tracer cost has an absolute ceiling in the bench
    # itself; the ledger only flags order-of-magnitude blowups.
    WatchedMetric("observability.noop_span_ns", "lower", 9.0,
                  "disabled-tracer span cost (ns)"),
)


def default_ledger_path(root=None) -> str:
    return os.path.join(root or os.getcwd(), DEFAULT_LEDGER_NAME)


def _lookup(payload: dict, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def extract_metrics(bench: dict) -> dict:
    """The watched metrics present in one bench payload."""
    metrics = {}
    for watched in WATCHED_METRICS:
        value = _lookup(bench, watched.key)
        if value is not None:
            metrics[watched.key] = value
    return metrics


def _git(args, cwd):
    """stdout of ``git <args>`` in ``cwd``, or None when git fails."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_state(cwd=None) -> tuple:
    """``(sha, dirty)`` of the checkout at ``cwd``: its ``HEAD`` and
    whether a tracked file differs from it (untracked files do not
    count), or ``(None, None)`` outside a git checkout. An entry made on
    an uncommitted change says so, since ``HEAD`` is then its parent."""
    sha = (_git(["rev-parse", "HEAD"], cwd) or "").strip()
    if not sha:
        return None, None
    status = _git(["status", "--porcelain", "--untracked-files=no"], cwd)
    return sha, None if status is None else bool(status.strip())


def make_entry(bench: dict, timestamp: str = None, sha: str = None,
               cwd=None) -> dict:
    """One schema-versioned ledger record for a bench payload, stamped
    with the git state of ``cwd`` (:func:`git_state`) unless ``sha`` is
    given (its dirty flag is then unknown, None)."""
    if timestamp is None:
        import datetime

        timestamp = (
            datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")
        )
    dirty = None
    if sha is None:
        sha, dirty = git_state(cwd)
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "ts": timestamp,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "metrics": extract_metrics(bench),
        "bench": bench,
    }


def append_entry(entry: dict, path: str) -> None:
    """Append one record; the ledger is append-only by construction."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")


def read_ledger(path: str) -> list:
    """Parse the ledger, oldest first; unknown schemas and malformed
    lines are skipped (the ledger outlives any one reader version)."""
    entries = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return entries
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if (
            isinstance(entry, dict)
            and entry.get("schema") == LEDGER_SCHEMA_VERSION
        ):
            entries.append(entry)
    return entries


def detect_regressions(entries: list, window: int = DEFAULT_WINDOW) -> list:
    """Judge the newest entry against the trailing window, per metric.

    Returns one dict per regressed metric: ``{"metric", "kind",
    "value", "reference", "window", "message"}`` — empty when the
    newest entry holds up, or when there is nothing to compare against.
    A metric missing from either side (added or retired between runs,
    say) is skipped rather than read as zero.
    """
    if len(entries) < 2:
        return []
    newest = entries[-1].get("metrics", {})
    trailing = entries[-1 - window:-1]
    regressions = []
    for watched in WATCHED_METRICS:
        value = newest.get(watched.key)
        history = [
            e.get("metrics", {}).get(watched.key)
            for e in trailing
        ]
        history = [v for v in history if v is not None]
        if value is None or not history:
            continue
        if watched.kind == "lower":
            reference = min(history)
            regressed = value > reference * (1.0 + watched.tolerance)
            message = (
                f"{watched.name} regressed: {value:g} vs {reference:g} "
                f"best of last {len(history)} run(s) "
                f"(tolerance +{watched.tolerance:.0%})"
            )
        else:  # "higher"
            reference = max(history)
            regressed = value < reference * (1.0 - watched.tolerance)
            message = (
                f"{watched.name} regressed: {value:g}x vs {reference:g}x "
                f"best of last {len(history)} run(s) "
                f"(tolerance -{watched.tolerance:.0%})"
            )
        if regressed:
            regressions.append({
                "metric": watched.key,
                "kind": watched.kind,
                "value": value,
                "reference": reference,
                "window": len(history),
                "message": message,
            })
    return regressions


def format_report(entries: list, regressions: list,
                  window: int = DEFAULT_WINDOW) -> list:
    """Human-readable report lines for ``repro bench report``."""
    if not entries:
        return ["bench ledger: empty (run benchmarks/bench_simperf.py "
                "to append the first entry)"]
    newest = entries[-1]
    lines = [
        f"bench ledger: {len(entries)} entr"
        + ("y" if len(entries) == 1 else "ies")
        + f", newest {newest.get('ts')} "
        f"(sha {str(newest.get('git_sha'))[:12]}"
        + (", uncommitted changes" if newest.get("git_dirty") else "")
        + ")"
    ]
    for watched in WATCHED_METRICS:
        value = newest.get("metrics", {}).get(watched.key)
        if value is not None:
            lines.append(f"  {watched.key} = {value:g}")
    if len(entries) < 2:
        lines.append("no trailing window yet — nothing to judge against")
    elif regressions:
        lines.append(
            f"REGRESSED vs trailing window (last {window} before newest):"
        )
        lines.extend(f"  {r['message']}" for r in regressions)
    else:
        lines.append(
            f"no regressions vs trailing window "
            f"(last {min(window, len(entries) - 1)} before newest)"
        )
    return lines
