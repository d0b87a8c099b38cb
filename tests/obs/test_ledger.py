"""Tests for the append-only bench ledger (:mod:`repro.obs.ledger`).

Covers entry construction, the append/read round-trip (including
malformed and wrong-schema lines), per-metric regression detection for
both metric kinds, the report renderer, and the ``repro bench
report`` CLI exit codes (nonzero on an injected regression fixture).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import ledger

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bench(compiled=4.0, noop_ns=450.0):
    """A minimal bench payload shaped like bench_simperf's snapshot."""
    return {
        "profile_large": {"speedup": 14.0},
        "compiled_executor": {"speedup_vs_interpreted": compiled},
        "observability": {"noop_span_ns": noop_ns},
    }


def _entry(**kwargs):
    return ledger.make_entry(
        _bench(**kwargs), timestamp="2026-08-09T00:00:00+00:00", sha="deadbeef",
    )


class TestEntries:
    def test_make_entry_schema_and_metrics(self):
        entry = _entry()
        assert entry["schema"] == ledger.LEDGER_SCHEMA_VERSION
        assert entry["ts"] == "2026-08-09T00:00:00+00:00"
        assert entry["git_sha"] == "deadbeef"
        assert entry["python"] == sys.version.split()[0]
        metrics = entry["metrics"]
        assert metrics["compiled_executor.speedup_vs_interpreted"] == 4.0
        assert metrics["profile_large.speedup"] == 14.0
        assert entry["bench"]["observability"]["noop_span_ns"] == 450.0

    def test_extract_metrics_skips_missing_not_zeroes(self):
        bench = _bench()
        del bench["compiled_executor"]
        metrics = ledger.extract_metrics(bench)
        assert "compiled_executor.speedup_vs_interpreted" not in metrics
        assert "best_version_sweep.speedup" not in metrics
        assert metrics["profile_large.speedup"] == 14.0

    def test_extract_metrics_ignores_non_numeric_leaves(self):
        bench = _bench()
        bench["compiled_executor"]["speedup_vs_interpreted"] = "fast"
        metrics = ledger.extract_metrics(bench)
        assert "compiled_executor.speedup_vs_interpreted" not in metrics

    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first, second = _entry(), _entry(compiled=4.5)
        ledger.append_entry(first, path)
        ledger.append_entry(second, path)
        entries = ledger.read_ledger(path)
        assert entries == [first, second]

    def test_read_skips_malformed_and_foreign_schema_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(_entry(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
            handle.write("\n")
            handle.write(json.dumps({"schema": 999, "metrics": {}}) + "\n")
            handle.write(json.dumps(["not", "a", "dict"]) + "\n")
        ledger.append_entry(_entry(compiled=4.5), path)
        entries = ledger.read_ledger(path)
        assert len(entries) == 2
        assert all(
            e["schema"] == ledger.LEDGER_SCHEMA_VERSION for e in entries
        )

    def test_read_missing_file_is_empty(self, tmp_path):
        assert ledger.read_ledger(tmp_path / "nope.jsonl") == []


class TestDetectRegressions:
    def test_needs_two_entries(self):
        assert ledger.detect_regressions([_entry()]) == []
        assert ledger.detect_regressions([]) == []

    def test_clean_run_has_no_regressions(self):
        assert ledger.detect_regressions([_entry(), _entry()]) == []

    def test_ratio_drop_beyond_tolerance_regresses(self):
        entries = [_entry(compiled=2.0), _entry(compiled=1.0)]
        regressions = ledger.detect_regressions(entries)
        keys = {r["metric"] for r in regressions}
        assert "compiled_executor.speedup_vs_interpreted" in keys
        (row,) = [
            r for r in regressions
            if r["metric"] == "compiled_executor.speedup_vs_interpreted"
        ]
        assert row["kind"] == "higher"
        assert row["reference"] == 2.0
        assert "compiled/interpreted speedup regressed" in row["message"]

    def test_ratio_drop_within_tolerance_passes(self):
        # 25% band: 2.0 -> 1.6 is a 20% drop, inside the band.
        entries = [_entry(compiled=2.0), _entry(compiled=1.6)]
        assert ledger.detect_regressions(entries) == []

    def test_lower_is_better_metric(self):
        entries = [_entry(noop_ns=450.0), _entry(noop_ns=450.0 * 11)]
        regressions = ledger.detect_regressions(entries)
        keys = {r["metric"] for r in regressions}
        assert "observability.noop_span_ns" in keys
        # Within the 9x band nothing fires.
        entries = [_entry(noop_ns=450.0), _entry(noop_ns=450.0 * 9)]
        assert ledger.detect_regressions(entries) == []

    def test_reference_is_best_of_window_not_last(self):
        # The middle run was the best; judging against "last" alone
        # would miss the regression.
        entries = [_entry(compiled=1.0), _entry(compiled=3.0), _entry(compiled=2.0)]
        regressions = ledger.detect_regressions(entries)
        (row,) = [
            r for r in regressions
            if r["metric"] == "compiled_executor.speedup_vs_interpreted"
        ]
        assert row["reference"] == 3.0

    def test_window_bounds_the_comparison(self):
        # With window=1 only the immediately preceding entry counts, so
        # the old best (3.0) is out of scope and nothing regresses.
        entries = [_entry(compiled=3.0), _entry(compiled=2.0), _entry(compiled=1.9)]
        assert ledger.detect_regressions(entries, window=1) == []
        assert ledger.detect_regressions(entries, window=2)

    def test_metric_missing_from_history_is_skipped(self):
        old = _entry()
        del old["metrics"]["compiled_executor.speedup_vs_interpreted"]
        entries = [old, _entry(compiled=0.1)]
        keys = {r["metric"] for r in ledger.detect_regressions(entries)}
        assert "compiled_executor.speedup_vs_interpreted" not in keys

    def test_metric_missing_from_newest_is_skipped(self):
        new = _entry()
        del new["metrics"]["compiled_executor.speedup_vs_interpreted"]
        assert ledger.detect_regressions([_entry(), new]) == []


class TestFormatReport:
    def test_empty_ledger(self):
        lines = ledger.format_report([], [])
        assert lines[0].startswith("bench ledger: empty")

    def test_single_entry_has_no_window(self):
        lines = ledger.format_report([_entry()], [])
        assert lines[0].startswith("bench ledger: 1 entry,")
        assert any("nothing to judge against" in line for line in lines)

    def test_clean_report_lists_metrics(self):
        entries = [_entry(), _entry()]
        lines = ledger.format_report(entries, [])
        assert any(
            "compiled_executor.speedup_vs_interpreted = 4" in line
            for line in lines
        )
        assert any("no regressions" in line for line in lines)

    def test_regressed_report_cites_messages(self):
        entries = [_entry(compiled=4.0), _entry(compiled=1.0)]
        regressions = ledger.detect_regressions(entries)
        lines = ledger.format_report(entries, regressions)
        assert any(line.startswith("REGRESSED") for line in lines)
        assert any("compiled/interpreted speedup regressed: 1x vs 4x" in line
                   for line in lines)


def _git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True,
        check=True,
    ).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitState:
    """Entries are stamped with ``HEAD`` and whether the checkout has
    uncommitted changes to tracked files."""

    @pytest.fixture
    def repo(self, tmp_path):
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "config", "user.email", "bench@example.com")
        _git(tmp_path, "config", "user.name", "bench")
        (tmp_path / "code.py").write_text("x = 1\n")
        _git(tmp_path, "add", "code.py")
        _git(tmp_path, "commit", "-q", "-m", "first")
        return tmp_path

    def test_clean_checkout(self, repo):
        entry = ledger.make_entry(_bench(), cwd=repo)
        assert entry["git_sha"] == _git(repo, "rev-parse", "HEAD")
        assert entry["git_dirty"] is False

    def test_modified_tracked_file_is_dirty(self, repo):
        (repo / "code.py").write_text("x = 2\n")
        entry = ledger.make_entry(_bench(), cwd=repo)
        assert entry["git_sha"] == _git(repo, "rev-parse", "HEAD")
        assert entry["git_dirty"] is True
        line = ledger.format_report([entry], [])[0]
        assert line.endswith(f"(sha {entry['git_sha'][:12]}, uncommitted changes)")

    def test_untracked_file_is_not_dirty(self, repo):
        (repo / "scratch.txt").write_text("notes\n")
        assert ledger.git_state(repo) == (_git(repo, "rev-parse", "HEAD"), False)

    def test_outside_a_checkout(self, tmp_path):
        assert ledger.git_state(tmp_path) == (None, None)


def _run_report(ledger_path, *extra):
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", "report",
         "--ledger", str(ledger_path), *extra],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestBenchReportCli:
    def test_exit_nonzero_on_injected_regression(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(_entry(compiled=4.0), path)
        ledger.append_entry(_entry(compiled=1.0), path)
        result = _run_report(path)
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        assert "compiled/interpreted speedup regressed" in result.stdout

    def test_exit_zero_on_clean_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(_entry(), path)
        ledger.append_entry(_entry(compiled=4.2), path)
        result = _run_report(path)
        assert result.returncode == 0
        assert "no regressions" in result.stdout

    def test_json_payload(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entry(_entry(), path)
        ledger.append_entry(_entry(compiled=1.0), path)
        out = tmp_path / "report.json"
        result = _run_report(path, "--json", str(out))
        assert result.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["entries"] == 2
        assert payload["regressions"][0]["kind"] == "higher"


class TestRepoLedger:
    def test_repo_ledger_is_seeded(self):
        """The committed ledger must carry at least one real entry."""
        path = REPO_ROOT / ledger.DEFAULT_LEDGER_NAME
        entries = ledger.read_ledger(path)
        assert entries, f"{path} must hold at least one schema-valid entry"
        newest = entries[-1]
        assert newest["metrics"], "seeded entry carries watched metrics"
        assert len(entries) >= 11, "entries without git_dirty still parse"
        assert newest["bench"], "seeded entry embeds the full bench payload"
