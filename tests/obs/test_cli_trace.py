"""End-to-end tests for ``python -m repro trace`` / ``stats``.

The trace verb is exercised in a subprocess: in-process tests may have
already warmed the module-level frontend memo and plan cache, which
would (correctly) suppress the ``frontend.load`` / ``plan.build`` spans
a fresh process records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _run(argv, cwd, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_TRACE", None)  # isolate from an env-traced test run
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def traced_reduce(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    out = tmp / "trace.json"
    proc = _run(
        ["trace", "--out", str(out), "reduce", "-n", "200000"], cwd=tmp
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(out.read_text())


class TestTraceVerb:
    def test_trace_wraps_command_and_writes_chrome_json(self, traced_reduce):
        proc, data = traced_reduce
        assert "result" in proc.stdout  # the wrapped command really ran
        assert "[trace]" in proc.stdout
        assert isinstance(data["traceEvents"], list)

    def test_trace_covers_the_whole_pipeline(self, traced_reduce):
        _, data = traced_reduce
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "frontend.load" in names
        assert {n for n in names if n.startswith("pass.")} >= {
            "pass.planner",
            "pass.shuffle",
            "pass.shared_atomics",
            "pass.global_atomics",
        }
        assert "plan.build" in names
        assert "plan.compile" in names
        assert "exec.launch" in names

    def test_launch_spans_carry_backend_and_events(self, traced_reduce):
        _, data = traced_reduce
        launches = [
            e for e in data["traceEvents"] if e["name"] == "exec.launch"
        ]
        assert launches
        for launch in launches:
            args = launch["args"]
            assert args["backend"] in ("compiled", "interpreted")
            assert args["mode"] in ("batched", "sequential")
            assert args["grid"] >= 1 and args["block"] >= 1
            assert args["events"]["threads"] > 0

    def test_trace_time_includes_sweep_and_model_spans(self, tmp_path):
        out = tmp_path / "t.json"
        proc = _run(
            ["trace", "--out", str(out), "time", "-n", "65536"], cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        names = {
            e["name"]
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "sweep.point" in names
        assert "timing.model" in names

    def test_trace_without_command_errors(self, tmp_path):
        proc = _run(["trace"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_trace_rejects_nesting(self, tmp_path):
        proc = _run(["trace", "trace", "reduce", "-n", "1000"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "nest" in proc.stderr

    def test_trace_propagates_inner_exit_code(self, tmp_path):
        out = tmp_path / "x.json"
        # an unwritable --json path -> the wrapped command raises; the
        # trace file must still be written before the error surfaces
        proc = _run(
            ["trace", "--out", str(out), "stats", "--json",
             str(tmp_path / "missing" / "stats.json")], cwd=tmp_path
        )
        assert proc.returncode != 0
        assert out.exists()


class TestEnvActivation:
    def test_repro_trace_env_writes_at_exit(self, tmp_path):
        out = tmp_path / "env.json"
        proc = _run(
            ["reduce", "-n", "100000"],
            cwd=tmp_path,
            extra_env={"REPRO_TRACE": str(out)},
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert "exec.launch" in names and "frontend.load" in names


class TestSizeOption:
    def test_positional_and_option_equivalent(self, tmp_path):
        a = _run(["time", "4096"], cwd=tmp_path)
        b = _run(["time", "-n", "4096"], cwd=tmp_path)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_missing_size_is_an_error(self, tmp_path):
        proc = _run(["reduce"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "size" in proc.stderr


class TestStatsVerb:
    def test_stats_in_process(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "profile cache:" in out
        assert "plan cache:" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"counters", "gauges", "histograms", "caches"}

    def test_stats_subprocess(self, tmp_path):
        proc = _run(["stats", "--json"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert "caches" in data


class TestStatsJsonPath:
    """``stats --json`` accepts an optional path, like ``sanitize
    --json`` (both route through the shared ``_write_json`` helper)."""

    def test_stats_json_to_file(self, tmp_path):
        out = tmp_path / "stats.json"
        proc = _run(["stats", "--json", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert f"JSON -> {out}" in proc.stdout
        data = json.loads(out.read_text())
        assert set(data) >= {"counters", "gauges", "histograms", "caches"}

    def test_stats_json_dash_is_stdout(self, tmp_path):
        proc = _run(["stats", "--json", "-"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert "caches" in data

    def test_sanitize_json_still_writes_files(self, tmp_path):
        out = tmp_path / "san.json"
        proc = _run(
            ["sanitize", "--versions", "b", "-n", "4096",
             "--json", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data, "sanitize JSON payload expected"
