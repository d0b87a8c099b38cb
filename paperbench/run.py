"""Paper-workload benchmark: cold tuning sweep, pooled Figures 7-10 and
verified reductions, timed end to end and split per layer.

Run from the repository root::

    python3 paperbench/run.py --workload tune_cold --seed 1 --seconds 20 --trace 0
    python3 paperbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each iteration of a workload is a fresh ``workloads.py`` process, so every
cache and memo of the program starts empty. Iterations repeat until
``--seconds`` have passed and at least ``MIN_ITERATIONS`` ran; between
them, setup-only processes add ``setup_s`` samples. ``wall_s``,
``setup_s`` and ``peak_rss_mb`` are medians over the processes; the op
latency percentiles, taken over every timed op of every iteration, are
printed. With ``--trace 1`` the iterations run untraced for half the
time, then one traced iteration reports the per-layer metrics,
``trace.overhead_s`` and the untraced iterations' op latency. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYER_SELF_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tune_cold", "figures_pool", "run_verify")

#: Iterations per untraced run, whatever --seconds says. The host noise
#: comes in phases of tens of seconds, so a median needs several fresh
#: processes; figures_pool iterations take ~13 s, the others ~5 s.
MIN_ITERATIONS = {"tune_cold": 5, "figures_pool": 3, "run_verify": 5}
#: Setup-only processes per untraced run (one after each iteration).
SETUP_PROBES = 5
#: No new process starts once the run could pass this many seconds;
#: a run must end within 180 s.
DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_inst"):
        return "ns"
    if name.endswith("_s") or name == "baselines.s":
        return "s"
    if name.endswith(("_ratio", "_share", "_util")):
        return "ratio"
    return "count"


def percentiles(latencies_ms):
    """(p50, p90) of op latencies; p90 needs 100 samples (ten beyond)."""
    if len(latencies_ms) < 100:
        return None, None
    return (statistics.median(latencies_ms),
            statistics.quantiles(latencies_ms, n=10)[8])


def child_env(workload: str, scratch: Path) -> dict:
    """The isolated environment of one process: no inherited REPRO_*
    settings (no disk cache tier, no tracing), a private native cache
    and temp dir inside the checkout, and a pinned worker count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    env["REPRO_NATIVE_CACHE_DIR"] = str(scratch / "native")
    workers = min(os.cpu_count() or 1, 2) if workload == "figures_pool" else 1
    env["REPRO_MAX_WORKERS"] = str(workers)
    return env


def run_child(workload, seed, env, timeout, trace=0, report_env=False,
              setup_only=False):
    """One process in its own process group; returns its JSON result
    plus ``setup_s``, or None when it failed."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--report-env", str(int(report_env)),
        "--setup-only", str(int(setup_only)),
    ]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        print(f"{workload}: process timed out after {timeout:.0f}s",
              file=sys.stderr)
        return None
    finally:
        _kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: process exited with {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_op_at"] - spawned_at
    return result


def _kill_group(pgid) -> None:
    """Stop anything a process left behind (pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def iterate(workload, seed, seconds, min_iterations, probes, env, started):
    """Untraced iterations (each followed by a setup probe while
    ``probes`` remain) until ``seconds`` and ``min_iterations`` are
    done. Returns (ok, iterations, setup-probe results)."""
    results, setups = [], []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if len(results) >= min_iterations and elapsed >= seconds:
            return True, results, setups
        if results and elapsed + 1.2 * last > DEADLINE_S:
            return True, results, setups
        begin = time.perf_counter()
        result = run_child(workload, seed, env,
                           timeout=max(10.0, DEADLINE_S - elapsed),
                           report_env=not results)
        last = time.perf_counter() - begin
        if result is None:
            return False, results, setups
        results.append(result)
        if len(setups) < probes:
            probe = run_child(workload, seed, env, timeout=60.0,
                              setup_only=True)
            if probe is None:
                return False, results, setups
            setups.append(probe)


def describe(result) -> str:
    p50, p90 = percentiles(result["latencies_ms"])
    return (
        f"wall_s={result['wall_s']:.4f} setup_s={result['setup_s']:.4f} "
        f"peak_rss_mb={result['peak_rss_mb']:.1f} "
        f"op_p50_ms={p50 and round(p50, 4)} op_p90_ms={p90 and round(p90, 4)} "
        f"ops={result['attempted']} ops_failed={result['failed']}"
    )


def end_to_end(results, setups) -> dict:
    """Medians over the processes."""
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def op_latency(results) -> dict:
    """p50/p90 over every timed op of every untraced iteration. Reported
    with the per-layer metrics, not gated: the warm ops of tune_cold and
    figures_pool span under a second per iteration, too short a window
    to average out the host's slow phases."""
    p50, p90 = percentiles([ms for r in results for ms in r["latencies_ms"]])
    return {"op_p50_ms": p50, "op_p90_ms": p90}


def run_workload(workload, seed, seconds, trace, scratch):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    env = child_env(workload, scratch)
    started = time.perf_counter()
    if trace:
        ok, results, setups = iterate(workload, seed, seconds / 2, 1, 0,
                                      env, started)
    else:
        ok, results, setups = iterate(workload, seed, seconds,
                                      MIN_ITERATIONS[workload], SETUP_PROBES,
                                      env, started)
    traced = None
    if ok and trace:
        elapsed = time.perf_counter() - started
        traced = run_child(workload, seed, env, trace=1,
                           timeout=max(10.0, DEADLINE_S - elapsed))
        ok = traced is not None
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not ok:
        attempted, failed = attempted + 1, failed + 1

    print(f"== {workload} (seed {seed}, {len(results)} untraced "
          f"iteration(s), {len(setups)} setup probe(s)"
          f"{', 1 traced' if traced else ''})")
    for index, result in enumerate(results):
        print(f"  iteration {index}: {describe(result)}")
        for failure in result["failures"]:
            print(f"    FAILED: {failure}")
    if setups:
        print("  setup probes: setup_s="
              + " ".join(f"{r['setup_s']:.4f}" for r in setups))
    if results and "environment" in results[0]:
        print(f"  environment: {json.dumps(results[0]['environment'])}")

    metrics = {}
    if results and not trace:
        metrics = end_to_end(results, setups)
        print("  op latency over all iterations (not gated): "
              + " ".join(f"{name}={value and round(value, 4)}"
                         for name, value in op_latency(results).items()))
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        print(f"  traced: {describe(traced)}")
        for failure in traced["failures"]:
            print(f"    FAILED: {failure}")
        if results and traced["counts"] != results[0]["counts"]:
            failed += 1
            print(f"    FAILED: traced counts {traced['counts']} != "
                  f"untraced {results[0]['counts']}")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(
            r["wall_s"] for r in results
        )
        layers["trace.replay_s"] = traced["replay_s"]
        layers.update(op_latency(results))
        for name in sorted(layers):
            metrics[name] = {"value": layers[name], "unit": layer_unit(name)}
        print_shares(layers)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = ok and failed == 0
    return correct, attempted, failed, metrics


def print_shares(layers) -> None:
    """Share of the traced wall time spent in each layer."""
    wall = layers["trace.wall_s"]
    names = [name for _, name in LAYER_SELF_METRICS]
    names.append("trace.unattributed_s")
    print(f"  layer shares of trace.wall_s={wall:.3f}s"
          + (" (worker-side layers from a serial traced replay of the "
             "pooled specs)" if layers["trace.replay_s"] else ""))
    for name in names:
        print(f"    {name:<24} {layers[name]:9.4f}s "
              f"{100 * layers[name] / wall:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("paperbench: run from the repository root (src/repro is "
              "missing here)", file=sys.stderr)
        return 2
    # byte-compile once, so no process's setup pays for it
    compileall.compile_dir(str(root / "src"), quiet=1)
    scratch_root = root / ".paperbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            ok, tried, bad, found = run_workload(
                workload, args.seed, args.seconds, args.trace, scratch
            )
            correct = correct and ok
            attempted += tried
            failed += bad
            if len(workloads) == 1:
                metrics = found
            else:
                metrics.update({f"{workload}.{k}": v
                                for k, v in found.items()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
