"""Search-infrastructure performance snapshot (not a paper figure).

Measures the mechanisms of docs/PERFORMANCE.md on this machine:

1. batched vs sequential block execution of one large unsampled
   profiling launch (n = 1M, grid 64 — the ISSUE acceptance case),
   using the tree-walking interpreter backend for continuity with the
   original measurement;
2. the closure-compiled executor on the same launch: warm (plan built
   and kernels compiled beforehand, the steady-state of any sweep) and
   cold (frontend plan build + closure compilation, the one-time cost
   the plan cache amortizes away);
3. cold vs warm ``best_version`` sweeps through the unified profile
   cache across several paper sizes;
4. the disabled-tracer fast path of :mod:`repro.obs` — instrumentation
   must cost nothing when ``REPRO_TRACE`` is unset, so the per-call
   overhead of a no-op ``tracer.span()`` is measured and bounded.

Results go to ``BENCH_searchspace.json`` at the repository root (the
committed snapshot of record), and every run also appends one
schema-versioned line to ``BENCH_ledger.jsonl`` — the trajectory the
regression judgement reads. Headline ratios asserted as absolute
floors: batched >= 2x sequential, compiled >= 2x the batched
interpreter, and the warm sweep still beats cold (the compiled
executor made cold points so cheap — ~0.1 ms each — that the old 5x
cache ratio is now bounded by the timing-model floor, not by
simulation). Relative regressions are
judged per-metric against the ledger's trailing window by
``repro.obs.ledger.detect_regressions`` (which also powers ``repro
bench report``), replacing the old single 25%-of-committed-ratio guard
with attributed messages — a fallen ratio names the ratio.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np

from conftest import once, write_table
from repro import ReductionFramework, Tunables
from repro.codegen import build_plan
from repro.gpusim import Executor, compile_kernel
from repro.obs import ledger
from repro.perf import ProfileCache

SNAPSHOT_PATH = Path(__file__).parent.parent / "BENCH_searchspace.json"
LEDGER_PATH = Path(__file__).parent.parent / ledger.DEFAULT_LEDGER_NAME

#: Sweep sizes for the cold/warm cache measurement (a representative
#: slice of conftest.PAPER_SIZES; larger sizes profile sampled anyway).
SWEEP_SIZES = (4096, 65536, 1048576)

#: The ISSUE acceptance case: a large launch profiled *unsampled*.
LARGE_N = 1 << 20
LARGE_TUNABLES = Tunables(block=256, grid=64)


def _profile_large(sequential: bool, backend: str, reps: int = 3) -> float:
    """Seconds to profile version (b) at LARGE_N, fully executed.

    Version (b) is batchable, so its launches run batched; ``sequential``
    sets ``BATCH_LANES = 1`` to run the same launches in one-block
    chunks, the sequential order's chunking.

    ``fw.build`` goes through the plan cache, which pre-warms every
    kernel's compiled artifact — so the compiled backend is measured
    *warm*, with no compilation inside the timed region (the
    one-time cold cost is measured separately by :func:`_compile_cold`).

    Min-of-``reps``: single launches jitter enough (GC, allocator,
    first-touch caches) to flap the headline ratios across runs. The
    sub-100ms backends need more reps to reach steady state — their
    first few launches pay allocator warm-up that the slow interpreter
    legs amortize within one launch — so callers bump ``reps`` there.
    """
    fw = ReductionFramework(op="add", cache=ProfileCache())
    plan = fw.build("b", LARGE_N, LARGE_TUNABLES)
    executor = Executor(backend=backend)
    if sequential:
        executor.BATCH_LANES = 1
    executor.device.alloc("in", LARGE_N, dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        executor.run_plan(plan)  # grid 64 <= sampling threshold
        best = min(best, time.perf_counter() - start)
    return best


def _profile_large_compiled(reps: int = 25) -> float:
    """Warm compiled seconds for the batched LARGE_N profile: min of
    ``reps`` launches after one untimed warm-up launch."""
    fw = ReductionFramework(op="add", cache=ProfileCache())
    plan = fw.build("b", LARGE_N, LARGE_TUNABLES)
    executor = Executor(backend="compiled")
    executor.device.alloc("in", LARGE_N, dtype=np.float32)
    executor.run_plan(plan)  # untimed warm-up launch
    # Collector hygiene: a gen-2 pass landing mid launch adds a constant
    # ~0.2ms that is pure heap-size noise, and a constant added to one
    # side of a ratio drags it toward 1.
    gc.collect()
    gc.disable()
    times = []
    try:
        for _ in range(reps):
            start = time.perf_counter()
            executor.run_plan(plan)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def _compile_cold() -> float:
    """Seconds for an uncached plan build + closure compilation (the
    one-time cost a plan-cache miss pays before the first run)."""
    fw = ReductionFramework(op="add", cache=ProfileCache())
    version = fw.resolve("b")
    start = time.perf_counter()
    plan = build_plan(fw.pre, version, LARGE_N, LARGE_TUNABLES)
    for step in plan.kernel_steps():
        compile_kernel(step.kernel)
    return time.perf_counter() - start


def _sweep(fw) -> float:
    """Seconds for a best_version sweep over the Figure 6 catalog.

    Serial (max_workers=1) so the cold/warm ratio isolates the profile
    cache rather than worker-pool spawn variance — the compiled executor
    made each cold point cheap enough that pool startup would dominate.
    """
    start = time.perf_counter()
    for n in SWEEP_SIZES:
        fw.best_version(n, "kepler", max_workers=1)
    return time.perf_counter() - start


#: Iterations for the no-op tracer micro-bench (large enough that the
#: per-call quotient is stable, small enough to stay in the noise of the
#: full bench run).
NOOP_SPAN_ITERS = 200_000

#: Ceiling on the disabled-tracer per-span cost. A no-op span is one
#: attribute read plus returning a shared singleton — tens of
#: nanoseconds; 2 microseconds leaves two orders of magnitude of slack
#: for slow CI boxes while still catching any accidental allocation or
#: timestamping on the disabled path.
NOOP_SPAN_CEILING_S = 2e-6


def _noop_tracer_overhead() -> float:
    """Per-call seconds of ``tracer.span()`` with tracing disabled."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = False  # force the fast path even if REPRO_TRACE set
    try:
        with tracer.span("bench.warmup"):
            pass
        start = time.perf_counter()
        for _ in range(NOOP_SPAN_ITERS):
            with tracer.span("bench.noop", n=LARGE_N, mode="batched"):
                pass
        elapsed = time.perf_counter() - start
    finally:
        tracer.enabled = was_enabled
    return elapsed / NOOP_SPAN_ITERS


def measure():
    sequential_s = _profile_large(sequential=True, backend="interpreted")
    batched_s = _profile_large(sequential=False, backend="interpreted")
    compiled_s = _profile_large_compiled()
    compile_cold_s = _compile_cold()

    fw = ReductionFramework(op="add", cache=ProfileCache())
    cold_s = _sweep(fw)
    warm_s = _sweep(fw)  # same framework: every profile now cached

    noop_span_s = _noop_tracer_overhead()

    stats = fw.cache.stats
    return {
        "bench": "simperf",
        "versions_swept": len(fw.catalog),
        "sweep_sizes": list(SWEEP_SIZES),
        "profile_large": {
            "version": "b",
            "n": LARGE_N,
            "block": LARGE_TUNABLES.block,
            "grid": LARGE_TUNABLES.grid,
            "sequential_s": round(sequential_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(sequential_s / batched_s, 2),
        },
        "compiled_executor": {
            "version": "b",
            "n": LARGE_N,
            "interpreted_s": round(batched_s, 4),
            "compiled_warm_s": round(compiled_s, 4),
            "compile_cold_s": round(compile_cold_s, 4),
            "speedup_vs_interpreted": round(batched_s / compiled_s, 2),
        },
        "best_version_sweep": {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2),
            "cache": stats.as_dict(),
        },
        "observability": {
            "noop_span_ns": round(noop_span_s * 1e9, 1),
            "iters": NOOP_SPAN_ITERS,
            "ceiling_ns": NOOP_SPAN_CEILING_S * 1e9,
        },
    }


def test_simperf_snapshot(benchmark):
    data = once(benchmark, measure)
    SNAPSHOT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    # Append this run to the trajectory and judge it against the
    # trailing window *before* asserting, so a failing run is still on
    # record (the ledger is append-only; a red run is data too).
    ledger.append_entry(
        ledger.make_entry(data, cwd=LEDGER_PATH.parent), LEDGER_PATH
    )
    regressions = ledger.detect_regressions(ledger.read_ledger(LEDGER_PATH))
    large = data["profile_large"]
    compiled = data["compiled_executor"]
    sweep = data["best_version_sweep"]
    write_table(
        "simperf",
        [
            "Search-infrastructure snapshot (see docs/PERFORMANCE.md)",
            f"  unsampled profile, n={large['n']}, grid={large['grid']}:",
            f"    sequential {large['sequential_s']:.3f}s   "
            f"batched {large['batched_s']:.3f}s   "
            f"({large['speedup']:.1f}x)",
            f"  compiled executor on the same launch:",
            f"    interpreted {compiled['interpreted_s']:.3f}s   "
            f"compiled {compiled['compiled_warm_s']:.3f}s   "
            f"({compiled['speedup_vs_interpreted']:.1f}x; "
            f"one-time compile {compiled['compile_cold_s']:.3f}s)",
            f"  best_version sweep over {data['versions_swept']} versions"
            f" x {len(data['sweep_sizes'])} sizes:",
            f"    cold {sweep['cold_s']:.3f}s   warm {sweep['warm_s']:.3f}s"
            f"   ({sweep['speedup']:.1f}x)",
            f"  disabled tracer: "
            f"{data['observability']['noop_span_ns']:.0f}ns per span "
            f"(ceiling {data['observability']['ceiling_ns']:.0f}ns)",
            f"  [snapshot written to {SNAPSHOT_PATH.name}; "
            f"ledger entry appended to {LEDGER_PATH.name}]",
        ],
    )
    assert large["speedup"] >= 2.0, "batched profiling must beat sequential 2x"
    assert (
        compiled["speedup_vs_interpreted"] >= 2.0
    ), "compiled dispatch must beat the interpreter 2x"
    # Relative regression judgement: per-metric against the ledger's
    # trailing window, with attribution — speedup ratios compare with a
    # tolerance band (they are ratios, not absolute seconds, so the
    # checks hold across machines).
    assert not regressions, (
        "bench ledger regressions vs trailing window:\n  "
        + "\n  ".join(r["message"] for r in regressions)
    )
    # Cold profiling collapsed from ~0.5s to ~10ms with the compiled
    # executor + plan cache, so warm/cold is no longer simulation-bound;
    # assert the cache still pays (warm faster, saved > spent) instead
    # of the old 5x ratio.
    assert sweep["speedup"] >= 1.2, "warm-cache sweep must still beat cold"
    cache = sweep["cache"]
    assert cache["time_saved_s"] >= cache["compute_time_s"]
    noop_ns = data["observability"]["noop_span_ns"]
    assert noop_ns < NOOP_SPAN_CEILING_S * 1e9, (
        f"disabled tracer costs {noop_ns:.0f}ns per span — the no-op "
        f"fast path regressed (ceiling {NOOP_SPAN_CEILING_S * 1e9:.0f}ns)"
    )
