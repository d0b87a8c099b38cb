"""One iteration of one paper workload, in a fresh process.

``run.py`` starts this script once per iteration so the frontend memo,
plan cache, kernel memos and sweep pool all start empty::

    python3 paperbench/workloads.py --workload tune_cold --seed 1 --trace 0

Everything runs through the public ``repro`` API with the default
engine spec. The script prints one JSON object as its last stdout line:
when the timed phase began (``first_op_at``, a ``time.perf_counter``
reading, which is system-wide monotonic on Linux so the parent can turn
it into ``setup_s``), the timed phase's wall time, ops attempted and
failed, every timed op's latency, peak RSS, the result digest, the
program's own work counters and, with ``--trace 1``, the per-layer
metrics of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import repro
import repro.autotune
import repro.autotune.tuner as tuner
from repro import ReductionFramework
from repro.apps import Histogram, Scan, reference_histogram
from repro.obs import default_metrics
from repro.perf import default_cache, default_plan_cache
from repro.perf.parallel import shutdown_scheduler

HERE = Path(__file__).resolve().parent

ARCHS = ("kepler", "maxwell", "pascal")

#: tune_cold: the ROADMAP baseline grid, 3 sizes x 16 versions x the
#: default block/grid tuning grid = 720 points.
TUNE_SIZES = (1 << 10, 1 << 16, 1 << 22)

#: figures_pool: the paper's x-axis (64 .. 268M elements) and the
#: figure benches' compact tuning grid.
PAPER_SIZES = tuple(4 ** k for k in range(3, 15))
FIG_BLOCKS = (64, 128, 256)
FIG_GRIDS = (None, 512)

#: Versions plotted by Figures 8-10 (as in benchmarks/bench_fig*.py).
PLOTTED = {
    "kepler": ("p", "m", "b", "e"),
    "maxwell": ("n", "p", "k", "c", "a"),
    "pascal": ("n", "p", "e"),
}

#: run_verify: (op, ctype) pairs and input sizes. 193 fits one block,
#: so its launches run sequentially; both are not powers of two.
VERIFY_PAIRS = (("add", "float"), ("add", "int"), ("max", "float"))
VERIFY_SIZES = (193, 4099)
VERIFY_INPUTS = 4
#: The >= 2^20 size runs two versions per pair, coop (p, n) and compound
#: ones (a full unsampled 2^20 launch of the slowest versions, l and o,
#: takes seconds).
LARGE_N = 1 << 20
LARGE_VERSIONS = {
    ("add", "float"): ("b", "p"),
    ("add", "int"): ("e", "n"),
    ("max", "float"): ("d", "h"),
}
LARGE_INPUTS = 2
APP_N = 30011
APP_INPUTS = 2
HIST_BINS = 64

#: Input 0 of every plan comes from this fixed seed; the run_verify
#: digest covers those runs only, so it is the same for every --seed.
CANARY_SEED = 20190216

#: Relative error allowed on float32 sums, against a float64 reference,
#: relative to the sum of magnitudes (~1700 float32 ulps).
FLOAT_SUM_RTOL = 1e-4


# ---------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------


class Tally:
    """Ops attempted/failed and the latency of every timed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.failures = []

    def op(self, fn, *args, **kwargs):
        """One timed op; returns its result, or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an exception is a failed op
            self._record(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        self.latencies.append(time.perf_counter() - start)
        return result

    def batch(self, count, fn, *args, **kwargs):
        """``count`` ops done by one call (a bulk profile)."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += count - 1
            self._record(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def verify(self, ok, what):
        """Output check of an op already counted as attempted."""
        if not ok:
            self._record(what)

    def check(self, ok, what):
        """A standalone check (paper shape, digest): one op of its own."""
        self.attempted += 1
        self.verify(ok, what)

    def _record(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _digest_profile(digest, entry):
    profile, num_memsets = entry
    digest.update(repr(num_memsets).encode())
    for step in profile.steps:
        digest.update(repr((
            step.kernel_name, step.grid, step.block, step.sampled_blocks,
            sorted(step.scaled().items()),
        )).encode())


def _digest_events(digest, profile):
    for step in profile.steps:
        digest.update(repr((step.kernel_name, sorted(step.events.items())))
                      .encode())


def _profile_ok(entry) -> bool:
    profile, num_memsets = entry
    return (
        num_memsets >= 0
        and len(profile.steps) >= 1
        and all(step.events.get("blocks", 0) > 0
                and step.events.get("inst.alu", 0) > 0
                for step in profile.steps)
    )


def _profile_sweep(fw, specs, tally, rec, digest, max_workers):
    """Bulk-profile ``specs`` (one op per point), check and digest."""
    entries = tally.batch(
        len(specs), fw.profile_many, specs, max_workers=max_workers
    )
    if entries is None:
        return
    with rec.span("bench.check"):
        tally.verify(len(entries) == len(specs), "profile_many: result count")
        for (version, n, tunables), entry in zip(specs, entries):
            tally.verify(_profile_ok(entry),
                         f"profile shape {version.identifier} n={n}")
            _digest_profile(digest, entry)


# ---------------------------------------------------------------------
# tune_cold
# ---------------------------------------------------------------------


def setup_tune_cold(seed):
    return {"fw": ReductionFramework(op="add", ctype="float")}


def run_tune_cold(state, tally, rec, digest):
    fw = state["fw"]
    specs = tuner.sweep_specs(fw, TUNE_SIZES)
    _profile_sweep(fw, specs, tally, rec, digest, max_workers=1)
    # the warm read-back tune_all does: one tune per (version, size, arch)
    for arch in ARCHS:
        for n in TUNE_SIZES:
            for label in fw.catalog:
                result = tally.op(repro.autotune.tune_version,
                                  fw, label, n, arch, max_workers=1)
                if result is None:
                    continue
                with rec.span("bench.check"):
                    times = [seconds for _, seconds in result.trials]
                    configs = tuner.configurations(fw.resolve(label))
                    tally.verify(
                        len(times) == len(configs)
                        and result.time_s == min(times),
                        f"tune_version {label} n={n} {arch}",
                    )
                    digest.update(repr((arch, n, label, times)).encode())
    for arch in ARCHS:
        selector = tally.op(repro.autotune.DynamicSelector.build,
                            fw, arch, sizes=TUNE_SIZES, max_workers=1)
        if selector is not None:
            _check_selector(fw, selector, TUNE_SIZES, arch, tally, rec, digest)


def _check_selector(fw, selector, sizes, arch, tally, rec, digest):
    with rec.span("bench.check"):
        entries = selector.entries
        tally.verify(
            [e.max_n for e in entries] == sorted(sizes)
            and all(e.version_key in fw.catalog for e in entries),
            f"selector table {arch}",
        )
        digest.update(repr([
            (e.max_n, e.version_key, e.tunables, e.time_s) for e in entries
        ]).encode())


# ---------------------------------------------------------------------
# figures_pool
# ---------------------------------------------------------------------


def setup_figures_pool(seed):
    return {
        "fw": ReductionFramework(op="add", ctype="float"),
        "workers": min(os.cpu_count() or 1, 2),
    }


def _tuned_time(fw, label, n, arch):
    """Best modelled time of one version over the compact grid."""
    version = fw.resolve(label)
    return min(
        fw.time(n, version, arch, tunables)
        for tunables in tuner.configurations(version, FIG_BLOCKS, FIG_GRIDS)
    )


def run_figures_pool(state, tally, rec, digest):
    fw = state["fw"]
    workers = state["workers"]
    specs = tuner.sweep_specs(fw, PAPER_SIZES, blocks=FIG_BLOCKS,
                              grids=FIG_GRIDS)
    state["specs"] = specs
    _profile_sweep(fw, specs, tally, rec, digest, max_workers=workers)
    cells = {}
    for arch in ARCHS:
        for n in PAPER_SIZES:
            cell = {"times": {
                label: tally.op(_tuned_time, fw, label, n, arch)
                for label in fw.catalog
            }}
            cell["cub"] = tally.op(repro.cub_time, n, arch)
            cell["kokkos"] = tally.op(repro.kokkos_time, n, arch)
            cell["openmp"] = tally.op(repro.openmp_time, n)
            cells[arch, n] = cell
    with rec.span("bench.check"):
        digest.update(repr(sorted(cells.items())).encode())
    winners = {}
    for arch in ARCHS:
        selector = tally.op(
            repro.autotune.DynamicSelector.build, fw, arch,
            sizes=PAPER_SIZES, blocks=FIG_BLOCKS, grids=FIG_GRIDS,
            max_workers=workers,
        )
        if selector is not None:
            _check_selector(fw, selector, PAPER_SIZES, arch, tally, rec,
                            digest)
            winners[arch] = {e.version_key for e in selector.entries}
    with rec.span("bench.check"):
        for what, ok in paper_shape_checks(fw, cells, winners):
            tally.check(ok, f"paper shape: {what}")


def _winner_competitive(row, label, tolerance=1.10):
    """The near-tie rule of benchmarks/detail.py::winner_competitive:
    the paper's winner wins, or is within ``tolerance`` of our best."""
    if row["winner"] == label:
        return True
    return row["times"][label] <= row["winner_time"] * tolerance


def paper_shape_checks(fw, cells, winners):
    """(description, passed) for every paper-shape claim of
    EXPERIMENTS.md sections 3-7. The thresholds are the paper's."""
    checks = []

    def claim(what, test):
        try:
            ok = bool(test())
        except Exception:  # a missing cell (failed op) fails the claim
            ok = False
        checks.append((what, ok))

    def fig7(arch, n):
        cell = cells[arch, n]
        label = min(cell["times"], key=cell["times"].get)
        best = cell["times"][label]
        return {"label": label, "speedup": cell["cub"] / best,
                "omp_speedup": cell["cub"] / cell["openmp"]}

    def detail(arch, n):
        cell = cells[arch, n]
        times = {label: cell["times"][label] for label in PLOTTED[arch]}
        winner = min(times, key=times.get)
        return {
            "times": times, "winner": winner, "winner_time": times[winner],
            "speedups": {l: cell["cub"] / t for l, t in times.items()},
            "kokkos": cell["cub"] / cell["kokkos"],
            "openmp": cell["cub"] / cell["openmp"],
        }

    for arch in ARCHS:
        # Figure 7: 2-6x over CUB below 1M, 17-38 % slower above 4M,
        # ~2x average, OpenMP ~4x over CUB below 65K, collapsing at 268M
        for n in (256, 4096, 65536):
            claim(f"fig7 {arch} n={n} speedup > 1.8",
                  lambda: fig7(arch, n)["speedup"] > 1.8)
        for n in (16777216, 268435456):
            claim(f"fig7 {arch} n={n} speedup in (0.6, 1.0)",
                  lambda: 0.6 < fig7(arch, n)["speedup"] < 1.0)
        claim(f"fig7 {arch} geo-mean speedup in (1.5, 3.0)",
              lambda: 1.5 < statistics.geometric_mean(
                  fig7(arch, n)["speedup"] for n in PAPER_SIZES) < 3.0)
        claim(f"fig7 {arch} OpenMP n=16384 speedup in (2.5, 7.0)",
              lambda: 2.5 < fig7(arch, 16384)["omp_speedup"] < 7.0)
        claim(f"fig7 {arch} OpenMP n=268435456 speedup < 1",
              lambda: fig7(arch, 268435456)["omp_speedup"] < 1.0)
        # Section IV-C: compound versions win at the biggest size
        claim(f"{arch} compound beats coop at n=268435456",
              lambda: fw.resolve(fig7(arch, 268435456)["label"]).block_kind
              == "compound")
        # DySel: the winner changes across the size range
        claim(f"{arch} selector picks >= 2 winners",
              lambda: len(winners[arch]) >= 2)

    # Figure 8 (Kepler): (p) small, (m) medium, (b)/(e) large
    claim("fig8 n=256 (p)",
          lambda: _winner_competitive(detail("kepler", 256), "p"))
    claim("fig8 n=65536 (m)",
          lambda: _winner_competitive(detail("kepler", 65536), "m"))
    for n in (262144, 1048576):
        claim(f"fig8 n={n} (m) within 1.5x",
              lambda: _winner_competitive(detail("kepler", n), "m", 1.5))
    for n in (16777216, 268435456):
        claim(f"fig8 n={n} winner in (b, e)",
              lambda: detail("kepler", n)["winner"] in ("b", "e"))
        claim(f"fig8 n={n} Kokkos > 2x CUB",
              lambda: detail("kepler", n)["kokkos"] > 2.0)
    claim("fig8 n=256 Kokkos < 2x CUB",
          lambda: detail("kepler", 256)["kokkos"] < 2.0)
    claim("fig8 n=1024 OpenMP leads",
          lambda: detail("kepler", 1024)["openmp"]
          > detail("kepler", 1024)["speedups"][detail("kepler", 1024)["winner"]])

    # Figure 9 (Maxwell): (n) small, (p) medium, (a)/(c)/(k) large
    for n in (256, 4096):
        claim(f"fig9 n={n} (n)",
              lambda: _winner_competitive(detail("maxwell", n), "n"))
    claim("fig9 n=262144 (p) within 1.05x",
          lambda: _winner_competitive(detail("maxwell", 262144), "p", 1.05))
    claim("fig9 n=1048576 (p) within 1.15x",
          lambda: _winner_competitive(detail("maxwell", 1048576), "p", 1.15))
    for n in (16777216, 268435456):
        claim(f"fig9 n={n} winner in (a, c, k)",
              lambda: detail("maxwell", n)["winner"] in ("a", "c", "k"))
    claim("fig9 n=268435456 CUB ~7 % faster",
          lambda: 0.8 < detail("maxwell", 268435456)["speedups"][
              detail("maxwell", 268435456)["winner"]] < 1.0)
    claim("fig9 n=67108864 Kokkos > 2.2x CUB",
          lambda: detail("maxwell", 67108864)["kokkos"] > 2.2)

    # Figure 10 (Pascal): (n) small, (p) medium, (e) large
    for n in (256, 1024):
        claim(f"fig10 n={n} (n)",
              lambda: _winner_competitive(detail("pascal", n), "n"))
    claim("fig10 n=262144 (p) within 1.05x",
          lambda: _winner_competitive(detail("pascal", 262144), "p", 1.05))
    claim("fig10 n=1048576 (p) within 1.15x",
          lambda: _winner_competitive(detail("pascal", 1048576), "p", 1.15))
    for n in (67108864, 268435456):
        claim(f"fig10 n={n} winner (e)",
              lambda: detail("pascal", n)["winner"] == "e")
        claim(f"fig10 n={n} (e) ~27 % slower than CUB",
              lambda: 0.65 < detail("pascal", n)["speedups"]["e"] < 0.95)
    claim("fig10 n=1024 on par with OpenMP",
          lambda: detail("pascal", 1024)["speedups"][
              detail("pascal", 1024)["winner"]]
          >= detail("pascal", 1024)["openmp"] * 0.9)
    claim("fig10 n=16384 faster than OpenMP",
          lambda: detail("pascal", 16384)["speedups"][
              detail("pascal", 16384)["winner"]]
          > detail("pascal", 16384)["openmp"])
    claim("fig10 n=268435456 Kokkos > 1.9x CUB",
          lambda: detail("pascal", 268435456)["kokkos"] > 1.9)
    return checks


def replay_figures_pool(state, rec):
    """Serial traced replay of the pooled sweep's specs: the pool's
    workers are separate processes, so their layers are measured here."""
    fw = state["fw"]
    fw.cache.clear()
    default_plan_cache().clear()
    fw.profile_many(state["specs"], max_workers=1)


# ---------------------------------------------------------------------
# run_verify
# ---------------------------------------------------------------------


def _inputs(rng, ctype, n, count):
    if ctype == "int":
        return [rng.integers(-1000, 1001, n, dtype=np.int32)
                for _ in range(count)]
    return [rng.standard_normal(n, dtype=np.float32) for _ in range(count)]


def _plan_inputs(seed, ctype, n, count):
    """Input 0 from the canary seed, the rest from ``seed``."""
    canary = _inputs(np.random.default_rng([CANARY_SEED, n]), ctype, n, 1)
    rng = np.random.default_rng([seed, n, len(ctype)])
    return canary + _inputs(rng, ctype, n, count - 1)


def setup_run_verify(seed):
    frameworks = {pair: ReductionFramework(op=pair[0], ctype=pair[1])
                  for pair in VERIFY_PAIRS}
    jobs = []  # (pair, label, inputs)
    for pair, fw in frameworks.items():
        for n in VERIFY_SIZES:
            inputs = _plan_inputs(seed, pair[1], n, VERIFY_INPUTS)
            jobs.extend((pair, label, inputs) for label in fw.catalog)
        inputs = _plan_inputs(seed, pair[1], LARGE_N, LARGE_INPUTS)
        jobs.extend((pair, label, inputs) for label in LARGE_VERSIONS[pair])
    scan_inputs = _plan_inputs(seed, "float", APP_N, APP_INPUTS)
    hist_inputs = [
        np.abs(keys) * 7919 for keys in _plan_inputs(seed, "int", APP_N,
                                                     APP_INPUTS)
    ]
    return {"frameworks": frameworks, "jobs": jobs,
            "scan_inputs": scan_inputs, "hist_inputs": hist_inputs}


def _reduction_ok(op, ctype, data, value) -> bool:
    if ctype == "int":
        reference = np.sum(data, dtype=np.int64) if op == "add" else (
            np.max(data) if op == "max" else np.min(data))
        return value == float(reference)
    if op == "add":
        reference = np.sum(data, dtype=np.float64)
        bound = FLOAT_SUM_RTOL * np.sum(np.abs(data), dtype=np.float64)
        return abs(value - reference) <= bound
    reference = np.max(data) if op == "max" else np.min(data)
    return value == float(reference)


def run_run_verify(state, tally, rec, digest):
    frameworks = state["frameworks"]
    for pair, label, inputs in state["jobs"]:
        fw = frameworks[pair]
        for index, data in enumerate(inputs):
            result = tally.op(fw.run, data, label)
            if result is None:
                continue
            with rec.span("bench.check"):
                tally.verify(
                    _reduction_ok(*pair, data, result.value),
                    f"fw.run {pair} ({label}) n={data.size} input {index}",
                )
                if index == 0:
                    digest.update(repr((pair, label, data.size,
                                        result.value)).encode())
                    _digest_events(digest, result.profile)
    for strategy in ("shuffle", "shared"):
        scan = Scan(strategy=strategy)
        for index, data in enumerate(state["scan_inputs"]):
            result = tally.op(scan.run, data)
            if result is None:
                continue
            with rec.span("bench.check"):
                out, profile = result
                reference = np.cumsum(data, dtype=np.float64)
                bound = FLOAT_SUM_RTOL * np.cumsum(np.abs(data),
                                                   dtype=np.float64)
                tally.verify(
                    out.shape == data.shape
                    and bool(np.all(np.abs(out - reference) <= bound)),
                    f"Scan({strategy}) input {index}",
                )
                if index == 0:
                    digest.update(out.tobytes())
                    _digest_events(digest, profile)
    histogram = Histogram(bins=HIST_BINS)
    for index, keys in enumerate(state["hist_inputs"]):
        result = tally.op(histogram.run, keys)
        if result is None:
            continue
        with rec.span("bench.check"):
            counts, profile = result
            tally.verify(
                counts.shape == (HIST_BINS,)
                and np.array_equal(counts, reference_histogram(keys,
                                                               HIST_BINS)),
                f"Histogram input {index}",
            )
            if index == 0:
                digest.update(counts.tobytes())
                _digest_events(digest, profile)


WORKLOADS = {
    "tune_cold": (setup_tune_cold, run_tune_cold, None),
    "figures_pool": (setup_figures_pool, run_figures_pool,
                     replay_figures_pool),
    "run_verify": (setup_run_verify, run_run_verify, None),
}


# ---------------------------------------------------------------------
# process-level measurements
# ---------------------------------------------------------------------


def _worker_peak_rss_mb() -> float:
    """Largest peak RSS among live pool workers (Linux /proc)."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        except OSError:
            continue
    return peak


def _stop_pool() -> None:
    children = multiprocessing.active_children()
    shutdown_scheduler()
    for child in children:
        child.join(timeout=60)


def work_counts() -> dict:
    """The program's own counters of the work done so far."""
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    profiles = default_cache().stats
    plans = default_plan_cache().stats
    return {
        "launch.batched": counters.get("exec.launch.batched", 0),
        "launch.sequential": counters.get("exec.launch.sequential", 0),
        "sim.inst": sum(v for k, v in counters.items()
                        if k.startswith("sim.inst.")),
        "profile_cache.hits": profiles.hits,
        "profile_cache.misses": profiles.misses,
        "profile_cache.stores": profiles.stores,
        "plan_cache.hits": plans.hits,
        "plan_cache.misses": plans.misses,
        "plan_cache.stores": plans.stores,
    }


def _trace_consistency(recorder, counts) -> list:
    """Spans vs the program's counters over the same interval."""
    problems = []
    pairs = (
        ("launches", len(recorder.launches),
         counts["launch.batched"] + counts["launch.sequential"]),
        ("sim insts", sum(l[4] for l in recorder.launches), counts["sim.inst"]),
        ("plans built", recorder.plans_built, counts["plan_cache.stores"]),
        ("profile cache hits", recorder.cache_hits,
         counts["profile_cache.hits"]),
        ("profile cache misses", recorder.cache_misses,
         counts["profile_cache.misses"]),
    )
    for what, traced, counted in pairs:
        if traced != counted:
            problems.append(f"trace {what} {traced} != program {counted}")
    return problems


def environment_record() -> dict:
    """Effective repro environment, CPU count and toolchain tag."""
    from repro.gpusim.native.toolchain import detect_toolchain, \
        unavailable_reason

    toolchain = detect_toolchain()
    return {
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "toolchain": toolchain.tag if toolchain else
        f"none ({unavailable_reason()})",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report-env", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="stop after setup (an extra setup_s sample)")
    args = parser.parse_args(argv)
    setup, run, replay = WORKLOADS[args.workload]

    # layers.py sits next to this script, which is first on sys.path
    from layers import NullRecorder, Recorder, install

    recorder = None
    rec = NullRecorder()
    if args.trace:
        recorder = rec = Recorder()
        install(recorder)

    state = setup(args.seed % 2 ** 32)
    tally = Tally()
    digest = hashlib.sha256()
    first_op_at = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at}))
        return 0
    run(state, tally, rec, digest)
    wall_s = time.perf_counter() - first_op_at

    expected = json.loads((HERE / "expected.json").read_text())
    tally.check(digest.hexdigest() == expected.get(args.workload),
                f"digest {digest.hexdigest()} != expected")
    counts = work_counts()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "digest": digest.hexdigest(),
        "counts": counts,
    }
    if recorder is not None:
        for problem in _trace_consistency(recorder, counts):
            tally.check(False, problem)
    worker_rss = _worker_peak_rss_mb()
    _stop_pool()
    if recorder is not None:
        out["replay_s"] = 0.0
        if replay is not None:
            start = time.perf_counter()
            replay(state, rec)
            out["replay_s"] = time.perf_counter() - start
        out["layers"] = recorder.metrics(recorder.wall_s())

    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        latencies_ms=[seconds * 1e3 for seconds in tally.latencies],
        peak_rss_mb=max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            worker_rss,
        ),
    )
    if args.report_env:
        out["environment"] = environment_record()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
