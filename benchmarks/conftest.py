"""Shared infrastructure for the figure/table reproduction benchmarks.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation (Section IV). Results are printed and also written to
``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can reference them.

The profiles behind the timing model are architecture-independent and
live in the unified in-memory :mod:`repro.perf` cache, shared by every
bench in one pytest process. Nothing persists across processes, so
every run is cold.
"""

import os
from pathlib import Path

import pytest

from repro import ReductionFramework, Tunables

#: The paper's x-axis: array sizes from 64 to ~260M 32-bit elements.
PAPER_SIZES = [
    64,
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
    1048576,
    4194304,
    16777216,
    67108864,
    268435456,
]

#: Compact tuning grid used by the benches (the paper tunes block/grid
#: per version; this small grid captures the decisions that matter).
TUNE_BLOCKS = (64, 128, 256)
TUNE_GRIDS = (None, 512)

ARCHS = ("kepler", "maxwell", "pascal")

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def fw():
    return ReductionFramework(op="add")


def tuned_time(fw, label, n, arch):
    """Best modelled time of a version over the bench tuning grid."""
    version = fw.resolve(label)
    best = float("inf")
    for block in TUNE_BLOCKS:
        if version.block_kind == "coop":
            grids = (None,)
        else:
            grids = TUNE_GRIDS
        for grid in grids:
            seconds = fw.time(n, version, arch, Tunables(block=block, grid=grid))
            best = min(best, seconds)
    return best


def best_tuned(fw, n, arch, candidates):
    """(label, seconds) of the fastest tuned candidate."""
    times = {label: tuned_time(fw, label, n, arch) for label in candidates}
    label = min(times, key=times.get)
    return label, times[label]


def write_table(name: str, lines) -> str:
    """Print a table and persist it under benchmarks/out/."""
    text = "\n".join(lines)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {os.path.relpath(path)}]")
    return text


def once(benchmark, func, *args, **kwargs):
    """Run an expensive table computation exactly once under the
    pytest-benchmark harness."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
