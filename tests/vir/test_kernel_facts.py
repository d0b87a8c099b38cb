"""The static facts of a kernel, from one analysis.

:func:`repro.vir.analysis.kernel_facts` computes every fact the
simulator reads about a kernel (the data-dependence verdict and data
registers, the launch-invariant suffix, the batchability access summary
and the top-level loop proofs) from one flow table, once per kernel.

``kernel_facts_golden.json`` holds those facts for every kernel the
project builds (``kernels``: label -> index of its row in ``rows``),
recorded before the analyses were merged into one pass:
the Figure-6 catalog × add/max/min × float/int × blocks 64–1024 (with
the one-block-grid unit-stride kernel of every grid-strided version),
the CUB and Kokkos baselines, Scan with both strategies, Histogram
shared and global, and the sanitizer's negative codelets.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np

from repro import ReductionFramework
from repro.apps import Histogram, Scan
from repro.baselines import build_cub_plan, build_kokkos_plan
from repro.codegen import Tunables, build_plan_cached
from repro.codegen.synthesize import build_plan
from repro.core.variants import FIG6
from repro.gpusim import Executor, analyze_batchability, compile_kernel
from repro.perf import cache as perf_cache
from repro.sanitize.negatives import all_negatives
from repro.vir import analysis
from repro.vir.analysis import kernel_facts

GOLDEN = Path(__file__).with_name("kernel_facts_golden.json")

OPS = ("add", "max", "min")
CTYPES = ("float", "int")
BLOCKS = (64, 128, 256, 512, 1024)
N = 1 << 20


def _plans():
    """``(label, plan)`` of every plan whose kernels the table covers,
    each built with fresh kernels."""
    for op in OPS:
        for ctype in CTYPES:
            fw = ReductionFramework(op=op, ctype=ctype)
            for label in FIG6:
                version = fw.resolve(label)
                for block in BLOCKS:
                    name = f"{op}/{ctype}/{label}/b{block}"
                    yield name, build_plan(fw.pre, version, N, Tunables(block=block))
                    if version.grid_pattern == "stride":
                        yield f"{name}/grid1", build_plan(
                            fw.pre, version, N, Tunables(block=block, grid=1)
                        )
        yield f"cub/{op}", build_cub_plan(N, op)
        yield f"kokkos/{op}", build_kokkos_plan(N, op)
    for strategy in ("shared", "shuffle"):
        yield f"scan/{strategy}", Scan(strategy=strategy).build_plan(N)
    for strategy in ("shared", "global"):
        yield f"histogram/{strategy}", Histogram(strategy=strategy).build_plan(N)
    for negative in all_negatives():
        yield f"negative/{negative.name}", negative.plan


def _kernels():
    """``(label, kernel)`` of every kernel of :func:`_plans`."""
    for name, plan in _plans():
        for index, step in enumerate(plan.kernel_steps()):
            yield f"{name}/{index}:{step.kernel.name}", step.kernel


def _plain(value):
    return value if isinstance(value, int) else str(value)


def _loop(summary) -> dict:
    if summary.reason is not None:
        return {"reason": summary.reason, "detail": summary.detail}
    return {
        "inductions": [[name, _plain(step)] for name, step in summary.inductions],
        "induction": summary.induction,
        "op": summary.op,
        "bound": str(summary.bound),
        "loads": [
            [buf, str(idx), _plain(per_trip), width]
            for buf, idx, per_trip, width in summary.loads
        ],
    }


def _row(dependence, data, suffix, batchable, loops) -> dict:
    """One kernel's table row. ``suffix``: ``(trace index, buffers,
    reads the block id)``; ``batchable``: the ``analyze_batchability``
    verdict without a device; ``loops``: ``(top-level index, summary)``
    of every top-level loop."""
    start, buffers, reads_block_id = suffix
    return {
        "data_dependence": dependence,
        "data_registers": sorted(data),
        "suffix": [start, list(buffers), reads_block_id],
        "batchable": list(batchable),
        "loops": [[top, _loop(summary)] for top, summary in loops],
    }


def _facts(kernel) -> dict:
    facts = kernel_facts(kernel)
    return _row(
        facts.data_dependence,
        facts.data_registers,
        (facts.suffix_start, facts.suffix_buffers, facts.suffix_reads_block_id),
        analyze_batchability(kernel),
        sorted(facts.loops.items()),
    )


def test_facts_match_the_golden_table():
    table = json.loads(GOLDEN.read_text())
    golden = {label: table["rows"][row] for label, row in table["kernels"].items()}
    got = {label: _facts(kernel) for label, kernel in _kernels()}
    assert sorted(got) == sorted(golden)
    for label, row in golden.items():
        assert got[label] == row, label


def test_one_analysis_per_kernel(monkeypatch):
    """Pre-warm, the trace, the batchability verdict and repeated
    sampled, unsampled and profile launches of a plan build each
    kernel's flow table once."""
    monkeypatch.setattr(perf_cache, "_default_plan_cache", perf_cache.ProfileCache())
    built = Counter()
    flow_rows = analysis._flow_rows

    def counting(body):
        built[id(body)] += 1
        return flow_rows(body)

    monkeypatch.setattr(analysis, "_flow_rows", counting)
    fw = ReductionFramework(op="add")
    n = 100_003
    data = np.ones(n, dtype=np.float32)
    kernels = []
    for label in ("b", "f", "k", "o"):
        plan = build_plan_cached(
            fw.pre, fw.resolve(label), n, Tunables(block=64, grid=512)
        )
        for kernel in (step.kernel for step in plan.kernel_steps()):
            kernels.append(kernel)
            artifact = compile_kernel(kernel)
            assert artifact.trace
            analyze_batchability(kernel)
        for _ in range(2):
            for options in ({}, {"sample_limit": 3}, {"values": False}):
                executor = Executor()
                executor.device.upload("in", data)
                executor.run_plan(plan, **options)
    assert len(kernels) == 4
    assert built == Counter({id(kernel.body): 1 for kernel in kernels})


def test_combine_sits_before_the_unchanged_suffix():
    """The keyed combine leaves the suffix where the golden table has
    it, and ends at it or at the end of the kernel."""
    table = json.loads(GOLDEN.read_text())
    golden = {label: table["rows"][row] for label, row in table["kernels"].items()}
    for label, kernel in _kernels():
        facts = kernel_facts(kernel)
        assert facts.suffix_start == golden[label]["suffix"][0], label
        if facts.combine_start is None:
            continue
        assert facts.combine_end in (None, facts.suffix_start), label
        if facts.suffix_start is not None:
            assert facts.combine_start < facts.suffix_start, label
