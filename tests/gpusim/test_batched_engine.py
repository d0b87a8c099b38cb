"""Batched vs sequential execution: bit-identical results and events.

The batched engine executes every block of a launch as one 2-D numpy
batch. Its contract (ISSUE: batched block execution) is that on any
batchable kernel it produces *bit-identical* results AND identical
per-step event counters to the per-block sequential interpreter. These
tests sweep the full Figure 6 catalog for both element types plus the
fallback analysis that routes non-batchable kernels to the sequential
path.
"""

import numpy as np
import pytest

from repro.apps.histogram import Histogram
from repro.apps.scan import Scan
from repro.codegen import Tunables
from repro.gpusim import Device, Executor, analyze_batchability
from repro.runtime import ReductionFramework

FIG6_LABELS = "abcdefghijklmnop"


def _tunables(version):
    if version.block_kind == "coop":
        return Tunables(block=64)
    return Tunables(block=64, grid=8)


def _executor(sequential):
    """An executor in its derived block order, or with one-block chunks
    (``BATCH_LANES = 1``): the sequential ordering reference."""
    executor = Executor()
    if sequential:
        executor.BATCH_LANES = 1
    return executor


def _run(fw, plan, data, sequential, sample_limit=None):
    executor = _executor(sequential)
    executor.device.upload("in", data)
    return executor.run_plan(plan, sample_limit=sample_limit)


def _assert_profiles_identical(seq, bat):
    assert bat.result == seq.result  # bit-identical, no tolerance
    assert len(bat.steps) == len(seq.steps)
    for s, b in zip(seq.steps, bat.steps):
        assert dict(b.events) == dict(s.events), s.kernel_name


@pytest.fixture(scope="module")
def frameworks():
    return {
        "float": ReductionFramework(op="add", ctype="float"),
        "int": ReductionFramework(op="add", ctype="int"),
    }


class TestFigure6Equivalence:
    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    @pytest.mark.parametrize("ctype", ["float", "int"])
    def test_results_and_events_identical(self, frameworks, label, ctype):
        fw = frameworks[ctype]
        rng = np.random.default_rng(7)
        n = 3333
        if ctype == "int":
            data = rng.integers(-50, 50, size=n).astype(np.int32)
        else:
            data = rng.random(n).astype(np.float32)
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        seq = _run(fw, plan, data, sequential=True)
        bat = _run(fw, plan, data, sequential=False)
        _assert_profiles_identical(seq, bat)

    def test_device_buffers_identical(self, frameworks):
        """Not just the scalar result: every output buffer matches."""
        fw = frameworks["float"]
        rng = np.random.default_rng(11)
        data = rng.random(2048).astype(np.float32)
        version = fw.resolve("b")
        plan = fw.build(version, len(data), Tunables(block=64, grid=8))
        outs = {}
        for sequential in (True, False):
            executor = _executor(sequential)
            executor.device.upload("in", data)
            executor.run_plan(plan)
            outs[sequential] = executor.device.download("out").copy()
        np.testing.assert_array_equal(outs[True], outs[False])

    def test_min_max_ops_identical(self, frameworks):
        for op in ("min", "max"):
            fw = ReductionFramework(op=op)
            rng = np.random.default_rng(3)
            data = rng.random(1500).astype(np.float32)
            version = fw.resolve("p")
            plan = fw.build(version, len(data), Tunables(block=64, grid=4))
            seq = _run(fw, plan, data, sequential=True)
            bat = _run(fw, plan, data, sequential=False)
            _assert_profiles_identical(seq, bat)

    def test_sampled_run_identical(self, frameworks):
        """sample_limit composes with batching (a sampled grid is just a
        smaller batch)."""
        fw = frameworks["float"]
        rng = np.random.default_rng(5)
        data = rng.random(1 << 16).astype(np.float32)
        version = fw.resolve("b")
        plan = fw.build(version, len(data), Tunables(block=128, grid=32))
        seq = _run(fw, plan, data, sequential=True, sample_limit=3)
        bat = _run(fw, plan, data, sequential=False, sample_limit=3)
        for s, b in zip(seq.steps, bat.steps):
            assert b.sampled_blocks == s.sampled_blocks
            assert dict(b.events) == dict(s.events)

    def test_chunked_batches_identical(self):
        """Launches above BATCH_LANES execute in block-ordered chunks and
        must still match the sequential engine exactly."""
        fw = ReductionFramework(op="add")
        rng = np.random.default_rng(13)
        data = rng.random(40000).astype(np.float32)
        version = fw.resolve("b")
        plan = fw.build(version, len(data), Tunables(block=64, grid=48))
        seq = _run(fw, plan, data, sequential=True)
        executor = Executor()
        executor.BATCH_LANES = 64 * 7  # force several uneven chunks
        executor.device.upload("in", data)
        bat = executor.run_plan(plan)
        _assert_profiles_identical(seq, bat)
        # One-block chunks by lane count: a batched launch cut exactly
        # like the sequential order.
        executor = Executor()
        executor.BATCH_LANES = 64
        executor.device.upload("in", data)
        one = executor.run_plan(plan)
        _assert_profiles_identical(seq, one)


class TestExecutionModeSelection:
    def test_auto_batches_reduction_kernels(self):
        fw = ReductionFramework(op="add")
        data = np.ones(4096, dtype=np.float32)
        plan = fw.build("b", len(data), Tunables(block=64, grid=8))
        executor = Executor()
        executor.device.upload("in", data)
        profile = executor.run_plan(plan)
        multi = [s for s in profile.steps if s.grid > 1]
        assert multi and all(s.meta["exec.mode"] == "batched" for s in multi)

    def test_auto_single_block_stays_sequential(self):
        fw = ReductionFramework(op="add")
        data = np.ones(256, dtype=np.float32)
        plan = fw.build("a", len(data), Tunables(block=64))
        executor = Executor()
        executor.device.upload("in", data)
        profile = executor.run_plan(plan)
        assert all(
            s.meta["exec.mode"] == "sequential"
            for s in profile.steps
            if s.grid == 1
        )

    def test_all_fig6_kernels_are_batchable(self):
        fw = ReductionFramework(op="add")
        for label in FIG6_LABELS:
            plan = fw.build(label, 4096, _tunables(fw.resolve(label)))
            for step in plan.kernel_steps():
                ok, reason = analyze_batchability(step.kernel)
                assert ok, f"({label}) {step.kernel.name}: {reason}"


class TestFallbackAnalysis:
    def test_scan_kernels_fall_back(self):
        """Scan loads and stores the same global buffer — a cross-block
        hazard the batch analysis must reject."""
        plan = Scan().build_plan(4096)
        verdicts = [
            analyze_batchability(step.kernel)
            for step in plan.kernel_steps()
        ]
        assert any(not ok for ok, _ in verdicts)

    def test_histogram_float_semantics_preserved(self):
        """Histogram atomics inside a while loop: whatever the analysis
        decides, results must equal the sequential engine's."""
        app = Histogram(bins=16)
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 16, size=5000).astype(np.int32)
        counts, _ = app.run(keys)
        expected = np.bincount(keys % 16, minlength=16)
        np.testing.assert_array_equal(counts, expected)

    def test_apps_still_correct_in_auto_mode(self):
        data = np.random.default_rng(1).random(3000).astype(np.float32)
        prefix, _ = Scan().run(data)
        np.testing.assert_allclose(
            prefix, np.cumsum(data.astype(np.float64)), rtol=1e-4
        )
