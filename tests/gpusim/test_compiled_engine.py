"""Compiled vs interpreted execution: bit-identical results and events.

The compiled backend walks each kernel body once and emits a flat list
of specialized closures (one per top-level instruction; loops run as
loop closures), so per-instruction dispatch disappears from the hot loop.
Its contract (ISSUE: closure-compiled VIR executor) is that on *every*
kernel it produces bit-identical results AND identical per-step event
counters to the tree-walking interpreter, under both the sequential and
batched execution modes. These tests sweep the full Figure 6 catalog
for every supported (op, ctype) pair, plus backend-name validation, the
compile/batchability memos and the process-wide kernel cache.
"""

import itertools

import numpy as np
import pytest

from repro.codegen import Tunables, build_plan_cached, kernel_key
from repro.gpusim import (
    EVENT_KEYS,
    Executor,
    analyze_batchability,
    compile_kernel,
)
from repro.obs import default_metrics
from repro.perf import default_plan_cache
from repro.runtime import ReductionFramework
from repro.gpusim.engine import ALU_IMPL
from repro.vir import (
    BINARY_OPS,
    UNARY_OPS,
    Comment,
    IRBuilder,
    Kernel,
    KernelStep,
    Plan,
    instructions,
)
from repro.vir.analysis import kernel_facts
from repro.vir.assembler import parse_kernel

FIG6_LABELS = "abcdefghijklmnop"
BACKENDS = ("compiled", "interpreted")
OPS = ("add", "max", "min")
CTYPES = ("float", "int")


def _tunables(version):
    if version.block_kind == "coop":
        return Tunables(block=64)
    return Tunables(block=64, grid=8)


def _data(ctype, n, seed=7):
    rng = np.random.default_rng(seed)
    if ctype == "int":
        return rng.integers(-50, 50, size=n).astype(np.int32)
    return rng.random(n).astype(np.float32)


def _run(plan, data, sequential=False, backend="compiled"):
    executor = Executor(backend=backend)
    if sequential:
        executor.BATCH_LANES = 1  # one-block chunks
    executor.device.upload("in", data)
    return executor.run_plan(plan)


def _assert_profiles_identical(ref, got):
    assert got.result == ref.result  # bit-identical, no tolerance
    assert len(got.steps) == len(ref.steps)
    for r, g in zip(ref.steps, got.steps):
        assert dict(g.events) == dict(r.events), r.kernel_name


@pytest.fixture(scope="module")
def frameworks():
    return {
        (op, ctype): ReductionFramework(op=op, ctype=ctype)
        for op, ctype in itertools.product(OPS, CTYPES)
    }


class TestFigure6Equivalence:
    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    @pytest.mark.parametrize("ctype", CTYPES)
    @pytest.mark.parametrize("op", OPS)
    def test_results_and_events_identical(self, frameworks, label, op, ctype):
        """Exhaustive: every Fig. 6 version × op × element type."""
        fw = frameworks[(op, ctype)]
        n = 3333
        data = _data(ctype, n)
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        interp = _run(plan, data, backend="interpreted")
        comp = _run(plan, data, backend="compiled")
        _assert_profiles_identical(interp, comp)

    @pytest.mark.parametrize("label", ["b", "p"])
    def test_all_mode_backend_combinations(self, frameworks, label):
        """Both backends × both block orders agree with the reference
        sequential interpreter."""
        fw = frameworks[("add", "float")]
        n = 2048
        data = _data("float", n, seed=11)
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        ref = _run(plan, data, sequential=True, backend="interpreted")
        for sequential in (True, False):
            for backend in BACKENDS:
                got = _run(plan, data, sequential=sequential, backend=backend)
                _assert_profiles_identical(ref, got)

    def test_device_buffers_identical(self, frameworks):
        """Not just the scalar result: every output buffer matches."""
        fw = frameworks[("add", "float")]
        data = _data("float", 2048, seed=13)
        plan = fw.build("b", len(data), Tunables(block=64, grid=8))
        outs = {}
        for backend in BACKENDS:
            executor = Executor(backend=backend)
            executor.device.upload("in", data)
            executor.run_plan(plan)
            outs[backend] = executor.device.download("out").copy()
        np.testing.assert_array_equal(outs["interpreted"], outs["compiled"])

    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    @pytest.mark.parametrize("op,ctype", [("add", "float"), ("max", "int")])
    def test_multi_chunk_identical(self, frameworks, label, op, ctype):
        """A launch cut into several chunks, the last one ragged, with a
        partial last block: block-uniform registers change height from
        chunk to chunk. Result, every event counter and the ``out``
        buffer must match the interpreter bit for bit."""
        fw = frameworks[(op, ctype)]
        n, lanes = 4099, 192  # three 64-thread blocks per chunk
        data = _data(ctype, n, seed=17)
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        step = plan.kernel_steps()[0]
        per_chunk = lanes // step.block
        assert step.grid > per_chunk and step.grid % per_chunk, step.grid
        assert n % step.block, "the last block must be partial"
        outs, profiles = {}, {}
        for backend in BACKENDS:
            executor = Executor(backend=backend)
            executor.BATCH_LANES = lanes
            executor.device.upload("in", data)
            profiles[backend] = executor.run_plan(plan)
            outs[backend] = executor.device.download("out").copy()
        assert all(
            s.meta["exec.mode"] == "batched"
            for s in profiles["compiled"].steps if s.grid > 1
        )
        _assert_profiles_identical(profiles["interpreted"], profiles["compiled"])
        assert outs["compiled"].tobytes() == outs["interpreted"].tobytes()

    @pytest.mark.parametrize("grid", [None, 512])
    @pytest.mark.parametrize("block", [64, 256])
    @pytest.mark.parametrize("ctype", CTYPES)
    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    def test_sampled_run_identical(self, frameworks, label, ctype, block, grid):
        """Sampled compiled launches skip proven-periodic loop trips; every
        event counter must still match the sampled interpreter bit for
        bit, whatever shape the sampled tail block has."""
        fw = frameworks[("add", ctype)]
        version = fw.resolve(label)
        tunables = Tunables(block=block, grid=grid)
        blocks = grid or 1024  # compound grid once n > 1024 * block
        # Tile-tile loads repeat every 32 trips; a skip needs a stretch
        # of > 2 periods under one mask, also after a short partial lane.
        coarsen = 72
        full = blocks * block * coarsen
        sizes = {
            "all lanes full": full,
            # one partial lane; n not a multiple of the block
            "one partial lane": full - 1,
            "zero-trip lanes": full - block * coarsen // 2 + 3,
            "coarsen == 1": blocks * block,
        }
        for shape, n in sizes.items():
            plan = fw.build(version, n, tunables)
            ref = _profile_sampled(plan, n, "interpreted")
            before = _trips_extrapolated()
            got = _profile_sampled(plan, n, "compiled")
            skipped = _trips_extrapolated() - before
            assert len(got.steps) == len(ref.steps)
            for r, g in zip(ref.steps, got.steps):
                assert g.sampled_blocks == r.sampled_blocks
                for key in EVENT_KEYS:
                    assert g.events[key] == r.events[key], (shape, key)
            assert ref.steps[0].sampled_blocks, shape
            if version.block_kind == "compound" and shape != "coarsen == 1":
                assert plan.meta["geometry"]["coarsen"] == coarsen, shape
                assert skipped > 0, shape


def _profile_sampled(plan, n, backend):
    executor = Executor(backend=backend)
    executor.device.alloc("in", n, dtype=np.dtype(plan.meta["dtype"]))
    return executor.run_plan(plan, sample_limit=3)


def _trips_extrapolated():
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    return counters.get("exec.loop.trips_extrapolated", 0)


class TestEngineSpec:
    @pytest.mark.parametrize(
        "spec",
        ["turbo", "batched-sequential", "compiled-interpreted", "auto-auto", "",
         "auto", "batched", "sequential", "sequential-interpreted"],
    )
    def test_invalid_specs_rejected(self, spec):
        """An executor backend is ``compiled`` or ``interpreted``; the
        retired execution modes and mode-backend pairs are unknown."""
        with pytest.raises(ValueError, match="unknown backend"):
            Executor(backend=spec)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            Executor(backend="jit")

    def test_backend_recorded_in_meta(self):
        fw = ReductionFramework(op="add")
        data = np.ones(4096, dtype=np.float32)
        plan = fw.build("b", len(data), Tunables(block=64, grid=8))
        for backend in BACKENDS:
            profile = _run(plan, data, backend=backend)
            assert all(
                s.meta["exec.backend"] == backend for s in profile.steps
            )

    def test_framework_engine_spec_applied(self):
        """The framework runs every launch on ``compiled``."""
        fw = ReductionFramework(op="add")
        data = np.ones(2048, dtype=np.float32)
        result = fw.run(data, "b", Tunables(block=64, grid=8))
        steps = result.profile.steps
        assert all(s.meta["exec.backend"] == "compiled" for s in steps)
        # The block order is derived per launch.
        assert [s.meta["exec.mode"] for s in steps] == [
            "batched" if s.grid > 1 else "sequential" for s in steps
        ]


class TestCompilation:
    def test_trace_is_memoized_per_kernel(self):
        fw = ReductionFramework(op="add")
        plan = fw.build("p", 4096, Tunables(block=64))
        kernel = list(plan.kernel_steps())[0].kernel
        first = compile_kernel(kernel)
        assert compile_kernel(kernel) is first
        assert first.kernel_name == kernel.name

    @pytest.mark.parametrize("block", [64, 256])
    def test_one_closure_per_top_level_instruction(self, block):
        """Every loop compiles to one loop closure, so the trace holds
        exactly one closure per top-level instruction."""
        fw = ReductionFramework(op="add")
        for label in FIG6_LABELS:
            version = fw.resolve(label)
            tunables = Tunables(block=block)
            if version.block_kind != "coop":
                tunables = Tunables(block=block, grid=8)
            plan = fw.build(version, 4096, tunables)
            for kernel in _kernels(plan):
                expected = sum(
                    not isinstance(instr, Comment) for instr in kernel.body
                )
                assert len(compile_kernel(kernel).trace) == expected

    def test_batchability_memoized(self):
        """The access summary is one of the kernel's static facts,
        computed once per kernel."""
        fw = ReductionFramework(op="add")
        plan = fw.build("b", 4096, Tunables(block=64, grid=8))
        kernel = list(plan.kernel_steps())[0].kernel
        verdict = analyze_batchability(kernel)
        facts = kernel.facts["static"]
        assert analyze_batchability(kernel) == verdict
        assert kernel.facts["static"] is facts


#: A proven loop whose step is a folded constant (``16 * 4``).
STRIDE_LOOP = """
.kernel stride(params: -; buffers: in, out)
  %t = %tid
  %step = mul 16, 4
  %i = mov 0
  %acc = mov 0.0
  while {
    %c = lt %i, 1024
  } test %c {
    %j = add %i, %t
    %v = ld.global [in + %j]
    %acc = add %acc, %v
    %i = add %i, %step
  }
  st.global [out + %t], %acc
"""


class TestAluTable:
    def test_covers_every_opcode(self):
        assert set(ALU_IMPL) == BINARY_OPS | UNARY_OPS

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Record every opcode computed through ``ALU_IMPL``."""
        used = []
        for op, impl in list(ALU_IMPL.items()):
            def spy(*values, op=op, impl=impl):
                used.append(op)
                return impl(*values)

            monkeypatch.setitem(ALU_IMPL, op, spy)
        return used

    def test_is_the_vir_opcode_table(self):
        assert ALU_IMPL is instructions.ALU_IMPL

    def test_loop_proof_folds_through_it(self, monkeypatch):
        """The constant analysis behind a loop proof folds BinOp and
        UnOp through ``ALU_IMPL``: the step ``16 * 4`` is the table's."""
        used = self._spy(monkeypatch)
        kernel = parse_kernel(STRIDE_LOOP)
        summary = kernel_facts(kernel).loops[4]
        assert summary.reason is None, summary.detail
        assert summary.inductions == (("i", 64),)
        assert used == ["mul"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_dispatches_through_it(self, backend, monkeypatch):
        """Both backends compute BinOp and UnOp through ``ALU_IMPL``."""
        used = self._spy(monkeypatch)
        b = IRBuilder()
        tid = b.special("tid")
        b.st_global("out", tid, b.unop("neg", b.binop("add", tid, 1)))
        kernel = Kernel("alu", buffers=["out"], body=b.finish())
        plan = Plan("alu", steps=[
            KernelStep(kernel, grid=1, block=32, buffers={"out": "out"})
        ])
        executor = Executor(backend=backend)
        executor.device.alloc("out", 32, dtype=np.dtype("int32"))
        assert executor.run_plan(plan).result == -1
        assert used == ["add", "neg"]


def _kernels(plan):
    return [step.kernel for step in plan.kernel_steps()]


class TestPlanCache:
    def test_same_point_shares_one_plan(self):
        """Plans of one (version, block) share their kernels, across
        framework instances and across n and grid."""
        fw1 = ReductionFramework(op="add")
        fw2 = ReductionFramework(op="add")
        t = Tunables(block=64, grid=8)
        p1 = fw1.build("b", 4096, t)
        p2 = fw2.build("b", 4096, t)
        assert _kernels(p1) == _kernels(p2)
        assert all(a is b for a, b in zip(_kernels(p1), _kernels(p2)))
        assert fw1.pre is fw2.pre  # frontend memoized too
        p3 = fw1.build("b", 8192, Tunables(block=64, grid=16))
        assert _kernels(p3)[0] is _kernels(p1)[0]  # new n and grid
        assert p3.kernel_steps()[0].args["n"] == 8192

    def test_key_separates_configurations(self):
        fw_add = ReductionFramework(op="add")
        fw_max = ReductionFramework(op="max")
        v = fw_add.resolve("b")
        t = Tunables(block=64, grid=8)
        assert kernel_key(fw_add.pre, v, 4096, t) != kernel_key(
            fw_max.pre, v, 4096, t
        )
        assert kernel_key(fw_add.pre, v, 4096, t) != kernel_key(
            fw_add.pre, v, 4096, Tunables(block=128, grid=8)
        )
        # n and grid are launch arguments, not part of the kernel
        assert kernel_key(fw_add.pre, v, 4096, t) == kernel_key(
            fw_add.pre, v, 8192, Tunables(block=64, grid=512)
        )

    def test_hit_statistics_recorded(self):
        fw = ReductionFramework(op="add")
        cache = default_plan_cache()
        t = Tunables(block=96, grid=5)  # unlikely to be cached already
        fw.build("b", 5000, t)
        hits = cache.stats.hits
        fw.build("b", 7000, t)
        assert cache.stats.hits == hits + 1

    def test_cached_plan_is_prewarmed(self):
        """A published kernel carries its compiled artifact and static
        facts before any launch."""
        fw = ReductionFramework(op="add")
        plan = build_plan_cached(
            fw.pre, fw.resolve("p"), 2222, Tunables(block=64)
        )
        for step in plan.kernel_steps():
            assert {"compiled", "static"} <= step.kernel.facts.keys()
            assert compile_kernel(step.kernel) is step.kernel.facts["compiled"]

    def test_cached_plans_still_correct(self):
        """A plan around cached kernels (shared kernels, shared traces)
        reduces correctly for fresh executors, data and sizes."""
        fw = ReductionFramework(op="add")
        t = Tunables(block=64, grid=8)
        for seed, n in ((1, 4096), (2, 4096), (3, 3001)):
            data = _data("float", n, seed=seed)
            result = fw.run(data, "b", t)
            ref = _run(fw.build("b", n, t), data, backend="interpreted")
            assert result.value == ref.result


class TestKernelSharing:
    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    def test_tune_grid_points_share_one_kernel(self, frameworks, label):
        """Every n and grid of a (version, block) tuning point runs the
        same kernel object."""
        from repro.autotune.tuner import DEFAULT_BLOCKS, DEFAULT_GRIDS

        fw = frameworks[("add", "float")]
        version = fw.resolve(label)
        for block in DEFAULT_BLOCKS:
            kernels = {
                id(_kernels(fw.build(version, n, Tunables(block, grid)))[0])
                for n in (1 << 10, 1 << 16, 1 << 22)
                for grid in DEFAULT_GRIDS
            }
            assert len(kernels) == 1, (label, block)

    def test_tune_grid_builds_one_kernel_per_version_and_block(self):
        """The 720-point tuning grid compiles at most one kernel per
        (version, block) — 64 — and reuses it everywhere else."""
        from repro.autotune.tuner import sweep_specs

        fw = ReductionFramework(op="add", ctype="float")
        specs = sweep_specs(fw, (1 << 10, 1 << 16, 1 << 22))
        assert len(specs) == 720
        before = _counters()
        for version, n, tunables in specs:
            fw.build(version, n, tunables)
        after = _counters()
        assert after.get("compile.kernels", 0) - before.get(
            "compile.kernels", 0
        ) <= 64
        built = after.get("codegen.kernels_built", 0) - before.get(
            "codegen.kernels_built", 0
        )
        reused = after.get("codegen.kernels_reused", 0) - before.get(
            "codegen.kernels_reused", 0
        )
        assert built <= 64 and built + reused == 720

    def test_unit_stride_grid_gets_its_own_kernel(self, frameworks):
        """Version k's element stride is the grid; a one-block grid bakes
        the stride 1 in (one multiply fewer), like the immediate did."""
        fw = frameworks[("add", "float")]
        one = _kernels(fw.build("k", 64, Tunables(block=64)))[0]
        many = _kernels(fw.build("k", 4096, Tunables(block=64)))[0]
        also_one = _kernels(fw.build("k", 4096, Tunables(block=64, grid=1)))[0]
        assert one is not many and one is also_one
        assert one.instruction_count() == many.instruction_count() - 1


def _counters():
    return default_metrics().snapshot(include_caches=False)["counters"]

