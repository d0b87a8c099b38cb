"""Unit tests for the functional SIMT execution engine."""

import numpy as np
import pytest

from repro.gpusim.device import Device, DeviceError
from repro.gpusim.engine import Executor, SimulationError
from repro.sanitize import Sanitizer
from repro.vir import (
    IRBuilder,
    Imm,
    Kernel,
    KernelStep,
    MemsetStep,
    Plan,
    SharedDecl,
)


def run_kernel(kernel, grid, block, args=None, buffers=None, device=None,
               sample_limit=None):
    executor = Executor(device=device)
    step = KernelStep(
        kernel, grid=grid, block=block, args=args or {}, buffers=buffers or {}
    )
    profile = executor.run_kernel(step, sample_limit=sample_limit)
    return executor.device, profile


class TestSpecialRegisters:
    def test_tid_and_block_identities(self):
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        ntid = b.special("ntid")
        gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
        b.st_global("out", gid, gid)
        kernel = Kernel("ids", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 128, dtype=np.int64)
        device, _ = run_kernel(kernel, grid=4, block=32,
                               buffers={"out": "out"}, device=device)
        np.testing.assert_array_equal(device.get("out"), np.arange(128))

    def test_laneid_warpid(self):
        b = IRBuilder()
        tid = b.special("tid")
        lane = b.special("laneid")
        warp = b.special("warpid")
        recon = b.binop("add", b.binop("mul", warp, Imm(32)), lane)
        eq = b.binop("eq", recon, tid)
        b.st_global("out", tid, eq)
        kernel = Kernel("lw", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 96, dtype=np.int64)
        device, _ = run_kernel(kernel, grid=1, block=96,
                               buffers={"out": "out"}, device=device)
        assert device.get("out").all()


class TestControlFlow:
    def test_if_masks_lanes(self):
        b = IRBuilder()
        tid = b.special("tid")
        lo = b.binop("lt", tid, 16)
        instr, then_r, else_r = b.if_else(lo)
        with then_r:
            b.st_global("out", tid, Imm(1.0))
        with else_r:
            b.st_global("out", tid, Imm(2.0))
        kernel = Kernel("ifel", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 32)
        device, profile = run_kernel(kernel, grid=1, block=32,
                                     buffers={"out": "out"}, device=device)
        out = device.get("out")
        assert (out[:16] == 1.0).all() and (out[16:] == 2.0).all()
        assert profile.events["branch.divergent"] == 1

    def test_uniform_branch_not_divergent(self):
        b = IRBuilder()
        tid = b.special("tid")
        warp = b.special("warpid")
        lo = b.binop("lt", warp, 1)  # whole warps agree
        with b.if_(lo):
            b.st_global("out", tid, Imm(1.0))
        kernel = Kernel("uni", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 64)
        _, profile = run_kernel(kernel, grid=1, block=64,
                                buffers={"out": "out"}, device=device)
        assert profile.events.get("branch.divergent", 0) == 0

    def test_while_per_lane_trip_counts(self):
        # lane i iterates i times accumulating 1 per iteration
        b = IRBuilder()
        tid = b.special("tid")
        acc = b.mov(Imm(0))
        i = b.mov(Imm(0))
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", i, tid, dst=cond)
        with loop.body:
            b.binop("add", acc, Imm(1), dst=acc)
            b.binop("add", i, Imm(1), dst=i)
        b.st_global("out", tid, acc)
        kernel = Kernel("w", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 40, dtype=np.int64)
        device, _ = run_kernel(kernel, grid=1, block=40,
                               buffers={"out": "out"}, device=device)
        np.testing.assert_array_equal(device.get("out"), np.arange(40))

    def test_runaway_loop_capped(self):
        b = IRBuilder()
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.mov(Imm(True), dst=cond)
        with loop.body:
            b.mov(Imm(0))
        kernel = Kernel("inf", body=b.finish())
        executor = Executor()
        executor.LOOP_CAP = 100
        step = KernelStep(kernel, grid=1, block=32)
        with pytest.raises(SimulationError, match="iteration cap"):
            executor.run_kernel(step)


class TestMemory:
    def test_out_of_bounds_global_read_detected(self):
        b = IRBuilder()
        tid = b.special("tid")
        b.ld_global("in", tid)
        kernel = Kernel("oob", buffers=["in"], body=b.finish())
        device = Device()
        device.alloc("in", 8)
        with pytest.raises(SimulationError, match="out-of-bounds"):
            run_kernel(kernel, grid=1, block=32, buffers={"in": "in"},
                       device=device)

    def test_out_of_bounds_shared_detected(self):
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("smem", tid, Imm(1.0))
        kernel = Kernel(
            "oobs", shared=[SharedDecl("smem", 8)], body=b.finish()
        )
        with pytest.raises(SimulationError, match="out-of-bounds"):
            run_kernel(kernel, grid=1, block=32)

    def test_read_of_unwritten_register(self):
        from repro.vir import Mov, Reg

        kernel = Kernel("unwritten", body=[Mov(Reg("a"), Reg("ghost"))])
        with pytest.raises(SimulationError, match="unwritten register"):
            run_kernel(kernel, grid=1, block=32)

    def test_coalesced_vs_strided_transactions(self):
        def make(stride):
            b = IRBuilder()
            tid = b.special("tid")
            idx = b.binop("mul", tid, Imm(stride))
            b.ld_global("in", idx)
            return Kernel("ld", buffers=["in"], body=b.finish())

        device = Device()
        device.alloc("in", 32 * 32)
        _, coalesced = run_kernel(make(1), grid=1, block=32,
                                  buffers={"in": "in"}, device=device)
        device2 = Device()
        device2.alloc("in", 32 * 32)
        _, strided = run_kernel(make(32), grid=1, block=32,
                                buffers={"in": "in"}, device=device2)
        assert coalesced.events["mem.global.ld.trans"] == 1
        assert strided.events["mem.global.ld.trans"] == 32

    def test_vector_load_counts_one_instruction(self):
        b = IRBuilder()
        tid = b.special("tid")
        base = b.binop("mul", tid, Imm(4))
        b.ld_global_vec("in", base, width=4)
        kernel = Kernel("vec", buffers=["in"], body=b.finish())
        device = Device()
        device.alloc("in", 4 * 32)
        _, profile = run_kernel(kernel, grid=1, block=32,
                                buffers={"in": "in"}, device=device)
        assert profile.events["inst.ld.global"] == 1
        # 128 consecutive floats = 4 segments of 128B, counted once
        assert profile.events["mem.global.ld.trans"] == 4

    def test_bank_conflicts_counted(self):
        b = IRBuilder()
        tid = b.special("tid")
        idx = b.binop("mul", tid, Imm(32))  # all lanes hit bank 0
        b.st_shared("smem", idx, Imm(1.0))
        kernel = Kernel(
            "bank", shared=[SharedDecl("smem", 32 * 32)], body=b.finish()
        )
        _, profile = run_kernel(kernel, grid=1, block=32)
        assert profile.events["mem.shared.replays"] == 31

    def test_race_detection_opt_in(self):
        """Race detection is the opt-in sanitizer: a same-instruction
        store of different values to one index is a write-write hazard
        on every backend."""
        b = IRBuilder()
        tid = b.special("tid")
        b.st_global("out", Imm(0), tid)  # all lanes write index 0
        kernel = Kernel("race", buffers=["out"], body=b.finish())
        for backend in ("compiled", "interpreted"):
            device = Device()
            device.alloc("out", 4)
            sanitizer = Sanitizer()
            executor = Executor(
                device=device, backend=backend, sanitizer=sanitizer
            )
            step = KernelStep(kernel, grid=1, block=32,
                              buffers={"out": "out"})
            executor.run_kernel(step)
            kinds = {d.kind for d in sanitizer.diagnostics}
            assert kinds == {"write-write-hazard"}, (backend, kinds)


class TestAtomics:
    def test_shared_atomic_add_contention(self):
        b = IRBuilder()
        b.atom_shared("add", "smem", Imm(0), Imm(1.0))
        kernel = Kernel("satom", shared=[SharedDecl("smem", 1)], body=b.finish())
        _, profile = run_kernel(kernel, grid=1, block=64)
        assert profile.events["atom.shared.ops"] == 64
        # all 32 lanes of each warp hit the same address -> 32 serialized
        assert profile.events["atom.shared.warp_serial"] == 64
        assert profile.events["atom.shared.block_max_same_addr"] == 64

    def test_global_atomic_accumulates_across_blocks(self):
        b = IRBuilder()
        tid = b.special("tid")
        z = b.binop("eq", tid, 0)
        with b.if_(z):
            b.atom_global("add", "out", 0, Imm(1.0))
        kernel = Kernel("gatom", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 1)
        device, profile = run_kernel(kernel, grid=10, block=32,
                                     buffers={"out": "out"}, device=device)
        assert device.get("out")[0] == 10.0
        assert profile.events["atom.global.max_same_addr"] == 10

    def test_atomic_max(self):
        b = IRBuilder()
        tid = b.special("tid")
        b.atom_global("max", "out", 0, tid)
        kernel = Kernel("gmax", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 1)
        device, _ = run_kernel(kernel, grid=1, block=64,
                               buffers={"out": "out"}, device=device)
        assert device.get("out")[0] == 63


class TestShuffle:
    def _shfl_kernel(self, mode, offset, width=32):
        b = IRBuilder()
        tid = b.special("tid")
        src = b.mov(tid)
        res = b.shfl(src, mode, offset, width=width)
        b.st_global("out", tid, res)
        return Kernel("shfl", buffers=["out"], body=b.finish())

    def _run(self, kernel, block=32):
        device = Device()
        device.alloc("out", block, dtype=np.int64)
        device, _ = run_kernel(kernel, grid=1, block=block,
                               buffers={"out": "out"}, device=device)
        return device.get("out")

    def test_shfl_down(self):
        out = self._run(self._shfl_kernel("down", 1))
        expected = np.arange(32) + 1
        expected[31] = 31  # out of range -> own value
        np.testing.assert_array_equal(out, expected)

    def test_shfl_up(self):
        out = self._run(self._shfl_kernel("up", 1))
        expected = np.arange(32) - 1
        expected[0] = 0
        np.testing.assert_array_equal(out, expected)

    def test_shfl_xor(self):
        out = self._run(self._shfl_kernel("xor", 1))
        expected = np.arange(32) ^ 1
        np.testing.assert_array_equal(out, expected)

    def test_shfl_respects_warp_boundaries(self):
        out = self._run(self._shfl_kernel("down", 16), block=64)
        assert out[0] == 16   # lane 0 reads lane 16 of warp 0
        assert out[15] == 31  # lane 15 reads lane 31 of warp 0
        assert out[16] == 16  # 16+16 leaves the warp -> own value
        assert out[32] == 48  # lane 0 of warp 1 reads lane 16 of warp 1
        assert out[48] == 48  # out of range within warp 1 -> own value

    def test_subwarp_width(self):
        out = self._run(self._shfl_kernel("down", 4, width=8))
        # within each 8-lane subwarp
        assert out[0] == 4
        assert out[5] == 5  # 5+4=9 out of subwarp range -> own value


class TestPlansAndSampling:
    def _plan(self, n, grid, block):
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        ntid = b.special("ntid")
        gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
        nreg = b.ld_param("n")
        ok = b.binop("lt", gid, nreg)
        with b.if_(ok):
            value = b.ld_global("in", gid)
            b.atom_global("add", "out", 0, value)
        kernel = Kernel("sum", params=["n"], buffers=["in", "out"], body=b.finish())
        return Plan(
            "t",
            steps=[
                MemsetStep("out", 0.0),
                KernelStep(kernel, grid=grid, block=block, args={"n": n},
                           buffers={"in": "in", "out": "out"}),
            ],
            scratch={"out": 1},
        )

    def test_plan_runs_and_returns_result(self, rng):
        n = 1000
        plan = self._plan(n, grid=8, block=128)
        executor = Executor()
        data = rng.random(n).astype(np.float32)
        executor.device.upload("in", data)
        profile = executor.run_plan(plan)
        assert profile.result == pytest.approx(float(data.sum()), rel=1e-5)
        assert not profile.meta["sampled"]

    def test_sampled_run_scales_events(self, rng):
        n = 128 * 64
        plan = self._plan(n, grid=64, block=128)
        executor = Executor()
        executor.device.upload("in", np.ones(n, dtype=np.float32))
        profile = executor.run_plan(plan, sample_limit=4)
        assert profile.meta["sampled"]
        assert profile.result is None
        step = profile.steps[0]
        assert step.sampled_blocks == 4
        scaled = step.scaled()
        assert scaled["blocks"] == 64
        # every thread issues one atomic; 4 sampled blocks scale to 64
        assert scaled["atom.global.ops"] == pytest.approx(n, rel=0.01)

    def test_sampled_cross_block_max_same_addr_extrapolates(self):
        """Every block hits out[0] (the final-combine pattern): the
        sampled per-address total must extrapolate to the full grid."""
        b = IRBuilder()
        tid = b.special("tid")
        z = b.binop("eq", tid, 0)
        with b.if_(z):
            b.atom_global("add", "out", 0, Imm(1.0))
        kernel = Kernel("combine", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 1)
        _, profile = run_kernel(kernel, grid=64, block=32,
                                buffers={"out": "out"}, device=device,
                                sample_limit=4)
        assert profile.sampled_blocks == 4
        # 4 sampled blocks x 1 op on out[0], shared cross-block ->
        # extrapolated by 64/4 when recorded; scaled() keeps it as-is.
        assert profile.events["atom.global.max_same_addr"] == 64
        assert profile.scaled()["atom.global.max_same_addr"] == 64

    def test_sampled_block_private_max_same_addr_not_extrapolated(self):
        """Each block atomically updates only out[ctaid]: the per-address
        count is grid-independent and must NOT grow with the sampling
        factor (the old linear scaling inflated it ~grid/sample times)."""
        b = IRBuilder()
        ctaid = b.special("ctaid")
        b.atom_global("add", "out", ctaid, Imm(1.0))
        kernel = Kernel("private", buffers=["out"], body=b.finish())
        device = Device()
        device.alloc("out", 64)
        _, profile = run_kernel(kernel, grid=64, block=32,
                                buffers={"out": "out"}, device=device,
                                sample_limit=4)
        assert profile.sampled_blocks == 4
        # 32 lanes per block on one private address, in every block.
        assert profile.events["atom.global.max_same_addr"] == 32
        assert profile.scaled()["atom.global.max_same_addr"] == 32
        # The additive counter still extrapolates: 4 x 32 -> 64 x 32.
        assert profile.scaled()["atom.global.ops"] == 64 * 32

    @pytest.mark.parametrize("pattern", ["cross", "private"])
    def test_sampled_max_same_addr_identical_across_engines(self, pattern):
        """Batched and sequential engines must agree on the recorded
        counter for both atomic-address populations, sampled or not."""
        b = IRBuilder()
        if pattern == "cross":
            tid = b.special("tid")
            z = b.binop("eq", tid, 0)
            with b.if_(z):
                b.atom_global("add", "out", 0, Imm(1.0))
        else:
            ctaid = b.special("ctaid")
            b.atom_global("add", "out", ctaid, Imm(1.0))
        kernel = Kernel(f"agree_{pattern}", buffers=["out"], body=b.finish())
        results = {}
        for sequential in (False, True):
            for sample_limit in (None, 4):
                device = Device()
                device.alloc("out", 64)
                executor = Executor(device=device)
                if sequential:
                    executor.BATCH_LANES = 1  # one-block chunks
                step = KernelStep(kernel, grid=64, block=32,
                                  buffers={"out": "out"})
                profile = executor.run_kernel(step, sample_limit=sample_limit)
                results.setdefault(sample_limit, []).append(
                    dict(profile.events)
                )
        for sample_limit, (batched, sequential) in results.items():
            assert batched == sequential, f"sample_limit={sample_limit}"

    def test_device_errors(self):
        device = Device()
        device.alloc("a", 4)
        with pytest.raises(DeviceError):
            device.alloc("a", 4)
        with pytest.raises(DeviceError):
            device.get("missing")
        with pytest.raises(DeviceError):
            device.alloc("b", 0)
        device.free("a")
        with pytest.raises(DeviceError):
            device.free("a")
