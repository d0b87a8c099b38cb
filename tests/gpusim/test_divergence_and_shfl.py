"""Regressions for loop-divergence accounting, the shuffle warp-boundary
clamp, and exact engine error messages — locked across every
(block order × backend) execution combination.

``sequential`` runs one-block chunks (``BATCH_LANES = 1``); ``batched``
runs the executor's derived order."""

import numpy as np
import pytest

from repro.gpusim import Executor, SimulationError
from repro.vir import IRBuilder, Kernel, KernelStep, Reg

COMBOS = [
    ("sequential", "interpreted"),
    ("sequential", "compiled"),
    ("batched", "interpreted"),
    ("batched", "compiled"),
]


def run_combo(kernel, grid, block, mode, backend, out_size=64,
              out_dtype=np.float64, in_data=None, **constants):
    """Run one launch; ``constants`` override executor class constants
    (``LOOP_CAP``, ...) on this instance."""
    executor = Executor(backend=backend)
    if mode == "sequential":
        executor.BATCH_LANES = 1
    for name, value in constants.items():
        setattr(executor, name, value)
    buffers = {}
    if "in" in kernel.buffers:
        executor.device.upload("in", in_data)
        buffers["in"] = "in"
    if "out" in kernel.buffers:
        executor.device.alloc("out", out_size, dtype=out_dtype)
        buffers["out"] = "out"
    step = KernelStep(kernel, grid=grid, block=block, buffers=buffers)
    profile = executor.run_kernel(step)
    return executor.device, profile


class TestWhileDivergence:
    def _lane_dependent_loop(self):
        # Lane trip counts 0,1,2,3 repeating: every warp splits at the
        # first three back-edge tests (some lanes continue, some exit)
        # and reconverges at the fourth.
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        ntid = b.special("ntid")
        gid = b.binop("add", b.binop("mul", ctaid, ntid), tid)
        limit = b.binop("mod", tid, 4)
        i = b.mov(0)
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", i, limit, dst=cond)
        with loop.body:
            b.binop("add", i, 1, dst=i)
        b.st_global("out", gid, i)
        return Kernel("lanedep", buffers=["out"], body=b.finish())

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_counts_per_warp_per_iteration(self, mode, backend):
        kernel = self._lane_dependent_loop()
        device, profile = run_combo(
            kernel, grid=2, block=64, mode=mode, backend=backend,
            out_size=128, out_dtype=np.int64,
        )
        # 3 divergent back-edge tests x 2 warps/block x 2 blocks.
        assert profile.events["branch.divergent"] == 12
        np.testing.assert_array_equal(
            device.get("out"), np.arange(128) % 4
        )

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_uniform_trip_count_not_divergent(self, mode, backend):
        # Constant trip count: all lanes exit together. The compiled
        # backend unrolls this loop entirely; both must report zero.
        b = IRBuilder()
        tid = b.special("tid")
        i = b.mov(0)
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", i, 4, dst=cond)
        with loop.body:
            b.binop("add", i, 1, dst=i)
        b.st_global("out", tid, i)
        kernel = Kernel("uniloop", buffers=["out"], body=b.finish())
        _, profile = run_combo(kernel, 1, 64, mode, backend,
                               out_dtype=np.int64)
        assert profile.events.get("branch.divergent", 0) == 0

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_warp_uniform_exit_not_divergent(self, mode, backend):
        # Trip count varies per *warp* but not within any warp: no lane
        # split, so no divergence (and the loop is not unrollable, so
        # both backends exercise the live While path).
        b = IRBuilder()
        tid = b.special("tid")
        warp = b.special("warpid")
        limit = b.binop("add", warp, 1)
        i = b.mov(0)
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", i, limit, dst=cond)
        with loop.body:
            b.binop("add", i, 1, dst=i)
        b.st_global("out", tid, i)
        kernel = Kernel("warpuni", buffers=["out"], body=b.finish())
        _, profile = run_combo(kernel, 1, 64, mode, backend,
                               out_dtype=np.int64)
        assert profile.events.get("branch.divergent", 0) == 0

    def test_all_combos_bit_identical(self):
        kernel = self._lane_dependent_loop()
        results = []
        for mode, backend in COMBOS:
            device, profile = run_combo(
                kernel, grid=2, block=64, mode=mode, backend=backend,
                out_size=128, out_dtype=np.int64,
            )
            results.append((device.get("out").copy(), dict(profile.events)))
        ref_out, ref_events = results[0]
        for out, events in results[1:]:
            np.testing.assert_array_equal(out, ref_out)
            assert events == ref_events


class TestIdivFloorDivision:
    """``idiv`` is floor division whatever the operand dtype: integer
    registers (lane arithmetic) and float registers (values loaded from
    global memory) both round toward negative infinity."""

    DIVISORS = (3, -3, 7, -5)

    def _idiv_kernel(self):
        b = IRBuilder()
        tid = b.special("tid")
        x_int = b.binop("sub", tid, 32)          # -32 .. 31
        x_loaded = b.ld_global("in", tid)        # same values, float64
        slot = 0
        for x in (x_int, x_loaded):
            for d in self.DIVISORS:
                q = b.binop("idiv", x, d)
                b.st_global("out", b.binop("add", tid, slot * 64), q)
                slot += 1
        return Kernel("idiv", buffers=["in", "out"], body=b.finish())

    def _run(self, mode, backend):
        dividends = np.arange(64, dtype=np.float64) - 32
        device, profile = run_combo(
            self._idiv_kernel(), 1, 64, mode, backend, out_size=512,
            out_dtype=np.int64, in_data=dividends,
        )
        return device.get("out").copy(), dict(profile.events)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_matches_floor_divide_bit_identical(self, mode, backend):
        out, events = self._run(mode, backend)
        x = np.arange(64, dtype=np.int64) - 32
        expected = np.concatenate(
            [np.floor_divide(x, d) for d in self.DIVISORS] * 2
        )
        np.testing.assert_array_equal(out, expected)
        ref_out, ref_events = self._run("sequential", "interpreted")
        assert out.tobytes() == ref_out.tobytes()
        assert events == ref_events


class TestShflBoundaryClamp:
    """Out-of-segment shuffle sources fall back to the lane's own value,
    never read across the warp/width boundary of a partial warp."""

    def _shfl_kernel(self, mode_, offset, width):
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        w = b.shfl(v, mode_, offset, width=width)
        b.st_global("out", tid, w)
        return Kernel("shfl", buffers=["in", "out"], body=b.finish())

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_partial_last_warp_identity(self, mode, backend):
        # block=48: lanes 32..47 form a partial warp. shfl.down 16 would
        # source lanes 48..63 — past the block — so they must read their
        # own value, not lane 47's (the old clamp).
        n = 48
        data = np.arange(100, 100 + n).astype(np.float32)
        kernel = self._shfl_kernel("down", 16, 32)
        device, _ = run_combo(kernel, 1, n, mode, backend,
                              out_size=n, out_dtype=np.float32,
                              in_data=data)
        out = device.get("out")
        expected = data.copy()
        expected[:16] = data[16:32]  # full warp, in-segment sources
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_width_lt_32_with_ragged_block(self, mode, backend):
        # block=20, width=8: segments {0..7}, {8..15}, {16..19}. In the
        # ragged last segment, down-4 sources (20..23) exceed the block.
        n = 20
        data = np.arange(n).astype(np.float32) * 3.0
        kernel = self._shfl_kernel("down", 4, 8)
        device, _ = run_combo(kernel, 1, n, mode, backend,
                              out_size=n, out_dtype=np.float32,
                              in_data=data)
        out = device.get("out")
        expected = data.copy()
        for lane in range(16):
            if lane % 8 < 4:
                expected[lane] = data[lane + 4]
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_idx_mode_out_of_range_target(self, mode, backend):
        # shfl.idx with a lane-varying target: lanes whose target lands
        # outside the width segment keep their own value.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        target = b.binop("add", tid, 28)  # >= 32 for lanes 4+
        w = b.shfl(v, "idx", target)
        b.st_global("out", tid, w)
        kernel = Kernel("shflidx", buffers=["in", "out"], body=b.finish())
        n = 32
        data = np.arange(n).astype(np.float32)
        device, _ = run_combo(kernel, 1, n, mode, backend,
                              out_size=n, out_dtype=np.float32,
                              in_data=data)
        expected = data.copy()
        expected[:4] = data[28:32]
        np.testing.assert_array_equal(device.get("out"), expected)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    @pytest.mark.parametrize("shfl_mode", ["up", "down", "xor", "idx"])
    @pytest.mark.parametrize("block,width", [(48, 32), (20, 8)])
    def test_offsets_match_lane_oracle(self, mode, backend, shfl_mode,
                                       block, width):
        """Immediate offsets read a source-lane row built once per
        (mode, width, offset); register offsets compute lanes per call.
        Both must match a per-lane oracle, for several offsets in one
        kernel, over several blocks with a ragged last warp."""
        grid, offsets = 3, (1, 3, 6)
        n = grid * block
        b = IRBuilder()
        tid = b.special("tid")
        gid = b.binop("add", b.binop("mul", b.special("ctaid"), block), tid)
        v = b.ld_global("in", gid)
        for k, offset in enumerate(offsets):
            for j, operand in enumerate((offset, b.mov(offset))):
                w = b.shfl(v, shfl_mode, operand, width=width)
                b.st_global("out", b.binop("add", gid, (2 * k + j) * n), w)
        kernel = Kernel("shflrow", buffers=["in", "out"], body=b.finish())
        data = np.arange(n).astype(np.float32) * 7.0
        device, _ = run_combo(kernel, grid, block, mode, backend,
                              out_size=2 * len(offsets) * n,
                              out_dtype=np.float32, in_data=data)
        out = device.get("out").reshape(len(offsets), 2, n)
        for k, offset in enumerate(offsets):
            expected = np.empty(n, dtype=np.float32)
            for g in range(n):
                lane = g % block
                sub = lane % width
                target = {"up": sub - offset, "down": sub + offset,
                          "xor": sub ^ offset, "idx": offset}[shfl_mode]
                source = lane - sub + target
                ok = 0 <= target < width and source < block
                expected[g] = data[g - lane + (source if ok else lane)]
            np.testing.assert_array_equal(out[k, 0], expected)
            np.testing.assert_array_equal(out[k, 1], expected)


class TestExactErrorMessages:
    """Compiled traces must fail with the interpreter's exact messages."""

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_loop_cap_exceeded(self, mode, backend):
        b = IRBuilder()
        tid = b.special("tid")
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("ge", tid, 0, dst=cond)  # always true, lane-varying
        with loop.body:
            b.mov(1)
        b.st_global("out", tid, tid)
        kernel = Kernel("spin", buffers=["out"], body=b.finish())
        with pytest.raises(
            SimulationError,
            match=r"kernel 'spin': loop exceeded iteration cap \(7\)$",
        ):
            run_combo(kernel, 1, 32, mode, backend, LOOP_CAP=7)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_read_of_unwritten_register(self, mode, backend):
        b = IRBuilder()
        tid = b.special("tid")
        b.st_global("out", tid, Reg("ghost"))
        kernel = Kernel("unread", buffers=["out"], body=b.finish())
        with pytest.raises(
            SimulationError,
            match=r"kernel 'unread': read of unwritten register %ghost$",
        ):
            run_combo(kernel, 1, 32, mode, backend)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    @pytest.mark.parametrize(
        "field,value,detail",
        [("mode", "bogus", r"invalid shfl mode 'bogus'"),
         ("width", 5, r"invalid shfl width 5")],
    )
    def test_invalid_shfl_rejected(self, mode, backend, field, value,
                                   detail):
        # The dataclass validates at construction; mutate afterwards to
        # prove the engines re-validate at execution time.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        w = b.shfl(v, "down", 1)
        b.st_global("out", tid, w)
        body = b.finish()
        shfl = next(i for i in body if type(i).__name__ == "Shfl")
        setattr(shfl, field, value)
        kernel = Kernel("badshfl", buffers=["in", "out"], body=body)
        data = np.zeros(32, dtype=np.float32)
        with pytest.raises(
            SimulationError, match=r"kernel 'badshfl': " + detail,
        ):
            run_combo(kernel, 1, 32, mode, backend, in_data=data)

    @pytest.mark.parametrize(
        "mode,backend", [c for c in COMBOS if c[0] == "sequential"]
    )
    @pytest.mark.parametrize("access", ["ld", "st"])
    def test_out_of_bounds_reports_first_offending_block(
        self, mode, backend, access
    ):
        # Block 0 stays in bounds; block 1 is the first offender, so a
        # block-ordered launch reports block 1's index range only.
        b = IRBuilder()
        tid = b.special("tid")
        ctaid = b.special("ctaid")
        idx = b.binop("add", b.binop("mul", ctaid, 32), tid)
        if access == "ld":
            b.st_global("out", tid, b.ld_global("in", idx))
            buf = "in"
        else:
            b.st_global("out", idx, tid)
            buf = "out"
        kernel = Kernel("oob", buffers=["in", "out"], body=b.finish())
        with pytest.raises(
            SimulationError,
            match=(
                rf"kernel 'oob': out-of-bounds access to global buffer "
                rf"'{buf}' \(size 40, index range \[32, 63\]\)$"
            ),
        ):
            run_combo(kernel, 3, 32, mode, backend, out_size=40,
                      in_data=np.zeros(40, dtype=np.float32))
