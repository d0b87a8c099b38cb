"""Dynamic sanitizer: hazard model unit tests + catalog cleanliness."""

import numpy as np
import pytest

from repro.gpusim import Executor
from repro.runtime import ReductionFramework
from repro.sanitize import Sanitizer, run_sanitized
from repro.vir import IRBuilder, Kernel, KernelStep, SharedDecl

COMBOS = [
    ("sequential", "interpreted"),
    ("sequential", "compiled"),
    ("batched", "interpreted"),
    ("batched", "compiled"),
]
SPECS = [f"{mode}-{backend}" for mode, backend in COMBOS]


def _executor(mode, backend, sanitizer=None):
    """An executor on ``backend``; ``sequential`` runs one-block chunks
    (``BATCH_LANES = 1``), ``batched`` the derived block order."""
    executor = Executor(backend=backend, sanitizer=sanitizer)
    if mode == "sequential":
        executor.BATCH_LANES = 1
    return executor


def sanitize_kernel(kernel, grid, block, mode="sequential",
                    backend="interpreted", n_in=None):
    sanitizer = Sanitizer()
    executor = _executor(mode, backend, sanitizer)
    buffers = {}
    if "in" in kernel.buffers:
        size = n_in if n_in is not None else grid * block
        executor.device.upload(
            "in", (np.arange(size) % 13).astype(np.float32)
        )
        buffers["in"] = "in"
    if "out" in kernel.buffers:
        executor.device.alloc("out", grid * block)
        buffers["out"] = "out"
    step = KernelStep(kernel, grid=grid, block=block, buffers=buffers)
    executor.run_kernel(step)
    return sanitizer


def kinds(sanitizer):
    return {diag.kind for diag in sanitizer.diagnostics}


class TestBarrierDivergence:
    def _guarded_bar_kernel(self, extra_bar):
        b = IRBuilder()
        tid = b.special("tid")
        warp = b.special("warpid")
        first = b.binop("eq", warp, 0)
        with b.if_(first):
            b.bar()
        if extra_bar:
            b.bar()
        b.st_global("out", tid, tid)
        return Kernel("bars", buffers=["out"], body=b.finish())

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_mismatched_pairing_flagged(self, mode, backend):
        # Warp 0 hits two barriers, warp 1 only one: the block's second
        # barrier pairs different program points — undefined.
        kernel = self._guarded_bar_kernel(extra_bar=True)
        sanitizer = sanitize_kernel(kernel, 1, 64, mode, backend)
        assert "barrier-divergence" in kinds(sanitizer)

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_arrive_or_exit_is_legal(self, mode, backend):
        # Only warp 0 ever executes the barrier; the other warps run to
        # the kernel end, which satisfies it (arrive-or-exit).
        kernel = self._guarded_bar_kernel(extra_bar=False)
        sanitizer = sanitize_kernel(kernel, 1, 64, mode, backend)
        assert "barrier-divergence" not in kinds(sanitizer)

    def test_lane_guarded_bar_arrives_for_whole_warp(self):
        # `if (laneid == 0) __syncthreads();` — every warp still arrives
        # (arrival is warp-granular), so the barrier both pairs up and
        # synchronizes the block: the cross-warp handoff below is clean.
        b = IRBuilder()
        tid = b.special("tid")
        lane = b.special("laneid")
        b.st_shared("sdata", tid, tid)
        lead = b.binop("eq", lane, 0)
        with b.if_(lead):
            b.bar()
        swapped = b.binop("sub", 63, tid)
        v = b.ld_shared("sdata", swapped)
        b.st_global("out", tid, v)
        kernel = Kernel("laneguard", buffers=["out"],
                        shared=[SharedDecl("sdata", 64)], body=b.finish())
        sanitizer = sanitize_kernel(kernel, 1, 64)
        assert sanitizer.clean, [d.render() for d in sanitizer.diagnostics]


class TestDataHazards:
    def _handoff_kernel(self, with_bar):
        # Every lane stores sdata[tid]; lanes then read the mirrored
        # slot, which crosses warps for a 64-thread block.
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("sdata", tid, tid)
        if with_bar:
            b.bar()
        v = b.ld_shared("sdata", b.binop("sub", 63, tid))
        b.st_global("out", tid, v)
        return Kernel("handoff", buffers=["out"],
                      shared=[SharedDecl("sdata", 64)], body=b.finish())

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_unsynchronized_cross_warp_read(self, mode, backend):
        sanitizer = sanitize_kernel(
            self._handoff_kernel(with_bar=False), 1, 64, mode, backend
        )
        assert "read-write-hazard" in kinds(sanitizer)
        diag = next(d for d in sanitizer.diagnostics
                    if d.kind == "read-write-hazard")
        assert diag.kernel == "handoff"
        assert diag.buf == "sdata"
        assert len(diag.lanes) == 2

    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_barrier_synchronizes(self, mode, backend):
        sanitizer = sanitize_kernel(
            self._handoff_kernel(with_bar=True), 1, 64, mode, backend
        )
        assert sanitizer.clean, [d.render() for d in sanitizer.diagnostics]

    def test_intra_warp_exchange_is_warp_synchronous(self):
        # A single warp swapping through shared memory with no barrier:
        # lockstep execution orders it, so no hazard.
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("sdata", tid, tid)
        v = b.ld_shared("sdata", b.binop("sub", 31, tid))
        b.st_global("out", tid, v)
        kernel = Kernel("warpsync", buffers=["out"],
                        shared=[SharedDecl("sdata", 32)], body=b.finish())
        sanitizer = sanitize_kernel(kernel, 1, 32)
        assert sanitizer.clean

    def test_atomic_pairs_exempt_but_mixed_flagged(self):
        # All lanes atomically accumulate into acc[0]: legal. A plain
        # store to the same address right after is not.
        b = IRBuilder()
        tid = b.special("tid")
        b.atom_shared("add", "acc", 0, tid)
        kernel = Kernel("atomok", buffers=["out"],
                        shared=[SharedDecl("acc", 1)], body=b.finish())
        assert sanitize_kernel(kernel, 1, 64).clean

        b = IRBuilder()
        tid = b.special("tid")
        b.atom_shared("add", "acc", 0, tid)
        b.st_shared("acc", 0, 0.0)
        kernel = Kernel("atommixed", buffers=["out"],
                        shared=[SharedDecl("acc", 1)], body=b.finish())
        assert "write-write-hazard" in kinds(sanitize_kernel(kernel, 1, 64))

    def test_same_instruction_duplicate_store(self):
        # Two lanes store the same address in one instruction.
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("sdata", b.binop("mod", tid, 16), tid)
        kernel = Kernel("dupst", buffers=["out"],
                        shared=[SharedDecl("sdata", 16)], body=b.finish())
        assert "write-write-hazard" in kinds(sanitize_kernel(kernel, 1, 32))


class TestShflInactiveSource:
    @pytest.mark.parametrize("mode,backend", COMBOS)
    def test_guarded_shuffle_flagged(self, mode, backend):
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        lo = b.binop("lt", tid, 16)
        with b.if_(lo):
            w = b.shfl(v, "down", 8)
            b.st_global("out", tid, w)
        kernel = Kernel("gshfl", buffers=["in", "out"], body=b.finish())
        sanitizer = sanitize_kernel(kernel, 1, 32, mode, backend)
        assert "shfl-inactive-source" in kinds(sanitizer)

    def test_full_mask_shuffle_clean(self):
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        w = b.shfl(v, "down", 8)
        b.st_global("out", tid, w)
        kernel = Kernel("fshfl", buffers=["in", "out"], body=b.finish())
        assert sanitize_kernel(kernel, 1, 32).clean

    def test_identity_fallback_not_flagged(self):
        # Lanes whose source falls outside the width segment read their
        # own value — active by definition, so never a diagnostic, even
        # under a divergent guard.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        hi = b.binop("ge", tid, 24)
        with b.if_(hi):
            w = b.shfl(v, "down", 16)  # sources land past lane 31
            b.st_global("out", tid, w)
        kernel = Kernel("idshfl", buffers=["in", "out"], body=b.finish())
        assert sanitize_kernel(kernel, 1, 32).clean


class TestCatalogAndIdentity:
    @pytest.mark.parametrize("mode,backend", COMBOS, ids=SPECS)
    def test_catalog_subset_clean(self, mode, backend, fw_add):
        data = (np.arange(3000) % 17).astype(np.float32)
        for label in ("a", "b", "m", "n", "p"):
            plan = fw_add.build(label, data.size)
            sanitizer = Sanitizer()
            executor = _executor(mode, backend, sanitizer)
            executor.device.upload("in", data)
            executor.run_plan(plan)
            diags = sanitizer.diagnostics
            assert not diags, (label, [d.render() for d in diags])

    def test_int_catalog_subset_clean(self):
        fw = ReductionFramework(op="max", ctype="int")
        data = (np.arange(3000) % 17 - 8).astype(np.int32)
        for label in ("a", "m", "n", "p"):
            plan = fw.build(label, data.size)
            diags = run_sanitized(plan, data)
            assert not diags, (label, [d.render() for d in diags])

    @pytest.mark.parametrize("mode,backend", COMBOS, ids=SPECS)
    def test_sanitizer_off_bit_identity(self, mode, backend, fw_add):
        """Sanitizer on vs off: identical results and event counters."""
        data = (np.arange(4096) % 13).astype(np.float32)
        plan = fw_add.build("m", data.size)

        plain = _executor(mode, backend)
        plain.device.upload("in", data)
        ref = plain.run_plan(plan)

        sanitized = _executor(mode, backend, Sanitizer())
        sanitized.device.upload("in", data)
        got = sanitized.run_plan(plan)

        assert got.result == ref.result
        assert len(got.steps) == len(ref.steps)
        for r, g in zip(ref.steps, got.steps):
            assert dict(g.events) == dict(r.events), r.kernel_name
