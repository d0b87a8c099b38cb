"""Registers keep their broadcast shape in the compiled run state.

A compiled trace holds each register in the smallest shape that
broadcasts to its chunk's ``(B, T)`` (blocks × threads): ``()`` for
launch-uniform values, ``(B, 1)`` for block-uniform ones, ``(1, T)`` for
lane-only ones. Only a write under a partial mask that merges into an
existing value builds the full array. The interpreter, the oracle the
equivalence suites compare against, keeps full arrays.

The shuffle oracle runs every mode and width with offsets of each of
the four shapes, under a full and a partial mask, on both backends,
against a per-lane Python reference.
"""

import numpy as np
import pytest

from repro.gpusim import Executor
from repro.gpusim.engine import _BatchedRun
from repro.vir import IRBuilder, Kernel, KernelStep
from repro.vir.assembler import parse_kernel
from repro.vir.instructions import SHFL_WIDTHS, WARP

BACKENDS = ("compiled", "interpreted")

SHAPES = """
.kernel shapes(params: n; buffers: out)
  %n = ld.param [n]
  %c = %ctaid
  %b = mul %c, 4
  %t = %tid
  %nb = add %n, %b
  %s = add %nb, %t
  %u = mov 7
  %p = lt %t, 5
  if %p {
    %u = mov 9
  }
  %q = lt %c, 2
  if %q {
    %w = mov 1
  } else {
    %w = mov 2
  }
  %v = add %s, %u
  %v2 = add %v, %w
  st.global [out + %t], %v2
"""


def _run_states(monkeypatch, kernel, grid, block, backend, in_data=None,
                out_size=None, **args):
    """Run one launch; return its run states (one per chunk), its profile
    and the device."""
    states = []
    run = _BatchedRun.run

    def spy(self):
        states.append(self)
        return run(self)

    monkeypatch.setattr(_BatchedRun, "run", spy)
    executor = Executor(backend=backend)
    buffers = {"out": "out"}
    executor.device.alloc("out", out_size or block, dtype=np.dtype("float64"))
    if in_data is not None:
        executor.device.upload("in", in_data)
        buffers["in"] = "in"
    step = KernelStep(kernel, grid=grid, block=block, args=args,
                      buffers=buffers)
    profile = executor.run_kernel(step)
    return states, profile, executor.device


class TestRegisterShapes:
    GRID, BLOCK = 5, 48

    def _regs(self, monkeypatch, backend):
        states, _, _ = _run_states(
            monkeypatch, parse_kernel(SHAPES), self.GRID, self.BLOCK,
            backend, n=100,
        )
        assert len(states) == 1  # one chunk
        return states[0].regs

    def test_compiled_registers_keep_their_broadcast_shape(self, monkeypatch):
        regs = self._regs(monkeypatch, "compiled")
        B, T = self.GRID, self.BLOCK
        assert regs["n"].shape == ()  # ld.param: launch-uniform
        assert regs["b"].shape == (B, 1)  # mul %ctaid, 4: block-uniform
        assert regs["t"].shape == (1, T)  # %tid: lane-only
        assert regs["s"].shape == (B, T)  # their sum
        assert regs["p"].shape == (1, T)
        assert regs["q"].shape == (B, 1)
        # A write under a divergent If merges: the register becomes full.
        assert regs["u"].shape == (B, T)
        # So does the else-branch write of a block-uniform condition.
        assert regs["w"].shape == (B, T)
        tid = np.arange(T)
        ctaid = np.arange(B)[:, None]
        np.testing.assert_array_equal(regs["s"], 100 + 4 * ctaid + tid)
        np.testing.assert_array_equal(
            regs["u"], np.broadcast_to(np.where(tid < 5, 9, 7), (B, T))
        )
        np.testing.assert_array_equal(
            regs["w"], np.broadcast_to(np.where(ctaid < 2, 1, 2), (B, T))
        )
        assert {regs[name].dtype for name in regs} == {
            np.dtype(np.int64), np.dtype(np.bool_)
        }

    def test_interpreter_keeps_full_arrays(self, monkeypatch):
        regs = self._regs(monkeypatch, "interpreted")
        compiled = self._regs(monkeypatch, "compiled")
        assert set(regs) == set(compiled)
        for name, value in regs.items():
            assert value.shape == (self.GRID, self.BLOCK), name
            np.testing.assert_array_equal(
                np.broadcast_to(compiled[name], value.shape), value
            )


#: Offset register shapes of the shuffle oracle.
OFFSET_SHAPES = ("()", "(B, 1)", "(1, T)", "(B, T)")


def _offsets(shape, width):
    """The offsets of one shuffle case as ``(name, per-lane function of
    (block, lane), VIR emitter)``; several for the scalar shape."""
    m = 2 * width + 3  # in-range and out-of-range targets alike
    if shape == "()":
        return [
            (k, lambda blk, lane, k=k: k, lambda b, tid, ctaid, k=k: b.mov(k))
            for k in (1, width - 1, width + 2)
        ]
    if shape == "(B, 1)":
        return [(shape, lambda blk, lane: (5 * blk + 1) % m,
                 lambda b, tid, ctaid: b.binop(
                     "mod", b.binop("add", b.binop("mul", ctaid, 5), 1), m))]
    if shape == "(1, T)":
        return [(shape, lambda blk, lane: (3 * lane) % m,
                 lambda b, tid, ctaid: b.binop(
                     "mod", b.binop("mul", tid, 3), m))]
    return [(shape, lambda blk, lane: (3 * lane + 7 * blk) % m,
             lambda b, tid, ctaid: b.binop("mod", b.binop(
                 "add", b.binop("mul", tid, 3), b.binop("mul", ctaid, 7)), m))]


def _active(blk, lane, partial):
    return not partial or (lane + blk) % 7 < 4


def _reference(mode, width, offset, data, grid, block, partial):
    """Per-lane shuffle semantics: the destination of every lane, -1 in
    lanes the mask leaves inactive."""
    expected = np.full(grid * block, -1.0)
    for blk in range(grid):
        for lane in range(block):
            if not _active(blk, lane, partial):
                continue
            off = offset(blk, lane)
            sub = lane % width
            target = {"up": sub - off, "down": sub + off,
                      "xor": sub ^ off, "idx": off}[mode]
            source = lane - sub + target
            ok = 0 <= target < width and source < block
            expected[blk * block + lane] = data[
                blk * block + (source if ok else lane)
            ]
    return expected


def _shfl_kernel(mode, block, cases, partial):
    """One kernel with one shuffle per case ``(width, name, offset,
    emit)``, each storing its destination to its own slice of ``out``."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    gid = b.binop("add", b.binop("mul", ctaid, block), tid)
    value = b.ld_global("in", gid)
    offsets = [emit(b, tid, ctaid) for _width, _name, _fn, emit in cases]
    results = [b.mov(-1.0) for _ in cases]
    guard = b.binop("lt", b.binop("mod", b.binop("add", tid, ctaid), 7), 4)

    def shuffles():
        for (width, *_case), offset, result in zip(cases, offsets, results):
            b.shfl(value, mode, offset, width=width, dst=result)

    if partial:
        with b.if_(guard):
            shuffles()
    else:
        shuffles()
    n = b.binop("mul", b.special("nctaid"), block)
    for k, result in enumerate(results):
        b.st_global("out", b.binop("add", gid, b.binop("mul", n, k)), result)
    kernel = Kernel("shfl_oracle", buffers=["in", "out"], body=b.finish())
    return kernel, [offset.name for offset in offsets]


@pytest.mark.parametrize("shape", OFFSET_SHAPES)
@pytest.mark.parametrize("block", [64, 48, 200])
@pytest.mark.parametrize("mode", ["down", "up", "xor", "idx"])
def test_shfl_matches_lane_reference(monkeypatch, mode, block, shape):
    """Destination and ``inst.shfl`` of every width with offsets of one
    shape, under a full and a partial mask, on both backends. One kernel
    holds every width, so source rows cached per (mode, width, offset)
    must not leak from one width to another."""
    grid = 3
    n = grid * block
    data = np.arange(n, dtype=np.float32) * 7.0 + 1.0
    nwarps = -(-block // WARP)
    held = {"()": (), "(B, 1)": (grid, 1), "(1, T)": (1, block),
            "(B, T)": (grid, block)}[shape]
    cases = [
        (width, *case)
        for width in sorted(SHFL_WIDTHS) for case in _offsets(shape, width)
    ]
    for partial in (False, True):
        kernel, offset_regs = _shfl_kernel(mode, block, cases, partial)
        warps = sum(
            any(_active(blk, lane, partial)
                for lane in range(w * WARP, min(block, (w + 1) * WARP)))
            for blk in range(grid) for w in range(nwarps)
        )
        for backend in BACKENDS:
            states, profile, device = _run_states(
                monkeypatch, kernel, grid, block, backend,
                in_data=data, out_size=len(cases) * n,
            )
            if backend == "compiled":
                assert {
                    states[0].regs[name].shape for name in offset_regs
                } == {held}
            got = device.get("out").reshape(len(cases), n)
            for k, (width, name, offset, _emit) in enumerate(cases):
                expected = _reference(
                    mode, width, offset, data, grid, block, partial
                )
                np.testing.assert_array_equal(
                    got[k], expected,
                    err_msg=f"{backend} partial={partial} width {width} "
                            f"offset {name}",
                )
            assert profile.events["inst.shfl"] == warps * len(cases), backend


#: Lane-only ``(1, T)`` branch and loop conditions, first under the full
#: mask of a multi-block chunk, then nested under a block-uniform one.
LANE_BRANCHES = """
.kernel lanes(params: -; buffers: out)
  %t = %tid
  %c = %ctaid
  %p = lt %t, 40
  if %p {
    %x = mov 1
  }
  %lim = mod %t, 4
  %i = mov 0
  while {
    %k = lt %i, %lim
  } test %k {
    %i = add %i, 1
  }
  %q = lt %c, 2
  if %q {
    %r = lt %t, 7
    if %r {
      %y = mov 2
    }
  }
  st.global [out + %t], 1.0
"""


@pytest.mark.parametrize("block", [48, 200])
def test_lane_only_branches_count_one_row_per_block(monkeypatch, block):
    """A lane-only condition under the full mask splits every block's
    warps alike: the compiled trace counts one row times the block
    count, and ``branch.divergent`` matches a per-warp reference on both
    backends."""
    grid = 5
    nwarps = -(-block // WARP)
    # if %p: warp 1 holds lanes on both sides of 40, in every block; the
    # loop test splits every warp on trips 0-2 (lanes exit at %t mod 4);
    # the nested %r splits warp 0 of blocks 0 and 1.
    expected = grid * 1 + grid * 3 * nwarps + 2
    calls = []
    count = _BatchedRun._count_divergence

    def spy(self, taken, other, copies=1):
        calls.append((taken.shape, copies))
        return count(self, taken, other, copies)

    monkeypatch.setattr(_BatchedRun, "_count_divergence", spy)
    for backend in BACKENDS:
        calls.clear()
        _, profile, _ = _run_states(
            monkeypatch, parse_kernel(LANE_BRANCHES), grid, block, backend
        )
        assert profile.events["branch.divergent"] == expected, backend
        one_row = calls.count(((1, block), grid))
        assert one_row == (2 if backend == "compiled" else 0), calls
