"""Event counters against a brute-force per-warp oracle.

The engine counts shared-bank replays, atomic contention and global
transactions by sorting 32-lane warp rows, and counts one block row
``nblocks`` times when every block row of a chunk is a shifted copy of
the first under the same mask. This file recomputes every one of those
counters lane by lane in pure Python — per bank the set of distinct
words, per address the number of lanes — and requires equality on
random and strided index patterns, ragged blocks, shifted and
non-shifted rows, empty warps and blocks, one-block and multi-block
chunks, on both backends.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.gpusim import Device, Executor
from repro.vir import Imm, IRBuilder, Kernel, KernelStep, SharedDecl

WARP = 32
SHARED = 1024
WIDTH = 4  # vector-load width
CHUNKINGS = ["multi-block-chunks", "one-block-chunks"]
BACKENDS = ("compiled", "interpreted")


def _kernel():
    """Every tested instruction reads its index from ``ix`` and runs
    under the lane mask ``m != 0``."""
    b = IRBuilder()
    gid = b.binop(
        "add", b.binop("mul", b.special("ctaid"), b.special("ntid")),
        b.special("tid"),
    )
    ix = b.ld_global("ix", gid)
    on = b.binop("ne", b.ld_global("m", gid), Imm(0))
    with b.if_(on):
        b.st_shared("smem", ix, Imm(1.0))
        b.atom_shared("add", "smem", ix, Imm(1.0))
        b.st_global("dst", ix, Imm(1.0))
        b.ld_global_vec("vec", ix, width=WIDTH)
        b.atom_global("add", "out", ix, Imm(1.0))
    return Kernel(
        "accounting",
        buffers=["ix", "m", "dst", "vec", "out"],
        shared=[SharedDecl("smem", SHARED)],
        body=b.finish(),
    )


KERNEL = _kernel()


def _simulate(ix, mask, backend, chunking):
    grid, block = ix.shape
    device = Device()
    device.upload("ix", ix.ravel().astype(np.int32))
    device.upload("m", mask.ravel().astype(np.int32))
    for name, size in (("dst", SHARED), ("vec", SHARED + WIDTH),
                       ("out", SHARED)):
        device.alloc(name, size)
    executor = Executor(device=device, backend=backend)
    if chunking == "one-block-chunks":
        executor.BATCH_LANES = 1
    step = KernelStep(
        KERNEL, grid=grid, block=block,
        buffers={name: name for name in KERNEL.buffers},
    )
    return executor.run_kernel(step).events


def _warps(ix, mask):
    """Per (block, warp): the active lanes' indices, in lane order."""
    grid, block = ix.shape
    for b in range(grid):
        for start in range(0, block, WARP):
            yield [int(ix[b, t]) for t in range(start, min(block, start + WARP))
                   if mask[b, t]]


def _segments(ix, mask, per_segment, width=1):
    return sum(
        len({(a + k) // per_segment for a in warp for k in range(width)})
        for warp in _warps(ix, mask)
    )


def _oracle(ix, mask):
    replays = warp_serial = 0
    for warp in _warps(ix, mask):
        if not warp:
            continue
        banks = defaultdict(set)
        for address in warp:
            banks[address % WARP].add(address)
        replays += max(len(words) for words in banks.values()) - 1
        warp_serial += max(Counter(warp).values())
    block_max = sum(
        max(Counter(ix[b][mask[b]].tolist()).values())
        for b in range(ix.shape[0]) if mask[b].any()
    )
    launch = Counter(ix[mask].tolist())
    everywhere = np.ones(ix.shape, dtype=bool)
    per_segment = 128 // 4  # float32 and int32 buffers
    return {
        "mem.shared.replays": replays,
        "atom.shared.warp_serial": warp_serial,
        "atom.shared.block_max_same_addr": block_max,
        "atom.global.max_same_addr": max(launch.values()),
        "mem.global.st.trans": _segments(ix, mask, per_segment),
        # the ``ix`` and ``m`` loads (every lane, contiguous) plus the
        # vector load under the mask
        "mem.global.ld.trans": 2 * _segments(
            np.arange(ix.size).reshape(ix.shape), everywhere, per_segment
        ) + _segments(ix, mask, per_segment, WIDTH),
    }


def _check(ix, mask, backend, chunking):
    events = _simulate(ix, mask, backend, chunking)
    for key, expected in _oracle(ix, mask).items():
        assert events.get(key, 0) == expected, key
        # A zero count never creates its key.
        assert (key in events) == (expected > 0), key


def _shifted(base, shifts):
    return np.asarray(shifts)[:, None] + np.asarray(base)[None, :]


def _case(name):
    """``(ix, mask)`` of one named pattern, seeded by its name."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "random-narrow":  # many same-address lanes
        return rng.integers(0, 40, size=(4, 100)), rng.random((4, 100)) < 0.8
    if name.startswith("random"):
        grid, block = {"random-100": (5, 100), "random-193": (3, 193),
                       "random-one-block": (1, 193)}[name]
        ix = rng.integers(0, SHARED, size=(grid, block))
        return ix, rng.random((grid, block)) < 0.6
    base = rng.integers(0, SHARED // 2, size=193)
    shifts = rng.integers(0, SHARED // 2, size=4)
    ix = _shifted(base, shifts)
    mask = np.broadcast_to(rng.random(193) < 0.7, ix.shape).copy()
    if name == "shifted":
        return ix, mask
    if name == "shifted-all-active":
        return ix, np.ones(ix.shape, dtype=bool)
    if name == "shifted-mask-differs":
        # Stride 2: a full warp replays once, a half warp never does.
        ix = _shifted(np.arange(193) * 2, shifts)
        mask = np.broadcast_to(np.arange(193) % WARP < 16, ix.shape).copy()
        mask[0] = True
        return ix, mask
    if name == "shifted-but-one-lane":
        ix[2, 77] = (ix[2, 77] + 37) % SHARED
        return ix, mask
    if name == "empty-rows":
        mask[:, 32:64] = False  # one whole warp of every block
        mask[1] = False  # one whole block
        ix[3] = rng.integers(0, SHARED, size=193)  # not shifted
        return ix, mask
    raise KeyError(name)


CASES = [
    "random-100", "random-193", "random-one-block", "random-narrow",
    "shifted", "shifted-all-active", "shifted-mask-differs",
    "shifted-but-one-lane", "empty-rows",
]


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CASES)
def test_counters_match_oracle(name, backend, chunking):
    ix, mask = _case(name)
    _check(ix, mask, backend, chunking)


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("block", [100, 193])
@pytest.mark.parametrize("stride", range(1, 33))
def test_strided_rows_match_oracle(stride, block, backend, chunking):
    """``s_data[tid * stride]`` in every block (shifted copies; strides
    2-32 conflict on banks), first with every lane active, then with a
    shared partial mask."""
    ix = _shifted(np.arange(block) * stride % (SHARED // 2),
                  [0, 3 * WARP, 5, SHARED // 2 - 1])
    _check(ix, np.ones(ix.shape, dtype=bool), backend, chunking)
    mask = np.broadcast_to(np.arange(block) % 3 != 1, ix.shape)
    _check(ix, mask, backend, chunking)


def _cap_pattern():
    """Per-block global-atomic addresses of a 16 × 1024 launch that
    crosses the 4,096-address tracking cap: blocks 0-3 hit 4,096 fresh
    addresses (one lane each), blocks 4-7 pile 256 lanes each onto
    addresses 0-3, block 8 brings the table to 5,120 entries, block 9
    would add more, and blocks 10-15 pile on again."""
    tid = np.arange(1024)
    rows = []
    for b in range(16):
        if b < 4:
            rows.append(b * 1024 + tid)
        elif b in (8, 9):
            rows.append((b - 4) * 1024 + tid)
        else:
            rows.append(tid % 4)
    return np.stack(rows)


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sample_limit, expected", [
    # Blocks are checked against the cap one at a time, in block order:
    # the table is exactly full before block 4, so the pile-ups of
    # blocks 4-7 count; block 8 overflows it, so nothing after counts.
    (None, 1 + 4 * 256),
    # Sampled blocks 0,1,2,4,5,6,8,9,10,12,13,15: block 9 overflows the
    # table after three pile-ups; the cross-block total scales by 16/12.
    (12, round((1 + 3 * 256) * 16 / 12)),
])
def test_atomic_track_cap(sample_limit, expected, backend, chunking):
    b = IRBuilder()
    gid = b.binop(
        "add", b.binop("mul", b.special("ctaid"), b.special("ntid")),
        b.special("tid"),
    )
    b.atom_global("add", "out", b.ld_global("ix", gid), Imm(1.0))
    kernel = Kernel("cap", buffers=["ix", "out"], body=b.finish())
    device = Device()
    device.upload("ix", _cap_pattern().ravel().astype(np.int32))
    device.alloc("out", 6 * 1024)
    executor = Executor(device=device, backend=backend)
    if chunking == "one-block-chunks":
        executor.BATCH_LANES = 1
    step = KernelStep(kernel, grid=16, block=1024,
                      buffers={"ix": "ix", "out": "out"})
    events = executor.run_kernel(step, sample_limit=sample_limit).events
    assert events["atom.global.max_same_addr"] == expected


def _segment_case(name, rng):
    """``(ix, mask)`` of a 3-block chunk for the segment-count oracle."""
    block = 100 if name == "ragged" else 128
    lanes = np.arange(block)
    starts = rng.integers(0, 4 * WARP, size=3)
    if name == "unit-aligned":
        starts = np.array([0, 4 * WARP, 7 * WARP])
    if name == "strided":
        lanes = lanes * 3
    if name == "random":
        ix = rng.integers(0, 8 * block, size=(3, block))
    else:
        ix = starts[:, None] + lanes[None, :]
    mask = np.ones(ix.shape, dtype=bool)
    if name == "partly-masked":
        mask = rng.random(ix.shape) < 0.7
        mask[0] = True  # one whole-row block next to masked ones
    if name == "lane0-masked":
        # Lane 0 of every warp is inactive and lane l reads l - 1: with
        # the -1 sentinel every row reads like ``-1 + lane``.
        ix = np.broadcast_to(lanes % WARP - 1, (3, block)).copy()
        mask = ix >= 0
    return ix, mask


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("per_segment", [32, 16])
@pytest.mark.parametrize("name", [
    "unit-aligned", "unit", "strided", "ragged", "partly-masked",
    "lane0-masked", "random",
])
def test_segment_counts_match_oracle(name, per_segment, width):
    """Global segment counts, closed-form unit-stride rows included,
    against the per-warp set of touched segments."""
    from repro.gpusim.engine import _BatchedRun

    ix, mask = _segment_case(name, np.random.default_rng(sum(map(ord, name))))
    grid, block = ix.shape
    step = KernelStep(KERNEL, grid=grid, block=block,
                      buffers={name: name for name in KERNEL.buffers})
    run = _BatchedRun(Executor(), step, np.arange(grid), Counter(), {},
                      Counter())
    run._cur_all = bool(mask.all())  # as the compiled trace sets it
    got = run._count_segments_sorted(ix, mask, per_segment, width)
    assert got == _segments(ix, mask, per_segment, width)
