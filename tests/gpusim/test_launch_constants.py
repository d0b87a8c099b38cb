"""Launch geometry as launch constants: one kernel per (version, block).

A synthesized kernel reads its grid-dependent geometry (elements per
block, coarsening, grid, ``grid - 1`` and the grid stride
``block * grid``) as launch constants (:class:`repro.vir.Arg`), which
issue no instruction and use no register. Every input size and grid of
a (version, block) then shares one kernel, and its events must be the
ones the geometry immediates used to give. The table below was recorded
when the geometry was still baked into immediates; any geometry value
that starts to cost an instruction or a transaction breaks it.
"""

import numpy as np
import pytest

from repro.codegen import Tunables
from repro.gpusim import Executor
from repro.obs import default_metrics
from repro.runtime import ReductionFramework
from repro.vir import Arg
from repro.vir.analysis import ArgMultiple, kernel_facts

#: Columns of the pinned event tuples.
COLUMNS = (
    "inst.alu", "inst.shfl", "inst.ld.global", "inst.st.global",
    "inst.ld.shared", "inst.st.shared", "inst.bar", "mem.global.ld.trans",
    "mem.global.st.trans", "mem.global.bytes", "mem.global.bytes_useful",
    "mem.shared.replays", "atom.shared.ops", "atom.shared.warp_serial",
    "atom.shared.block_max_same_addr", "atom.global.ops",
    "atom.global.max_same_addr", "branch.divergent", "warps", "blocks",
    "threads",
)

#: (label, n, grid, "sampled" | "full") -> events in COLUMNS order, at
#: block 256 for ``add`` over floats. Coop versions (l, p)
#: ignore the grid. Full launches at 2^22 are pinned for grid 512 only
#: (1024-block and 16384-block full launches take seconds).
PINNED = {
    ("a", 1024, None, "sampled"): (
        2571, 0, 24, 0, 138, 210, 42, 24, 0, 3072, 3072, 0, 0, 0, 0, 3, 4,
        165, 24, 3, 768),
    ("a", 1024, None, "full"): (
        3428, 0, 32, 0, 184, 280, 56, 32, 0, 4096, 4096, 0, 0, 0, 0, 4, 4,
        220, 32, 4, 1024),
    ("a", 1024, 512, "sampled"): (
        2475, 0, 8, 0, 138, 210, 42, 8, 0, 1024, 1024, 0, 0, 0, 0, 3, 512,
        165, 24, 3, 768),
    ("a", 1024, 512, "full"): (
        414400, 0, 32, 0, 23552, 35840, 7168, 32, 0, 4096, 4096, 0, 0, 0,
        0, 512, 512, 28160, 4096, 512, 131072),
    ("a", 4099, None, "sampled"): (
        2529, 0, 17, 0, 138, 210, 42, 17, 0, 2176, 2060, 0, 0, 0, 0, 3,
        17, 166, 24, 3, 768),
    ("a", 4099, None, "full"): (
        14527, 0, 129, 0, 782, 1190, 238, 129, 0, 16512, 16396, 0, 0, 0,
        0, 17, 17, 936, 136, 17, 4352),
    ("a", 4099, 512, "sampled"): (
        2475, 0, 8, 0, 138, 210, 42, 8, 0, 1024, 1024, 0, 0, 0, 0, 3, 512,
        165, 24, 3, 768),
    ("a", 4099, 512, "full"): (
        414982, 0, 129, 0, 23552, 35840, 7168, 129, 0, 16512, 16396, 0, 0,
        0, 0, 512, 512, 28161, 4096, 512, 131072),
    ("a", 4194304, None, "sampled"): (
        4731, 0, 384, 0, 138, 210, 42, 384, 0, 49152, 49152, 0, 0, 0, 0,
        3, 1024, 165, 24, 3, 768),
    ("a", 4194304, 512, "sampled"): (
        7035, 0, 768, 0, 138, 210, 42, 768, 0, 98304, 98304, 0, 0, 0, 0,
        3, 512, 165, 24, 3, 768),
    ("a", 4194304, 512, "full"): (
        1200640, 0, 131072, 0, 23552, 35840, 7168, 131072, 0, 16777216,
        16777216, 0, 0, 0, 0, 512, 512, 28160, 4096, 512, 131072),
    ("f", 1024, None, "sampled"): (
        2523, 0, 24, 0, 138, 210, 42, 24, 0, 3072, 3072, 0, 0, 0, 0, 3, 4,
        165, 24, 3, 768),
    ("f", 1024, None, "full"): (
        3364, 0, 32, 0, 184, 280, 56, 32, 0, 4096, 4096, 0, 0, 0, 0, 4, 4,
        220, 32, 4, 1024),
    ("f", 1024, 512, "sampled"): (
        2443, 0, 8, 0, 138, 210, 42, 8, 0, 1024, 1024, 0, 0, 0, 0, 3, 512,
        165, 24, 3, 768),
    ("f", 1024, 512, "full"): (
        410272, 0, 32, 0, 23552, 35840, 7168, 32, 0, 4096, 4096, 0, 0, 0,
        0, 512, 512, 28160, 4096, 512, 131072),
    ("f", 4099, None, "sampled"): (
        2488, 0, 17, 0, 138, 210, 42, 17, 0, 2176, 2060, 0, 0, 0, 0, 3,
        17, 166, 24, 3, 768),
    ("f", 4099, None, "full"): (
        14262, 0, 129, 0, 782, 1190, 238, 129, 0, 16512, 16396, 0, 0, 0,
        0, 17, 17, 936, 136, 17, 4352),
    ("f", 4099, 512, "sampled"): (
        2443, 0, 8, 0, 138, 210, 42, 8, 0, 1024, 1024, 0, 0, 0, 0, 3, 512,
        165, 24, 3, 768),
    ("f", 4099, 512, "full"): (
        410757, 0, 129, 0, 23552, 35840, 7168, 129, 0, 16512, 16396, 0, 0,
        0, 0, 512, 512, 28161, 4096, 512, 131072),
    ("f", 4194304, None, "sampled"): (
        4323, 0, 384, 0, 138, 210, 42, 6144, 0, 786432, 49152, 0, 0, 0, 0,
        3, 1024, 165, 24, 3, 768),
    ("f", 4194304, 512, "sampled"): (
        6243, 0, 768, 0, 138, 210, 42, 24576, 0, 3145728, 98304, 0, 0, 0,
        0, 3, 512, 165, 24, 3, 768),
    ("f", 4194304, 512, "full"): (
        1065472, 0, 131072, 0, 23552, 35840, 7168, 4194304, 0, 536870912,
        16777216, 0, 0, 0, 0, 512, 512, 28160, 4096, 512, 131072),
    ("k", 1024, None, "sampled"): (
        2475, 0, 24, 0, 123, 171, 27, 96, 0, 12288, 3072, 0, 24, 24, 24,
        3, 4, 150, 24, 3, 768),
    ("k", 1024, None, "full"): (
        3300, 0, 32, 0, 164, 228, 36, 128, 0, 16384, 4096, 0, 32, 32, 32,
        4, 4, 200, 32, 4, 1024),
    ("k", 1024, 512, "sampled"): (
        2349, 0, 3, 0, 123, 171, 27, 6, 0, 768, 24, 0, 24, 24, 24, 3, 512,
        153, 24, 3, 768),
    ("k", 1024, 512, "full"): (
        400896, 0, 512, 0, 20992, 29184, 4608, 1024, 0, 131072, 4096, 0,
        4096, 4096, 4096, 512, 512, 26112, 4096, 512, 131072),
    ("k", 4099, None, "sampled"): (
        2475, 0, 24, 0, 123, 171, 27, 386, 0, 49408, 2896, 0, 24, 24, 24,
        3, 17, 153, 24, 3, 768),
    ("k", 4099, None, "full"): (
        14025, 0, 136, 0, 697, 969, 153, 2179, 0, 278912, 16396, 0, 136,
        136, 136, 17, 17, 867, 136, 17, 4352),
    ("k", 4099, 512, "sampled"): (
        2349, 0, 3, 0, 123, 171, 27, 25, 0, 3200, 100, 0, 24, 24, 24, 3,
        512, 153, 24, 3, 768),
    ("k", 4099, 512, "full"): (
        400896, 0, 512, 0, 20992, 29184, 4608, 4099, 0, 524672, 16396, 0,
        4096, 4096, 4096, 512, 512, 26112, 4096, 512, 131072),
    ("k", 4194304, None, "sampled"): (
        4635, 0, 384, 0, 123, 171, 27, 12288, 0, 1572864, 49152, 0, 24,
        24, 24, 3, 1024, 150, 24, 3, 768),
    ("k", 4194304, 512, "sampled"): (
        6939, 0, 768, 0, 123, 171, 27, 24576, 0, 3145728, 98304, 0, 24,
        24, 24, 3, 512, 150, 24, 3, 768),
    ("k", 4194304, 512, "full"): (
        1184256, 0, 131072, 0, 20992, 29184, 4608, 4194304, 0, 536870912,
        16777216, 0, 4096, 4096, 4096, 512, 512, 25600, 4096, 512, 131072),
    ("l", 1024, None, "sampled"): (
        2139, 0, 24, 0, 138, 210, 42, 24, 0, 3072, 3072, 0, 0, 0, 0, 3, 4,
        165, 24, 3, 768),
    ("l", 1024, None, "full"): (
        2852, 0, 32, 0, 184, 280, 56, 32, 0, 4096, 4096, 0, 0, 0, 0, 4, 4,
        220, 32, 4, 1024),
    ("l", 4099, None, "sampled"): (
        2055, 0, 17, 0, 132, 197, 36, 17, 0, 2176, 2060, 0, 0, 0, 0, 3,
        17, 152, 24, 3, 768),
    ("l", 4099, None, "full"): (
        12037, 0, 129, 0, 776, 1177, 232, 129, 0, 16512, 16396, 0, 0, 0,
        0, 17, 17, 922, 136, 17, 4352),
    ("l", 4194304, None, "sampled"): (
        2139, 0, 24, 0, 138, 210, 42, 24, 0, 3072, 3072, 0, 0, 0, 0, 3,
        16384, 165, 24, 3, 768),
    ("p", 1024, None, "sampled"): (
        1155, 120, 24, 0, 3, 3, 6, 24, 0, 3072, 3072, 0, 24, 24, 24, 3, 4,
        30, 24, 3, 768),
    ("p", 1024, None, "full"): (
        1540, 160, 32, 0, 4, 4, 8, 32, 0, 4096, 4096, 0, 32, 32, 32, 4, 4,
        40, 32, 4, 1024),
    ("p", 4099, None, "sampled"): (
        1116, 120, 17, 0, 2, 3, 5, 17, 0, 2176, 2060, 0, 16, 16, 16, 3,
        17, 23, 24, 3, 768),
    ("p", 4099, None, "full"): (
        6506, 680, 129, 0, 16, 17, 33, 129, 0, 16512, 16396, 0, 128, 128,
        128, 17, 17, 163, 136, 17, 4352),
    ("p", 4194304, None, "sampled"): (
        1155, 120, 24, 0, 3, 3, 6, 24, 0, 3072, 3072, 0, 24, 24, 24, 3,
        16384, 30, 24, 3, 768),
}


@pytest.fixture(scope="module")
def fw():
    return ReductionFramework(op="add")


def _profile(plan, n, backend, sample_limit):
    executor = Executor(backend=backend)
    executor.device.alloc("in", n, dtype=np.dtype(plan.meta["dtype"]))
    return executor.run_plan(plan, sample_limit=sample_limit)


@pytest.mark.parametrize(
    "label, n, grid, mode", sorted(PINNED, key=str), ids=str
)
def test_events_and_registers_pinned(fw, label, n, grid, mode):
    plan = fw.build(label, n, Tunables(grid=grid))
    events = PINNED[(label, n, grid, mode)]
    # The interpreter runs full launches of up to 4099 elements; both
    # backends are pinned bit-identical everywhere else already.
    backends = ("compiled", "interpreted")
    if mode == "full" and grid is not None:
        backends = ("compiled",)
    for backend in backends:
        profile = _profile(
            plan, n, backend, 3 if mode == "sampled" else None
        )
        (step,) = profile.steps
        assert tuple(step.events[key] for key in COLUMNS) == events, backend


def test_geometry_is_read_as_launch_constants(fw):
    """The geometry reaches the kernel through its launch arguments."""
    plan = fw.build("k", 1 << 20, Tunables(block=128, grid=64))
    (step,) = plan.kernel_steps()
    geometry = plan.meta["geometry"]
    assert step.kernel.params == [
        "n", "epb", "grid", "grid_minus_1", "grid_stride"
    ]
    assert step.args == {
        "n": 1 << 20,
        **{name: geometry[name] for name in step.kernel.params[1:]},
    }
    assert geometry["grid_stride"] == 128 * 64
    assert "coarsen" not in step.kernel.meta


def _trips_extrapolated():
    counters = default_metrics().snapshot(include_caches=False)["counters"]
    return counters.get("exec.loop.trips_extrapolated", 0)


def test_grid_stride_loop_is_summarized(fw):
    """Version k's coarsening loop steps its loads by the grid stride
    ``block * grid``, now a launch constant: the proof keeps it as an
    int multiple of that constant, and sampled launches still skip
    trips with events identical to the interpreter's."""
    n, tunables = 1 << 22, Tunables(block=64, grid=512)
    plan = fw.build("k", n, tunables)
    assert plan.meta["geometry"]["coarsen"] >= 64
    (step,) = plan.kernel_steps()
    loops = kernel_facts(step.kernel).loops.values()
    (summary,) = [s for s in loops if s.loads]
    assert summary.reason is None, summary.detail
    assert [per_trip for _buf, _idx, per_trip, _w in summary.loads] == [
        ArgMultiple(1, Arg("grid_stride"))
    ]
    ref = _profile(plan, n, "interpreted", 3)
    before = _trips_extrapolated()
    got = _profile(plan, n, "compiled", 3)
    assert _trips_extrapolated() > before
    assert dict(got.steps[0].events) == dict(ref.steps[0].events)
