"""Property-based equivalence of the compiled and interpreted backends.

Hypothesis draws (version, op, element type, size, launch shape) points
and asserts the strongest form of the compiled executor's contract:
identical reduction results (bitwise, no tolerance) AND identical
per-step event counters against the tree-walking interpreter, under
both block orders (``sequential`` is one-block chunks,
``BATCH_LANES = 1``).
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.codegen import Tunables
from repro.gpusim import Executor
from repro.runtime import ReductionFramework

_FRAMEWORKS = {}


def _framework(op, ctype):
    key = (op, ctype)
    if key not in _FRAMEWORKS:
        _FRAMEWORKS[key] = ReductionFramework(op=op, ctype=ctype)
    return _FRAMEWORKS[key]


def _data(rng, ctype, n):
    if ctype == "int":
        return rng.integers(-1000, 1000, size=n).astype(np.int32)
    return (rng.random(n).astype(np.float32) - np.float32(0.5)) * 8


def _run(plan, data, sequential, backend):
    executor = Executor(backend=backend)
    if sequential:
        executor.BATCH_LANES = 1
    executor.device.upload("in", data)
    return executor.run_plan(plan)


@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from(sorted("abcdefghijklmnop")),
    op=st.sampled_from(["add", "max", "min"]),
    ctype=st.sampled_from(["float", "int"]),
    n=st.integers(min_value=33, max_value=4096),
    block=st.sampled_from([32, 64, 128]),
    grid=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_compiled_equals_interpreted(label, op, ctype, n, block, grid, seed):
    fw = _framework(op, ctype)
    version = fw.resolve(label)
    if version.block_kind == "coop":
        tunables = Tunables(block=block)
    else:
        tunables = Tunables(block=block, grid=grid)
    plan = fw.build(version, n, tunables)
    data = _data(np.random.default_rng(seed), ctype, n)

    ref = _run(plan, data, True, "interpreted")
    for sequential in (True, False):
        got = _run(plan, data, sequential, "compiled")
        assert got.result == ref.result
        assert len(got.steps) == len(ref.steps)
        for r, g in zip(ref.steps, got.steps):
            assert (g.grid, g.block) == (r.grid, r.block)
            assert dict(g.events) == dict(r.events), r.kernel_name
