"""The pass-ablation shapes of EXPERIMENTS.md §8, gated in the test suite.

The same claims, grids and thresholds as
``benchmarks/bench_ablation_passes.py`` (the shuffle-pass gain, the
Kepler shared-atomic penalty, the pruning rule and the native-atomics
counterfactual), without the benches' persistent disk cache: every
profile comes from this module's own in-memory cache, so a stale disk
entry can never pass a claim the simulator no longer makes.
"""

import dataclasses

import pytest

from repro import ReductionFramework, Tunables
from repro.core import Version
from repro.gpusim import KEPLER
from repro.perf import ProfileCache

#: The benches' sizes and compact tuning grid.
SIZES = (4096, 65536, 1048576)
TUNE_BLOCKS = (64, 128, 256)
TUNE_GRIDS = (None, 512)


@pytest.fixture(scope="module")
def fw():
    return ReductionFramework(op="add", cache=ProfileCache())


def tuned_time(fw, label, n, arch):
    """Best modelled time of a version over the bench tuning grid."""
    version = fw.resolve(label)
    grids = (None,) if version.block_kind == "coop" else TUNE_GRIDS
    return min(
        fw.time(n, version, arch, Tunables(block=block, grid=grid))
        for block in TUNE_BLOCKS
        for grid in grids
    )


def test_shuffle_pass_gain(fw):
    """V -> VS: the pass always helps, and by > 1.3x somewhere."""
    gains = [
        tuned_time(fw, "l", n, arch) / tuned_time(fw, "m", n, arch)
        for arch in ("kepler", "maxwell")
        for n in SIZES
    ]
    assert all(gain > 1.0 for gain in gains), gains
    assert max(gains) > 1.3, gains


def test_shared_atomic_qualifier_by_architecture(fw):
    """VS -> VA2S hurts somewhere on Kepler (software shared atomics)
    and never on Maxwell/Pascal (native ones)."""
    gains = {
        arch: [tuned_time(fw, "m", n, arch) / tuned_time(fw, "p", n, arch)
               for n in SIZES]
        for arch in ("kepler", "maxwell", "pascal")
    }
    assert min(gains["kepler"]) < 1.0, gains
    assert all(g >= 0.99 for g in gains["maxwell"]), gains
    assert all(g >= 0.99 for g in gains["pascal"]), gains


def test_pruning_rule(fw):
    """A second kernel is slower than a global-atomic final combine."""
    atomic, two_kernel = (
        Version(grid_pattern="tile", final_combine=combine,
                block_kind="coop", combine="V")
        for combine in ("global_atomic", "second_kernel")
    )
    for n in (256, 4096, 65536):
        ratio = fw.time(n, two_kernel, "kepler") / fw.time(n, atomic, "kepler")
        assert ratio > 1.0, (n, ratio)


def test_native_shared_atomics_counterfactual(fw):
    """Kepler with native shared atomics: (n) speeds up > 3x, (p)
    speeds up, (m) is indifferent, and the winner flips from (m)."""
    kepler_native = dataclasses.replace(
        KEPLER,
        native_shared_atomics=True,
        shared_atomic_cpi=2.5,
        shared_atomic_same_addr_cpi=2.0,
    )
    n = 1048576
    real = {k: tuned_time(fw, k, n, KEPLER) for k in "mnp"}
    native = {k: tuned_time(fw, k, n, kepler_native) for k in "mnp"}
    assert native["n"] < real["n"] / 3
    assert native["p"] < real["p"]
    assert abs(native["m"] - real["m"]) / real["m"] < 0.01
    assert min(real, key=real.get) == "m"
    assert min(native, key=native.get) in ("n", "p")
