"""Tests for the histogram application (the paper's Section III-B use case)."""

import numpy as np
import pytest

from repro.apps import Histogram, histogram_source, reference_histogram
from repro.lang import analyze_source


class TestConfiguration:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            Histogram(strategy="warp")

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            Histogram(bins=0)
        with pytest.raises(ValueError):
            Histogram(bins=5000)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            Histogram(block=100)

    def test_shared_strategy_rejects_coarsening(self):
        with pytest.raises(ValueError):
            Histogram(strategy="shared", coarsen=4)
        Histogram(strategy="global", coarsen=4)  # fine

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            Histogram().run(np.array([], dtype=np.int32))


class TestDslSource:
    def test_source_analyzes_as_cooperative(self):
        analyzed = analyze_source(histogram_source(128))
        info = analyzed.codelets[0]
        assert info.kind == "cooperative"
        assert info.shared[0].atomic == "add"
        assert info.shared[0].is_array


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["shared", "global"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 10_000])
    def test_counts_match_numpy(self, rng, strategy, n):
        keys = rng.integers(0, 1 << 20, size=n).astype(np.int32)
        hist = Histogram(bins=64, strategy=strategy)
        counts, _ = hist.run(keys)
        assert (counts == reference_histogram(keys, 64)).all()

    def test_single_bin(self, rng):
        keys = rng.integers(0, 1 << 16, size=5000).astype(np.int32)
        counts, _ = Histogram(bins=1).run(keys)
        assert counts[0] == 5000

    def test_skewed_keys_all_same_bin(self):
        keys = np.full(4096, 64 * 7, dtype=np.int32)  # all map to bin 0
        counts, _ = Histogram(bins=64).run(keys)
        assert counts[0] == 4096
        assert counts[1:].sum() == 0

    def test_many_bins(self, rng):
        keys = rng.integers(0, 1 << 22, size=20_000).astype(np.int32)
        hist = Histogram(bins=1024)
        counts, _ = hist.run(keys)
        assert (counts == reference_histogram(keys, 1024)).all()

    def test_global_strategy_with_coarsening(self, rng):
        keys = rng.integers(0, 1 << 18, size=33_333).astype(np.int32)
        hist = Histogram(bins=64, strategy="global", coarsen=8)
        counts, _ = hist.run(keys)
        assert (counts == reference_histogram(keys, 64)).all()


class TestProfiles:
    def test_shared_strategy_uses_shared_atomics(self, rng):
        keys = rng.integers(0, 1 << 16, size=8192).astype(np.int32)
        _, profile = Histogram(bins=64, strategy="shared").run(keys)
        events = profile.steps[0].events
        assert events["atom.shared.ops"] == 8192
        # global traffic is only the per-block merges
        assert events["atom.global.ops"] < events["atom.shared.ops"]

    def test_global_strategy_all_global_atomics(self, rng):
        keys = rng.integers(0, 1 << 16, size=8192).astype(np.int32)
        _, profile = Histogram(bins=64, strategy="global").run(keys)
        events = profile.steps[0].events
        assert events["atom.global.ops"] == 8192
        assert events.get("atom.shared.ops", 0) == 0


class TestTiming:
    def test_privatization_wins_under_contention(self):
        """The paper's point: shared-memory privatization beats global
        atomics when many updates contend."""
        n = 500_000
        shared = Histogram(bins=64, strategy="shared").time(n, "maxwell")
        direct = Histogram(bins=64, strategy="global").time(n, "maxwell")
        assert shared < direct

    def test_kepler_software_atomics_narrow_the_gap(self):
        """On Kepler the shared atomics themselves are expensive, so the
        privatization advantage shrinks relative to Maxwell."""
        n = 500_000
        gap = {}
        for arch in ("kepler", "maxwell"):
            shared = Histogram(bins=64, strategy="shared").time(n, arch)
            direct = Histogram(bins=64, strategy="global").time(n, arch)
            gap[arch] = direct / shared
        assert gap["maxwell"] > gap["kepler"]

    @pytest.mark.parametrize("strategy, coarsen, n, kepler, pascal", [
        # 20 (and 5) blocks: every block runs.
        ("shared", 1, 5000, 1.9655021849366145e-05, 4.328658887789859e-06),
        ("global", 1, 5000, 4.731563057419836e-05, 1.53132149401242e-05),
        ("global", 4, 5000, 4.73590735272185e-05, 1.5324114648332028e-05),
        # 1,172 (and 293) blocks: sampled.
        ("shared", 1, 300000, 0.00026345137618692514, 9.331459201898995e-06),
        ("global", 1, 300000, 0.002324751049863286, 0.0006541526987681694),
        ("global", 4, 300000, 0.0024001525132488193, 0.0006753266653447787),
    ])
    def test_modelled_time_pinned(self, strategy, coarsen, n, kepler, pascal):
        """Times pinned from the app's own profiling copy (an int32 input
        of zeros), before it was routed through ``_profile_plan``."""
        hist = Histogram(bins=64, strategy=strategy, coarsen=coarsen)
        assert hist.time(n, "kepler") == kepler
        assert hist.time(n, "pascal") == pascal
