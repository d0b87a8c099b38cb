"""Tests for the device-wide inclusive scan application."""

import numpy as np
import pytest

from repro.apps import Scan


class TestConfiguration:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            Scan(strategy="tree")

    def test_bad_block(self):
        with pytest.raises(ValueError):
            Scan(block=48)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Scan().run(np.array([], dtype=np.float32))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="supports up to"):
            Scan(block=32).build_plan(32 * 32 * 32 + 1)


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["shared", "shuffle"])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 255, 256, 257, 8191])
    def test_matches_cumsum(self, rng, strategy, n):
        data = rng.random(n).astype(np.float32)
        out, _ = Scan(strategy=strategy).run(data)
        ref = np.cumsum(data, dtype=np.float64)
        np.testing.assert_allclose(out, ref, rtol=1e-4)

    @pytest.mark.parametrize("strategy", ["shared", "shuffle"])
    def test_negative_values(self, rng, strategy):
        data = (rng.random(3000) - 0.5).astype(np.float32)
        out, _ = Scan(strategy=strategy).run(data)
        ref = np.cumsum(data, dtype=np.float64)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_last_element_is_total(self, rng):
        data = rng.random(5000).astype(np.float32)
        out, profile = Scan().run(data)
        assert profile.result == pytest.approx(float(data.sum()), rel=1e-4)

    def test_block_sizes(self, rng):
        data = rng.random(2000).astype(np.float32)
        ref = np.cumsum(data, dtype=np.float64)
        for block in (32, 64, 128, 512):
            out, _ = Scan(block=block).run(data)
            np.testing.assert_allclose(out, ref, rtol=1e-4)

    def test_three_kernel_pipeline(self):
        plan = Scan().build_plan(10_000)
        assert plan.num_kernel_launches() == 3


class TestStrategies:
    def test_shuffle_strategy_uses_shfl_up(self, rng):
        data = rng.random(1024).astype(np.float32)
        _, profile = Scan(strategy="shuffle").run(data)
        assert profile.steps[0].events["inst.shfl"] > 0

    def test_shared_strategy_no_shuffles_more_barriers(self, rng):
        data = rng.random(1024).astype(np.float32)
        _, shared_prof = Scan(strategy="shared").run(data)
        _, shuffle_prof = Scan(strategy="shuffle").run(data)
        shared_events = shared_prof.steps[0].events
        shuffle_events = shuffle_prof.steps[0].events
        assert shared_events.get("inst.shfl", 0) == 0
        assert shared_events["inst.bar"] > shuffle_events["inst.bar"]

    def test_shuffle_faster_in_model(self):
        n = 1_000_000
        for arch in ("kepler", "maxwell", "pascal"):
            t_shared = Scan(strategy="shared").time(n, arch)
            t_shuffle = Scan(strategy="shuffle").time(n, arch)
            assert t_shuffle < t_shared, arch

    @pytest.mark.parametrize("strategy, n, seconds", [
        # 20 blocks: every block runs.
        ("shuffle", 5000, 2.1136701715137957e-05),
        ("shared", 5000, 2.2544923191648022e-05),
        # 1,172 blocks: sampled.
        ("shuffle", 300000, 7.736006165382384e-05),
        ("shared", 300000, 9.559395006214266e-05),
    ])
    def test_modelled_time_pinned(self, strategy, n, seconds):
        """Kepler times pinned from the app's own profiling copy, before
        it was routed through the framework's ``_profile_plan``."""
        assert Scan(strategy=strategy).time(n, "kepler") == seconds
