"""Unit tests for the unified profile/plan cache (:mod:`repro.perf`).

Covers hit/miss accounting, key invalidation (tunables, unroll,
pipeline signature), concurrent writers, and the LRU bound that keeps
the cache from growing without limit.
"""

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.autotune import DynamicSelector
from repro.codegen import Tunables
from repro.gpusim.device import Device
from repro.perf import CacheStats, ProfileCache
from repro.runtime import ReductionFramework


class TestMemoryTier:
    def test_hit_miss_store_accounting(self):
        cache = ProfileCache()
        key = ("x", 1)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        cache.put(key, "value", cost_s=0.5)
        assert cache.get(key) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.time_saved_s == pytest.approx(0.5)

    def test_get_or_compute_runs_once(self):
        cache = ProfileCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        key = ("y", 2)
        assert cache.get_or_compute(key, compute) == 42
        assert cache.get_or_compute(key, compute) == 42
        assert len(calls) == 1

    def test_lru_eviction_bounds_growth(self):
        cache = ProfileCache(max_entries=4)
        keys = [("i", i) for i in range(8)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) == 4
        assert cache.stats.evictions == 4
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[7]) == 7

    def test_get_refreshes_lru_order(self):
        cache = ProfileCache(max_entries=2)
        k1, k2, k3 = (("i", i) for i in range(3))
        cache.put(k1, 1)
        cache.put(k2, 2)
        cache.get(k1)  # k1 now most-recent; k2 is the eviction victim
        cache.put(k3, 3)
        assert cache.get(k1) == 1
        assert cache.get(k2) is None

    def test_concurrent_writers(self):
        cache = ProfileCache(max_entries=1024)
        barrier = threading.Barrier(8)

        def writer(worker):
            barrier.wait()
            for i in range(50):
                key = (worker % 4, i)
                cache.put(key, (worker % 4, i))
                got = cache.get(key)
                assert got is not None and got[1] == i

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(8)))
        assert len(cache) == 200  # 4 distinct worker groups x 50 keys


class TestDefaultCache:
    def test_stats_as_dict_keys(self):
        stats = CacheStats()
        assert set(stats.as_dict()) >= {
            "hits", "misses", "stores", "evictions",
            "compute_time_s", "time_saved_s",
        }


class TestFrameworkKeying:
    """The framework's profile keys must invalidate on every field that
    changes simulated behaviour — and nothing else."""

    @pytest.fixture(scope="class")
    def fw(self):
        return ReductionFramework(op="add", cache=ProfileCache())

    def test_key_varies_with_inputs(self, fw):
        base = fw.profile_key("b", 4096, Tunables(block=64, grid=8))
        assert base == fw.profile_key("b", 4096, Tunables(block=64, grid=8))
        assert base != fw.profile_key("b", 8192, Tunables(block=64, grid=8))
        assert base != fw.profile_key("b", 4096, Tunables(block=128, grid=8))
        assert base != fw.profile_key("b", 4096, Tunables(block=64, grid=4))
        assert base != fw.profile_key("m", 4096, Tunables(block=64, grid=8))

    def test_key_varies_with_framework_config(self, fw):
        key = fw.profile_key("b", 4096)
        assert key != ReductionFramework(
            op="max", cache=fw.cache
        ).profile_key("b", 4096)
        assert key != ReductionFramework(
            op="add", ctype="int", cache=fw.cache
        ).profile_key("b", 4096)
        assert key != ReductionFramework(
            op="add", unroll=True, cache=fw.cache
        ).profile_key("b", 4096)

    def test_profile_cached_and_shared(self, fw):
        fw.cache.clear()
        fw.profile("b", 2048, Tunables(block=64, grid=4))
        stores = fw.cache.stats.stores
        fw.profile("b", 2048, Tunables(block=64, grid=4))
        assert fw.cache.stats.stores == stores  # second call is a pure hit
        twin = ReductionFramework(op="add", cache=fw.cache)
        twin.profile("b", 2048, Tunables(block=64, grid=4))
        assert fw.cache.stats.stores == stores  # shared across instances

    def test_int_framework_profiles_int_dtype(self, monkeypatch):
        """Satellite (a): the profiling device buffer must honour the
        framework element type, not hard-code float32."""
        bound = []
        bind = Device.bind

        def spy(device, name, array):
            bound.append((name, array.dtype))
            return bind(device, name, array)

        monkeypatch.setattr(Device, "bind", spy)
        fw = ReductionFramework(op="add", ctype="int", cache=ProfileCache())
        profile, _ = fw.profile("b", 1024, Tunables(block=64, grid=4))
        assert bound == [("in", np.dtype(np.int32))]
        assert profile.result is None  # a profile computes no values

    def test_profile_entries_picklable(self, fw):
        """Pooled sweep workers ship profiles back pickled; they must
        survive the round trip."""
        entry = fw.profile("p", 1024, Tunables(block=64))
        clone = pickle.loads(pickle.dumps(entry))
        assert clone[0].result == entry[0].result


class TestParallelSweep:
    def test_profile_many_matches_serial(self):
        """Deterministic merge: a parallel sweep yields entries whose
        scaled event totals equal the serial path's, in spec order."""
        specs = [
            ("b", 4096, Tunables(block=64, grid=8)),
            ("b", 4096, Tunables(block=128, grid=8)),
            ("m", 4096, Tunables(block=64, grid=8)),
            ("p", 4096, Tunables(block=64)),
            ("a", 4096, Tunables(block=64)),
        ]
        serial_fw = ReductionFramework(op="add", cache=ProfileCache())
        serial = [
            serial_fw.profile(version, n, tunables)
            for version, n, tunables in specs
        ]
        parallel_fw = ReductionFramework(op="add", cache=ProfileCache())
        fanned = parallel_fw.profile_many(specs, max_workers=2)
        assert len(fanned) == len(serial)
        for (sp, sm), (pp, pm) in zip(serial, fanned):
            assert pm == sm
            assert pp.result == sp.result
            assert [dict(s.events) for s in pp.steps] == [
                dict(s.events) for s in sp.steps
            ]

    def test_profile_many_populates_cache_once(self):
        fw = ReductionFramework(op="add", cache=ProfileCache())
        specs = [
            ("b", 2048, Tunables(block=64, grid=4)),
            ("m", 2048, Tunables(block=64, grid=4)),
        ]
        fw.profile_many(specs, max_workers=2)
        stores = fw.cache.stats.stores
        assert stores == 2
        fw.profile_many(specs, max_workers=2)
        assert fw.cache.stats.stores == stores

    def test_cold_sweep_looks_each_point_up_once(self):
        """A cold sweep misses each point once: no hit, no time saved."""
        fw = ReductionFramework(op="add", cache=ProfileCache())
        specs = [
            ("b", 4096, Tunables(block=64, grid=grid)) for grid in (1, 2, 4, 8)
        ]
        fw.profile_many(specs, max_workers=1)
        stats = fw.cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (0, 4, 4)
        assert stats.time_saved_s == 0

    def test_cold_selector_build_reads_each_point_once(self):
        """A DySel build profiles its grid once and times each point
        from one hit: no second sweep of the same grid per size."""
        fw = ReductionFramework(op="add", cache=ProfileCache())
        DynamicSelector.build(
            fw, "kepler", sizes=(4096,), candidates=["b"], max_workers=1
        )
        stats = fw.cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (20, 20, 20)

    def test_duplicate_specs_share_the_stored_entry(self):
        fw = ReductionFramework(op="add", cache=ProfileCache())
        spec = ("b", 4096, Tunables(block=64, grid=8))
        first, second = fw.profile_many([spec, spec], max_workers=1)
        assert first is second
        assert fw.cache.get(fw.profile_key(*spec)) is first
        stats = fw.cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 2, 1)

    def test_best_version_parallel_matches_serial(self):
        serial_fw = ReductionFramework(op="add", cache=ProfileCache())
        parallel_fw = ReductionFramework(op="add", cache=ProfileCache())
        want = serial_fw.best_version(65536, "kepler")
        got = parallel_fw.best_version(65536, "kepler", max_workers=2)
        assert got == want

    def test_single_miss_recorded_like_pooled_misses(self):
        """A lone missing profile takes the same map_profiles path as a
        pooled sweep: the store carries a real compute cost, so a later
        hit credits time_saved the same way."""
        fw = ReductionFramework(op="add", cache=ProfileCache())
        spec = ("b", 4096, Tunables(block=64, grid=8))
        fw.profile_many([spec])
        assert fw.cache.stats.stores == 1
        assert fw.cache.stats.compute_time_s > 0
        fw.profile_many([spec])  # pure hit
        assert fw.cache.stats.stores == 1
        assert fw.cache.stats.time_saved_s > 0

    def test_single_miss_matches_direct_profile(self):
        fw_many = ReductionFramework(op="add", cache=ProfileCache())
        fw_direct = ReductionFramework(op="add", cache=ProfileCache())
        spec = ("m", 4096, Tunables(block=64, grid=8))
        (many_profile, many_memsets), = fw_many.profile_many([spec])
        direct_profile, direct_memsets = fw_direct.profile(*spec)
        assert many_memsets == direct_memsets
        assert [dict(s.events) for s in many_profile.steps] == [
            dict(s.events) for s in direct_profile.steps
        ]
