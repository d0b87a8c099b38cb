"""Unit tests for the unified profile/plan cache (:mod:`repro.perf`).

Covers hit/miss accounting, key invalidation (tunables, unroll,
pipeline signature), the on-disk tier round-trip, concurrent writers,
and the LRU bound that keeps the memory tier from growing without
limit.
"""

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codegen import Tunables
from repro.codegen.synthesize import _pipeline_fingerprint
from repro.perf import (
    CacheStats,
    ProfileCache,
    configure,
    content_key,
    default_cache,
)
from repro.runtime import ReductionFramework


class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        a = content_key(op="add", n=100, block=64)
        b = content_key(block=64, n=100, op="add")
        assert a == b
        assert a != content_key(op="add", n=100, block=128)

    def test_distinguishes_none_from_absent(self):
        assert content_key(grid=None) != content_key()


class TestMemoryTier:
    def test_hit_miss_store_accounting(self):
        cache = ProfileCache()
        key = content_key(x=1)
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

        key = content_key(y=2)
        assert cache.get_or_compute(key, compute) == 42
        assert cache.get_or_compute(key, compute) == 42
        assert len(calls) == 1

    def test_lru_eviction_bounds_growth(self):
        cache = ProfileCache(max_entries=4)
        keys = [content_key(i=i) for i in range(8)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache) == 4
        assert cache.stats.evictions == 4
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[7]) == 7

    def test_get_refreshes_lru_order(self):
        cache = ProfileCache(max_entries=2)
        k1, k2, k3 = (content_key(i=i) for i in range(3))
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
                key = content_key(worker=worker % 4, i=i)
                cache.put(key, (worker % 4, i))
                got = cache.get(key)
                assert got is not None and got[1] == i

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(8)))
        assert len(cache) == 200  # 4 distinct worker groups x 50 keys


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        first = ProfileCache(disk_dir=tmp_path)
        key = content_key(kind="t", n=1)
        first.put(key, {"payload": 99})
        second = ProfileCache(disk_dir=tmp_path)  # fresh memory tier
        assert second.get(key) == {"payload": 99}
        assert second.stats.disk_hits == 1
        info = second.disk_info()
        assert info["dir"] and info["entries"] == 1 and info["bytes"] > 0

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ProfileCache(disk_dir=tmp_path)
        key = content_key(kind="t", n=2)
        cache.put(key, "good")
        target = next(tmp_path.glob("*.profile.pkl"))
        target.write_bytes(b"not a pickle")
        fresh = ProfileCache(disk_dir=tmp_path)
        assert fresh.get(key) is None

    def test_clear_scopes(self, tmp_path):
        cache = ProfileCache(disk_dir=tmp_path)
        cache.put(content_key(n=3), "v")
        cache.clear(memory=True, disk=False)
        assert len(cache) == 0
        assert cache.disk_info()["entries"] == 1
        cache.clear(memory=True, disk=True)
        assert cache.disk_info()["entries"] == 0

    def test_concurrent_disk_writers(self, tmp_path):
        cache = ProfileCache(disk_dir=tmp_path)

        def writer(i):
            cache.put(content_key(i=i % 4), np.arange(i % 4 + 1))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(64)))
        fresh = ProfileCache(disk_dir=tmp_path)
        for i in range(4):
            value = fresh.get(content_key(i=i))
            np.testing.assert_array_equal(value, np.arange(i + 1))


class TestEnvDrivenDiskTier:
    """The default cache reads ``REPRO_CACHE_DIR`` at first use; these
    tests swap the singleton for one pointed at a tmp dir and exercise
    ``disk_info`` / ``clear(disk=True)`` / corrupt-entry handling
    through that env-driven path."""

    @pytest.fixture
    def env_cache(self, tmp_path, monkeypatch):
        import repro.perf.cache as cache_mod

        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path))
        original = cache_mod._default_cache
        cache_mod._default_cache = None
        try:
            yield default_cache(), tmp_path
        finally:
            cache_mod._default_cache = original

    def test_env_var_enables_disk_tier(self, env_cache):
        cache, tmp_path = env_cache
        assert cache.disk_dir == tmp_path
        info = cache.disk_info()
        assert info["dir"] == str(tmp_path)
        assert info["entries"] == 0 and info["bytes"] == 0
        cache.put(content_key(kind="env", i=1), {"v": 1})
        cache.put(content_key(kind="env", i=2), {"v": 2})
        info = cache.disk_info()
        assert info["entries"] == 2 and info["bytes"] > 0

    def test_clear_disk_true_empties_both_tiers(self, env_cache):
        cache, _ = env_cache
        key = content_key(kind="env", i=3)
        cache.put(key, "v")
        cache.clear(memory=True, disk=True)
        assert len(cache) == 0
        assert cache.disk_info()["entries"] == 0
        assert cache.get(key) is None  # neither tier serves it

    def test_corrupted_disk_entry_dropped_and_rewritten(self, env_cache):
        cache, tmp_path = env_cache
        key = content_key(kind="env", i=4)
        cache.put(key, "good")
        target = next(tmp_path.glob("*.profile.pkl"))
        target.write_bytes(b"\x80garbage")
        cache.clear(memory=True, disk=False)  # force the disk path
        assert cache.get(key) is None  # corrupt file degrades to a miss
        assert cache.disk_info()["entries"] == 0  # and was unlinked
        cache.put(key, "fresh")
        assert cache.disk_info()["entries"] == 1
        cache.clear(memory=True, disk=False)
        assert cache.get(key) == "fresh"
        assert cache.stats.disk_hits == 1

    def test_truncated_disk_entry_is_a_miss(self, env_cache):
        cache, tmp_path = env_cache
        key = content_key(kind="env", i=5)
        cache.put(key, {"payload": list(range(100))})
        target = next(tmp_path.glob("*.profile.pkl"))
        blob = target.read_bytes()
        target.write_bytes(blob[: len(blob) // 2])  # killed mid-write
        cache.clear(memory=True, disk=False)
        assert cache.get(key) is None


class TestDefaultCache:
    def test_configure_replaces_singleton(self, tmp_path):
        before = default_cache()
        try:
            configured = configure(max_entries=16, disk_dir=tmp_path)
            assert default_cache() is configured
            assert configured.max_entries == 16
        finally:
            configure(max_entries=before.max_entries, disk_dir=None)

    def test_stats_as_dict_keys(self):
        stats = CacheStats()
        assert set(stats.as_dict()) >= {
            "hits", "misses", "disk_hits", "stores", "evictions",
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
        assert base != fw.profile_key(
            "b", 4096, Tunables(block=64, grid=8), sample_limit=3
        )

    def test_key_is_content_key_of_its_fields(self, fw):
        """Memoized keys stay byte-identical to the content hash of the
        point's fields, so disk-tier entries stay valid; equal numbers
        of different types keep their distinct keys."""
        points = [
            ("b", 4096, Tunables(block=64, grid=8), None),
            ("b", 4096, Tunables(block=64, grid=8), 3),
            (fw.resolve("m"), 1 << 20, None, None),
            ("p", 193, Tunables(block=np.int64(64)), None),
            ("p", 193, Tunables(block=64), None),
        ]
        for version, n, tunables, sample in points:
            t = tunables or Tunables()
            expected = content_key(
                kind="profile", op="add", ctype="float", dtype="float32",
                version=fw.resolve(version).identifier, n=n,
                block=t.block, grid=t.grid, unroll=False,
                passes=_pipeline_fingerprint(fw.pre), sample=sample,
            )
            for _ in range(2):  # a miss, then a memo hit
                assert fw.profile_key(version, n, tunables, sample) == expected

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

    def test_int_framework_profiles_int_dtype(self):
        """Satellite (a): the profiling device buffer must honour the
        framework element type, not hard-code float32."""
        fw = ReductionFramework(op="add", ctype="int", cache=ProfileCache())
        profile, _ = fw.profile("b", 1024, Tunables(block=64, grid=4))
        assert profile.result == float(int(profile.result))

    def test_profile_entries_picklable(self, fw):
        """Disk tier stores entries with pickle; profiles must survive."""
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
