"""Cache races: regression tests for concurrent cache use.

Any caller may share the process-wide cache across threads, so these
tests hammer one cache from many threads and assert its invariants: no
exceptions, no lost entries, consistent stats accounting, and a bound
that holds under contention.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.perf import ProfileCache


class TestCacheRaces:
    def test_hammer_get_put_from_threads(self):
        cache = ProfileCache(max_entries=64)
        keys = [f"key-{i}" for i in range(16)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            barrier.wait()
            try:
                for round_ in range(50):
                    key = keys[(seed + round_) % len(keys)]
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, {"key": key}, cost_s=0.001)
                    elif value["key"] != key:
                        errors.append((key, value))
                    assert key in cache
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))

        assert errors == []
        for key in keys:
            assert cache.get(key) == {"key": key}
        stats = cache.stats
        assert stats.hits + stats.misses > 0
        assert stats.stores >= len(keys)

    def test_lru_eviction_stays_bounded_under_threads(self):
        cache = ProfileCache(max_entries=10)

        def pounder(base):
            for i in range(200):
                cache.put(f"{base}-{i}", i)
                cache.get(f"{base}-{i}")

        threads = [
            threading.Thread(target=pounder, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 10
        assert cache.stats.evictions >= 4 * 200 - 10
