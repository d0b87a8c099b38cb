"""Sweep pool: dispatch policy, determinism, persistent-pool reuse,
and fault tolerance (one fresh-pool retry, then serial).

The pool's contract is that *scheduling is invisible except in wall
time*: whatever order workers complete specs in — including after a
worker death — the caller-visible results, the cache contents, the
cache's LRU order and the tuning tables must be bit-identical to a
serial sweep.
"""

import os

import pytest

from repro.codegen import Tunables
from repro.perf import ProfileCache, default_cache, shutdown_scheduler
from repro.perf import parallel as parallel_mod
from repro.perf.parallel import (
    MAX_WORKERS_ENV,
    dispatch_order,
    predicted_cost,
    resolve_workers,
)
from repro.runtime import ReductionFramework


def _spec(n, block=64, grid=8, sample_limit=None):
    return ("add", "float", False, None, n, Tunables(block=block, grid=grid),
            sample_limit)


class TestDispatchOrder:
    def test_large_unsampled_cost_dominates(self):
        # Unsampled profiles touch every element (cost ~ n); a sampled
        # profile of the same n touches a few blocks' worth.
        big_unsampled = _spec(1 << 20, block=256, grid=64)
        big_sampled = _spec(1 << 20, block=256, grid=4096, sample_limit=3)
        small = _spec(1024, block=64, grid=8)
        assert predicted_cost(big_unsampled) > predicted_cost(big_sampled)
        assert predicted_cost(big_unsampled) > predicted_cost(small)

    def test_order_is_descending_cost_with_stable_ties(self):
        specs = [_spec(1024), _spec(1 << 20, block=256, grid=64),
                 _spec(1024), _spec(65536, block=256, grid=64)]
        order = dispatch_order(specs)
        assert order[0] == 1  # the straggler starts first
        assert order[1] == 3
        assert order[2:] == [0, 2]  # equal costs keep submission order

    def test_none_tunables_are_schedulable(self):
        spec = ("add", "float", False, None, 4096, None, None)
        assert predicted_cost(spec) > 0


class TestWorkerResolution:
    def test_max_workers_env_beats_cap(self, monkeypatch):
        # Auto-selection caps the cpu count at 8; REPRO_MAX_WORKERS sets
        # any exact count, above the cap included.
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 32)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_workers() == 8
        monkeypatch.setenv(MAX_WORKERS_ENV, "12")
        assert resolve_workers() == 12


SIZES = [1024, 2048, 4096, 8192, 16384, 32768]


def _specs():
    return [("b", n, Tunables(block=64, grid=8)) for n in SIZES]


def _table(results):
    return {
        key: (result.tunables, result.time_s)
        for key, result in results.items()
    }


class TestSchedulingDeterminism:
    def test_cache_contents_and_lru_order_match_serial(self):
        serial = ReductionFramework(op="add", cache=ProfileCache())
        serial.profile_many(_specs(), max_workers=1)
        parallel = ReductionFramework(op="add", cache=ProfileCache())
        parallel.profile_many(_specs(), max_workers=2)
        assert list(serial.cache._mem) == list(parallel.cache._mem)
        for key in serial.cache._mem:
            left = serial.cache._mem[key].value
            right = parallel.cache._mem[key].value
            assert left[1] == right[1]  # num_memsets
            assert left[0].result == right[0].result
            for got, ref in zip(left[0].steps, right[0].steps):
                assert dict(got.events) == dict(ref.events)

    def test_tune_all_table_is_schedule_independent(self):
        from repro.autotune import tune_all

        serial = ReductionFramework(op="add", cache=ProfileCache())
        parallel = ReductionFramework(op="add", cache=ProfileCache())
        blocks, grids = (64, 128), (None, 8)
        reference = tune_all(
            serial, 4096, "kepler", candidates=["b", "p"],
            blocks=blocks, grids=grids, max_workers=1,
        )
        stolen = tune_all(
            parallel, 4096, "kepler", candidates=["b", "p"],
            blocks=blocks, grids=grids, max_workers=2,
        )
        assert _table(reference) == _table(stolen)

    def test_selector_table_is_schedule_independent(self):
        from repro.autotune import DynamicSelector

        kwargs = dict(
            sizes=(1024, 16384), candidates=["b", "p"],
            blocks=(64,), grids=(None, 8),
        )
        serial = DynamicSelector.build(
            ReductionFramework(op="add", cache=ProfileCache()),
            "kepler", max_workers=1, **kwargs,
        )
        stolen = DynamicSelector.build(
            ReductionFramework(op="add", cache=ProfileCache()),
            "kepler", max_workers=2, **kwargs,
        )
        assert [
            (e.max_n, e.version_key, e.tunables, e.time_s)
            for e in serial.entries
        ] == [
            (e.max_n, e.version_key, e.tunables, e.time_s)
            for e in stolen.entries
        ]


class TestPersistentPool:
    def test_pool_is_reused_across_sweeps(self):
        from repro.obs import default_metrics

        shutdown_scheduler()
        metrics = default_metrics()

        def counters():
            snap = metrics.snapshot()["counters"]
            return (snap.get("sweep.sched.pool_spawns", 0),
                    snap.get("sweep.sched.pool_reuses", 0))

        spawns0, reuses0 = counters()
        fw = ReductionFramework(op="add", cache=ProfileCache())
        fw.profile_many(_specs(), max_workers=2)
        fw2 = ReductionFramework(op="add", cache=ProfileCache())
        fw2.profile_many(_specs(), max_workers=2)
        spawns1, reuses1 = counters()
        assert spawns1 - spawns0 == 1  # second sweep reused the pool
        assert reuses1 - reuses0 >= 1
        shutdown_scheduler()


# Module-level so forked pool workers inherit them (the test rebinds
# them via monkeypatch before the pool is created).
_DIE_ONCE_ORIGINAL = None
_DIE_ONCE_FLAG = None
_DIE_ONCE_POISON_N = None


def _die_once_entry(spec):
    """Kill the worker the first time it sees the poisoned spec; the
    flag file makes the retry (in a freshly spawned pool) succeed —
    isolating recreate-pool-and-retry-unfinished from the serial tail."""
    if spec[4] == _DIE_ONCE_POISON_N:
        import os as _os

        if not _os.path.exists(_DIE_ONCE_FLAG):
            open(_DIE_ONCE_FLAG, "w").close()
            _os._exit(1)
    return _DIE_ONCE_ORIGINAL(spec)


def _always_die_entry(spec):
    """Kill every worker that sees the poisoned spec, so both pool
    waves break and the spec lands through the serial tail."""
    if spec[4] == _DIE_ONCE_POISON_N:
        import os as _os

        _os._exit(1)
    return _DIE_ONCE_ORIGINAL(spec)


def _assert_identical(results, expected):
    """Profiles and memset counts bit-identical (``cost_s`` is wall
    time and may differ)."""
    assert len(results) == len(expected)
    for (profile, memsets, *_), (ref_profile, ref_memsets, *_) in zip(
        results, expected
    ):
        assert memsets == ref_memsets
        assert profile.result == ref_profile.result
        assert len(profile.steps) == len(ref_profile.steps)
        for got, ref in zip(profile.steps, ref_profile.steps):
            assert dict(got.events) == dict(ref.events)


class TestFaultTolerance:
    def test_die_once_worker_death_retries_only_unfinished(
        self, monkeypatch, tmp_path
    ):
        import sys

        from repro.obs import default_metrics

        this_module = sys.modules[__name__]
        monkeypatch.setattr(
            this_module, "_DIE_ONCE_ORIGINAL",
            parallel_mod._profile_spec_traced,
        )
        monkeypatch.setattr(
            this_module, "_DIE_ONCE_FLAG", str(tmp_path / "died-once")
        )
        monkeypatch.setattr(this_module, "_DIE_ONCE_POISON_N", 4096)
        monkeypatch.setattr(
            parallel_mod, "_profile_spec_traced", _die_once_entry
        )
        # Fork after the patch so workers inherit the poisoned entry.
        shutdown_scheduler()

        serial = ReductionFramework(op="add", cache=ProfileCache())
        expected = serial.profile_many(_specs(), max_workers=1)

        metrics = default_metrics()
        retried0 = metrics.snapshot()["counters"].get(
            "sweep.sched.retried", 0
        )
        try:
            fw = ReductionFramework(op="add", cache=ProfileCache())
            results = fw.profile_many(_specs(), max_workers=2)
        finally:
            shutdown_scheduler()  # no poisoned forks leak to later tests
        retried1 = metrics.snapshot()["counters"].get(
            "sweep.sched.retried", 0
        )

        assert os.path.exists(str(tmp_path / "died-once"))  # it did die
        assert len(results) == len(expected)
        for (profile, memsets), (ref_profile, ref_memsets) in zip(
            results, expected
        ):
            assert memsets == ref_memsets
            assert profile.result == ref_profile.result
        # Only unfinished specs were re-dispatched — never the whole
        # list (the old fallback re-ran all six).
        assert 1 <= retried1 - retried0 < len(SIZES)

    def test_next_sweep_respawns_pool_after_worker_death(self, monkeypatch):
        import sys

        from repro.obs import default_metrics

        this_module = sys.modules[__name__]
        original = parallel_mod._profile_spec_traced
        monkeypatch.setattr(this_module, "_DIE_ONCE_ORIGINAL", original)
        monkeypatch.setattr(this_module, "_DIE_ONCE_POISON_N", 4096)
        monkeypatch.setattr(
            parallel_mod, "_profile_spec_traced", _always_die_entry
        )
        shutdown_scheduler()

        serial = ReductionFramework(op="add", cache=ProfileCache())
        expected = serial.profile_many(_specs(), max_workers=1)
        metrics = default_metrics()

        def spawns():
            return metrics.snapshot()["counters"].get(
                "sweep.sched.pool_spawns", 0
            )

        try:
            spawns0 = spawns()
            dying = ReductionFramework(op="add", cache=ProfileCache())
            _assert_identical(
                dying.profile_many(_specs(), max_workers=2), expected
            )
            # The persistent pool broke, its one fresh retry broke too,
            # and the serial tail finished the poisoned spec.
            assert spawns() - spawns0 == 2
            monkeypatch.setattr(
                parallel_mod, "_profile_spec_traced", original
            )
            spawns1 = spawns()
            fw = ReductionFramework(op="add", cache=ProfileCache())
            results = fw.profile_many(_specs(), max_workers=2)
            assert spawns() - spawns1 == 1
        finally:
            shutdown_scheduler()
        _assert_identical(results, expected)

    def test_unconstructible_pool_runs_serially(self, monkeypatch):
        import concurrent.futures

        class _NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool on this host")

        fw = ReductionFramework(op="add", cache=ProfileCache())
        specs = [
            (fw.op, fw.ctype, fw.unroll, fw.resolve(version), n, tunables,
             None, fw.engine_backend)
            for version, n, tunables in _specs()
        ]
        expected = parallel_mod.map_profiles(specs, max_workers=1)
        shutdown_scheduler()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        streamed = []
        results = parallel_mod.map_profiles(
            specs, max_workers=2,
            on_result=lambda index, result: streamed.append(index),
        )
        _assert_identical(results, expected)
        assert sorted(streamed) == list(range(len(specs)))

    def test_serial_tail_propagates_real_errors(self, monkeypatch):
        def _boom(spec):
            raise ValueError("deterministic spec failure")

        monkeypatch.setattr(parallel_mod, "_profile_spec", _boom)
        monkeypatch.setattr(parallel_mod, "_profile_spec_traced", _boom)
        shutdown_scheduler()
        try:
            with pytest.raises(ValueError, match="deterministic spec"):
                parallel_mod.map_profiles(
                    [_spec(n) for n in (64, 128, 256, 512)], max_workers=2
                )
        finally:
            shutdown_scheduler()


ENGINE = "interpreted"


def _assert_engine(entries):
    """Every launch of every ``(profile, num_memsets)`` entry ran on
    ``ENGINE``, whichever process profiled it."""
    entries = list(entries)
    assert entries
    for profile, _memsets in entries:
        assert profile.steps
        for step in profile.steps:
            assert step.meta["exec.backend"] == "interpreted"


@pytest.mark.parametrize("workers", [1, 2])
class TestEngineReachesSweep:
    """A framework's engine spec must reach every profile behind the
    sweep entry points, serial and pooled. Each test sweeps sizes no
    other test uses, into a fresh cache on freshly forked workers, so
    every profile is computed by the sweep under test."""

    @pytest.fixture(autouse=True)
    def _fresh_workers(self):
        shutdown_scheduler()
        yield
        shutdown_scheduler()

    @staticmethod
    def _fw():
        return ReductionFramework(
            op="add", engine=ENGINE, cache=ProfileCache()
        )

    @staticmethod
    def _cached(fw):
        return [entry.value for entry in fw.cache._mem.values()]

    def test_profile_many(self, workers):
        specs = [
            ("b", 3001 + workers, Tunables(block=64, grid=grid))
            for grid in (4, 8, 16, 32)
        ]
        _assert_engine(self._fw().profile_many(specs, max_workers=workers))

    def test_tune_all(self, workers):
        from repro.autotune import tune_all

        fw = self._fw()
        tune_all(
            fw, 3101 + workers, "kepler", candidates=["b", "p"],
            blocks=(64, 128), grids=(None, 8), max_workers=workers,
        )
        _assert_engine(self._cached(fw))

    def test_best_version(self, workers):
        fw = self._fw()
        fw.best_version(
            3201 + workers, "kepler", candidates=["a", "b", "e", "p"],
            tunables=Tunables(block=64), max_workers=workers,
        )
        _assert_engine(self._cached(fw))

    def test_selector_build(self, workers):
        from repro.autotune import DynamicSelector

        fw = self._fw()
        DynamicSelector.build(
            fw, "kepler", sizes=(3301 + workers, 3401 + workers),
            candidates=["b", "p"], blocks=(64,), grids=(None, 8),
            max_workers=workers,
        )
        _assert_engine(self._cached(fw))

    def test_cli_sweep(self, workers, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.perf import CACHE_DIR_ENV
        from repro.perf import cache as cache_mod

        # `repro sweep` profiles into the default cache; point its disk
        # tier at tmp_path and read back every profile the sweep wrote.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        assert main([
            "sweep", "--sizes", str(3501 + workers), "--versions", "b,p",
            "--blocks", "64,128", "--grids", "none,8", "--engine", ENGINE,
            "--jobs", str(workers),
        ]) == 0
        suffix = cache_mod._DISK_SUFFIX
        keys = [
            path.name[: -len(suffix)] for path in tmp_path.glob(f"*{suffix}")
        ]
        cache = ProfileCache(disk_dir=tmp_path)
        _assert_engine(cache.get(key) for key in keys)


@pytest.mark.parametrize("workers", [1, 2])
def test_profile_many_uses_only_its_own_cache(workers, tmp_path, monkeypatch):
    """A framework with its own cache computes its sweep misses without
    reading or writing the process default cache, serial or pooled.
    Pool workers fork after the default cache gains a disk tier, so a
    worker that stored into its (inherited) default cache would leave a
    file there."""
    default = default_cache()
    monkeypatch.setattr(default, "disk_dir", tmp_path)
    shutdown_scheduler()
    before = default.stats.as_dict()
    fw = ReductionFramework(op="add", cache=ProfileCache())
    specs = [
        ("b", 5003 + workers, Tunables(block=64, grid=grid))
        for grid in (4, 8, 16, 32)
    ]
    try:
        entries = fw.profile_many(specs, max_workers=workers)
    finally:
        shutdown_scheduler()
    after = default.stats.as_dict()
    for counter in ("stores", "hits", "misses", "disk_hits"):
        assert after[counter] == before[counter], counter
    assert list(tmp_path.iterdir()) == []
    assert (fw.cache.stats.misses, fw.cache.stats.stores) == (
        len(specs), len(specs)
    )
    assert [fw.cache.get(fw.profile_key(*spec)) for spec in specs] == entries
