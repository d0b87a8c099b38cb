"""ReductionFramework under concurrent use.

``ReductionFramework`` is documented as thread-safe: any caller may
share one instance across threads, so ``run``/``profile`` must be safe
to call from many threads at once — and, being a deterministic
simulator, must return BIT-IDENTICAL results regardless of
interleaving.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.gpusim import Executor
from repro.runtime import ReductionFramework

THREADS = 8


class TestSharedFrameworkThreads:
    def test_8_threads_bit_identical_results(self):
        fw = ReductionFramework(op="add")
        rng = np.random.default_rng(17)
        payloads = [
            rng.standard_normal(int(n)).astype(np.float32)
            for n in rng.integers(1, 8192, size=24)
        ]
        versions = ["p", "b", "m", "e"]
        # Single-threaded reference, computed first.
        expected = {
            (i, v): fw.run(data, version=v).value
            for i, data in enumerate(payloads)
            for v in versions
        }
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(offset):
            barrier.wait()  # maximize interleaving
            for step in range(len(payloads)):
                i = (offset + step) % len(payloads)
                v = versions[(offset + step) % len(versions)]
                value = fw.run(payloads[i], version=v).value
                if value != expected[(i, v)]:
                    errors.append((i, v, value, expected[(i, v)]))

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))
        assert errors == []

    def test_8_threads_distinct_frameworks_same_op(self):
        # Concurrent construction exercises the frontend memo's
        # per-key build locks (one pipeline build, everyone shares it).
        results = [None] * THREADS
        data = np.arange(1000, dtype=np.float32)

        def build_and_run(i):
            fw = ReductionFramework(op="add")
            results[i] = fw.run(data, version="p").value

        threads = [
            threading.Thread(target=build_and_run, args=(i,))
            for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_frontend_memo_shares_pipeline(self):
        a = ReductionFramework(op="max")
        b = ReductionFramework(op="max")
        assert a.pre is b.pre

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_threads_across_backends(self, engine):
        """Concurrent runs on one framework equal a serial run of the
        same plan on either backend."""
        fw = ReductionFramework(op="min")
        rng = np.random.default_rng(23)
        data = rng.standard_normal(4097).astype(np.float32)
        executor = Executor(backend=engine)
        executor.device.upload("in", data)
        expected = executor.run_plan(fw.build("n", data.size)).result

        outcomes = []

        def worker():
            outcomes.append(fw.run(data, version="n").value)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [expected] * THREADS
