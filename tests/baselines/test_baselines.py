"""Tests for the CUB-like and Kokkos-like baselines and the CPU model."""

import numpy as np
import pytest

from repro.baselines import build_cub_plan, build_kokkos_plan, cub_grid
from repro.cpu import POWER8, openmp_reduce, openmp_reduce_time


class TestKernelReuse:
    @pytest.mark.parametrize("build", [build_cub_plan, build_kokkos_plan])
    def test_kernels_built_once_per_op(self, build):
        """Baseline kernels read every size as a param, so all sizes of
        one operator share the kernel objects."""
        small, large = build(1000), build(10_000_000)
        for a, b in zip(small.kernel_steps(), large.kernel_steps()):
            assert a.kernel is b.kernel
        assert small.kernel_steps()[0].args != large.kernel_steps()[0].args
        other = build(1000, op="max")
        assert other.kernel_steps()[0].kernel is not small.kernel_steps()[0].kernel


class TestCubStructure:
    def test_two_kernels_always(self):
        """CUB has no small-array special case (Section IV-C-1)."""
        for n in (4, 1000, 10_000_000):
            plan = build_cub_plan(n)
            assert plan.num_kernel_launches() == 2

    def test_vector_load_pattern(self):
        plan = build_cub_plan(100_000)
        for step in plan.kernel_steps():
            assert step.kernel.meta["load_pattern"] == "vector"

    def test_grid_capped(self):
        assert cub_grid(10 ** 9) == 512
        assert cub_grid(1) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_cub_plan(0)


class TestCubCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 63, 64, 65, 4095, 4096, 4097])
    def test_boundary_sizes(self, run_plan, rng, n):
        """The float4 main loop plus scalar tail must cover every n."""
        data = rng.random(n).astype(np.float32)
        assert run_plan(build_cub_plan(n), data) == pytest.approx(
            float(data.sum(dtype=np.float64)), rel=1e-4
        )

    def test_max_reduction(self, run_plan, rng):
        data = ((rng.random(10_000) - 0.5) * 100).astype(np.float32)
        assert run_plan(build_cub_plan(10_000, op="max"), data) == pytest.approx(
            float(data.max())
        )

    def test_min_reduction(self, run_plan, rng):
        data = ((rng.random(10_000) - 0.5) * 100).astype(np.float32)
        assert run_plan(build_cub_plan(10_000, op="min"), data) == pytest.approx(
            float(data.min())
        )

    def test_unsupported_op(self):
        with pytest.raises(ValueError):
            build_cub_plan(100, op="xor")


class TestKokkosStructure:
    def test_three_kernels(self):
        """The paper profiles Kokkos as multi-kernel (Section IV-C-2)."""
        plan = build_kokkos_plan(100_000)
        assert plan.num_kernel_launches() == 3

    def test_staged_load_pattern(self):
        plan = build_kokkos_plan(100_000)
        assert all(
            step.kernel.meta["load_pattern"] == "staged"
            for step in plan.kernel_steps()
        )

    @pytest.mark.parametrize("n", [1, 7, 64, 1023, 99_991])
    def test_correctness(self, run_plan, rng, n):
        data = rng.random(n).astype(np.float32)
        assert run_plan(build_kokkos_plan(n), data) == pytest.approx(
            float(data.sum(dtype=np.float64)), rel=1e-4
        )


class TestOpenMPModel:
    def test_functional_reduce(self, rng):
        data = rng.random(1000).astype(np.float32)
        assert openmp_reduce(data) == pytest.approx(float(data.sum()), rel=1e-6)
        assert openmp_reduce(data, "max") == float(data.max())
        assert openmp_reduce(data, "min") == float(data.min())
        with pytest.raises(ValueError):
            openmp_reduce(data, "xor")

    def test_overhead_floor(self):
        assert openmp_reduce_time(1) >= 5e-6  # fork/join floor

    def test_monotone_in_n(self):
        times = [openmp_reduce_time(n) for n in (64, 4096, 10 ** 6, 10 ** 8)]
        assert times == sorted(times)

    def test_cache_cliff(self):
        """Per-byte cost jumps once the array spills the cache hierarchy."""
        small = POWER8.reduction_time(1 << 20) / (1 << 20)
        huge = POWER8.reduction_time(1 << 28) / (1 << 28)
        assert huge > 2 * small

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            POWER8.reduction_time(-1)
