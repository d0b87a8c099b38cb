"""Unit tests for the architecture models and the analytic timing model."""

import math
from collections import Counter

import pytest

from repro.gpusim import (
    ARCHITECTURES,
    KEPLER,
    MAXWELL,
    PASCAL,
    StepProfile,
    get_architecture,
    kernel_time,
    plan_time,
)
from repro.gpusim.timing import OVERLAP_LEAK


def make_profile(**overrides):
    defaults = dict(
        kernel_name="k",
        grid=60,
        block=256,
        shared_bytes=1024,
        events=Counter(
            {
                "inst.alu": 10_000,
                "inst.ld.global": 1_000,
                "mem.global.bytes": 1_000 * 128,
                "blocks": 60,
                "warps": 480,
                "threads": 60 * 256,
            }
        ),
    )
    defaults.update(overrides)
    return StepProfile(**defaults)


class TestArchitectures:
    def test_registry(self):
        assert set(ARCHITECTURES) == {"kepler", "maxwell", "pascal"}
        assert get_architecture("Kepler") is KEPLER
        with pytest.raises(KeyError):
            get_architecture("volta")

    def test_an_architecture_resolves_to_itself(self):
        for arch in (KEPLER, MAXWELL, PASCAL):
            assert get_architecture(arch) is arch

    def test_paper_microarchitecture_facts(self):
        """The facts of Section II-A the model depends on."""
        assert not KEPLER.native_shared_atomics
        assert MAXWELL.native_shared_atomics
        assert PASCAL.native_shared_atomics
        assert PASCAL.scoped_atomics
        assert not KEPLER.scoped_atomics
        assert PASCAL.clock_ghz > MAXWELL.clock_ghz > KEPLER.clock_ghz
        assert KEPLER.shared_atomic_sw_base > 0  # lock-update-unlock

    def test_occupancy_limits(self):
        assert KEPLER.max_resident_blocks(256, 0) == 8  # 2048/256
        assert KEPLER.max_resident_blocks(64, 0) == 16  # block cap
        # shared memory limits residency
        assert KEPLER.max_resident_blocks(64, 24 * 1024) == 2
        with pytest.raises(ValueError):
            KEPLER.max_resident_blocks(0, 0)

    def test_vector_efficiency_exceeds_scalar(self):
        for arch in ARCHITECTURES.values():
            assert arch.dram_efficiency_vector > arch.dram_efficiency_scalar


class TestKernelTime:
    def test_more_instructions_cost_more(self):
        light = kernel_time(make_profile(), KEPLER)
        heavy_events = Counter(make_profile().events)
        heavy_events["inst.alu"] *= 10
        heavy = kernel_time(make_profile(events=heavy_events), KEPLER)
        assert heavy.compute > light.compute

    def test_memory_bound_scales_with_bytes(self):
        small = kernel_time(make_profile(), KEPLER)
        big_events = Counter(make_profile().events)
        big_events["mem.global.bytes"] *= 1000
        big = kernel_time(make_profile(events=big_events), KEPLER)
        assert big.memory == pytest.approx(small.memory * 1000)
        assert big.total >= big.memory

    def test_vector_pattern_faster_than_scalar(self):
        profile = make_profile()
        scalar = kernel_time(profile, KEPLER, load_pattern="scalar")
        vector = kernel_time(profile, KEPLER, load_pattern="vector")
        assert vector.memory < scalar.memory

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            kernel_time(make_profile(), KEPLER, load_pattern="warp")

    def test_low_occupancy_latency_penalty(self):
        wide = make_profile(grid=60)
        narrow = make_profile(grid=1, events=Counter(
            {"inst.alu": 10_000, "blocks": 1, "warps": 8}
        ))
        t_wide = kernel_time(wide, KEPLER)
        t_narrow = kernel_time(narrow, KEPLER)
        # same instruction count on 1 block: far fewer SMs + latency exposed
        assert t_narrow.compute > t_wide.compute
        assert t_narrow.detail["per_instr_cost"] > t_wide.detail["per_instr_cost"]

    def test_kepler_shared_atomics_expensive(self):
        events = Counter(
            {"atom.shared.ops": 8192, "atom.shared.warp_serial": 8192,
             "blocks": 60, "warps": 480}
        )
        profile = make_profile(events=events)
        kepler = kernel_time(profile, KEPLER)
        maxwell = kernel_time(profile, MAXWELL)
        # Kepler's software lock loop is an order of magnitude costlier
        kepler_cycles = kepler.compute * KEPLER.clock_ghz
        maxwell_cycles = maxwell.compute * MAXWELL.clock_ghz
        assert kepler_cycles > 5 * maxwell_cycles

    def test_global_atomic_serialization(self):
        events = Counter({"atom.global.max_same_addr": 1_000_000, "blocks": 60})
        profile = make_profile(events=events)
        breakdown = kernel_time(profile, KEPLER)
        assert breakdown.atomic_global > 1e-3  # milliseconds of serialization
        assert breakdown.total >= breakdown.atomic_global

    def test_overlap_leak(self):
        breakdown = kernel_time(make_profile(), KEPLER)
        terms = (
            breakdown.compute,
            breakdown.memory,
            breakdown.atomic_global,
            breakdown.atomic_shared_block,
        )
        expected = max(terms) + OVERLAP_LEAK * (sum(terms) - max(terms))
        assert breakdown.total == pytest.approx(expected)

    def test_oversized_block_rejected(self):
        profile = make_profile(shared_bytes=KEPLER.shared_mem_per_sm + 1)
        with pytest.raises(ValueError):
            kernel_time(profile, KEPLER)

    def test_waves_computed(self):
        profile = make_profile(grid=KEPLER.sm_count * 8 * 3)  # 3 full waves
        breakdown = kernel_time(profile, KEPLER)
        assert breakdown.detail["waves"] == 3


class TestSampledScaling:
    def test_scaled_profile_times_like_full(self):
        full = make_profile()
        sampled_events = Counter(
            {k: v / 10 for k, v in full.events.items()}
        )
        sampled = make_profile(events=sampled_events, sampled_blocks=6)
        t_full = kernel_time(full, MAXWELL)
        t_sampled = kernel_time(sampled, MAXWELL)
        assert t_sampled.total == pytest.approx(t_full.total, rel=0.01)


class TestPlanTimeMemo:
    """``plan_time`` is computed once per (profile, architecture object,
    memsets, host overhead) and kept on the profile."""

    @staticmethod
    def _profile():
        from repro import ReductionFramework

        profile, _ = ReductionFramework().profile("e", 1 << 20)
        return profile

    def test_memo_returns_the_fresh_float(self):
        import copy

        profile = self._profile()
        arch = get_architecture("maxwell")
        first = plan_time(profile, arch, num_memsets=1)
        assert plan_time(profile, arch, num_memsets=1) == first
        fresh = copy.deepcopy(profile)
        fresh.times.clear()
        assert plan_time(fresh, arch, num_memsets=1) == first
        assert plan_time(profile, arch, num_memsets=0) != first
        assert plan_time(
            profile, arch, num_memsets=1, extra_host_overhead_s=1e-6
        ) != first

    def test_architectures_sharing_a_name_keep_their_own_entries(self):
        import dataclasses

        profile = self._profile()
        arch = get_architecture("pascal")
        twin = dataclasses.replace(arch, clock_ghz=arch.clock_ghz / 2)
        assert twin.name == arch.name
        fast = plan_time(profile, arch)
        slow = plan_time(profile, twin)
        assert slow > fast
        assert plan_time(profile, arch) == fast
        assert plan_time(profile, twin) == slow
