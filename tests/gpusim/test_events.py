"""Tests for event profiles and their sampled-scaling behaviour."""

import itertools
from collections import Counter

import pytest

from repro.gpusim.events import EVENT_KEYS, PlanProfile, StepProfile


def make_step(grid=100, block=128, sampled=0, **events):
    return StepProfile(
        kernel_name="k",
        grid=grid,
        block=block,
        shared_bytes=0,
        events=Counter(events),
        sampled_blocks=sampled,
    )


class TestStepProfile:
    def test_warps_per_block(self):
        assert make_step(block=128).warps_per_block == 4
        assert make_step(block=33).warps_per_block == 2
        assert make_step(block=32).warps_per_block == 1

    def test_full_run_not_scaled(self):
        step = make_step(**{"inst.alu": 100})
        assert step.scaled()["inst.alu"] == 100

    def test_sampled_run_scaled_linearly(self):
        step = make_step(grid=100, sampled=10, **{"inst.alu": 50})
        scaled = step.scaled()
        assert scaled["inst.alu"] == 500
        assert scaled["blocks"] == 100
        assert scaled["threads"] == 100 * 128
        assert scaled["warps"] == 100 * 4

    def test_sampled_equal_to_grid_not_scaled(self):
        step = make_step(grid=10, sampled=10, **{"inst.alu": 50})
        assert step.scaled()["inst.alu"] == 50

    def test_sampled_max_same_addr_not_extrapolated(self):
        """A launch-wide *max* is not additive across blocks: the engine
        already extrapolated the cross-block population when recording,
        so scaled() must carry the counter through untouched."""
        step = make_step(
            grid=100,
            sampled=3,
            **{"atom.global.ops": 9, "atom.global.max_same_addr": 3},
        )
        scaled = step.scaled()
        assert scaled["atom.global.ops"] == 300  # additive: scales
        assert scaled["atom.global.max_same_addr"] == 3  # max: does not

    def test_event_key_registry_covers_engine_counters(self):
        # Keep the documented key list in sync with what real profiles
        # contain: a compound version, a coop version and a two-launch
        # plan (second-kernel combine), on both backends, sampled or not.
        from repro.gpusim import Executor
        from repro.runtime import ReductionFramework

        fw = ReductionFramework()
        assert fw.build("DT / DT+S / VS", 1 << 16).num_kernel_launches() == 2
        for version, backend, sample_limit in itertools.product(
            ("b", "p", "DT / DT+S / VS"), ("compiled", "interpreted"), (None, 3)
        ):
            executor = Executor(backend=backend)
            executor.device.alloc("in", 1 << 16)
            profile = executor.run_plan(
                fw.build(version, 1 << 16), sample_limit=sample_limit
            )
            for step in profile.steps:
                unknown = set(step.events) - set(EVENT_KEYS)
                assert not unknown, (version, sorted(unknown))


class TestPlanProfile:
    def test_totals_across_steps(self):
        plan = PlanProfile(
            plan_name="p",
            steps=[
                make_step(**{"inst.alu": 10}),
                make_step(**{"inst.alu": 20}),
            ],
        )
        assert plan.total("inst.alu") == 30
        assert plan.num_launches() == 2

    def test_totals_respect_scaling(self):
        plan = PlanProfile(
            plan_name="p",
            steps=[make_step(grid=100, sampled=10, **{"inst.alu": 10})],
        )
        assert plan.total("inst.alu") == pytest.approx(100)
