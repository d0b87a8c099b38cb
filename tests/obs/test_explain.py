"""Tests for the counter-derived explain analytics (:mod:`repro.obs.explain`).

Covers the per-launch figure-of-merit metrics, the exactly-additive
timing-component decomposition, the A/B delta attribution (including
the ISSUE acceptance pair: shared-memory tree (a) vs shuffle tree (b)),
and the deterministic text renderers (golden lines on synthetic
explanations).
"""

from collections import Counter

import pytest

from repro.gpusim import get_architecture
from repro.gpusim.events import PlanProfile, StepProfile
from repro.gpusim.timing import kernel_time, plan_components, plan_time
from repro.obs.explain import (
    COMPONENT_COUNTERS,
    diff_explanations,
    explain_diff,
    explain_variant,
    format_diff,
    format_explain,
    launch_metrics,
)
from repro.runtime import ReductionFramework

#: Shared-memory tree vs shuffle tree — the Figure 6 acceptance pair.
SHMEM_TREE, SHFL_TREE = "a", "b"
ACCEPT_N = 65536


@pytest.fixture(scope="module")
def fw():
    return ReductionFramework(op="add")


def _step(events, grid=4, block=64, **kwargs):
    return StepProfile(
        kernel_name="k", grid=grid, block=block, shared_bytes=0,
        events=Counter(events), **kwargs,
    )


class TestLaunchMetrics:
    def test_coalescing_and_mix_ratios(self):
        metrics = launch_metrics(_step({
            "inst.alu": 60, "inst.shfl": 20, "inst.ld.global": 10,
            "inst.st.global": 5, "inst.ld.shared": 3, "inst.st.shared": 2,
            "mem.global.ld.trans": 20, "mem.global.st.trans": 5,
            "branch.divergent": 10, "inst.bar": 4, "warps": 8,
            "threads": 256, "blocks": 4,
            "atom.shared.ops": 64, "atom.global.ops": 64,
            "atom.shared.block_max_same_addr": 8,
            "atom.global.max_same_addr": 4,
        }))
        assert metrics["coalescing.ld_trans_per_req"] == 2.0
        assert metrics["coalescing.st_trans_per_req"] == 1.0
        assert metrics["divergence.per_warp_inst"] == 0.1
        assert metrics["mix.shfl_frac"] == 0.2
        assert metrics["mix.shared_frac"] == 0.05
        assert metrics["mix.atomics_per_thread"] == 0.5
        assert metrics["atomics.global_max_same_addr"] == 4
        assert metrics["atomics.shared_serial_per_block"] == 2.0
        # mix.barriers_per_warp_slot = bar * warps_per_block / warps
        assert metrics["mix.barriers_per_warp_slot"] == 4 * 2 / 8

    def test_zero_denominators_are_none_not_crash(self):
        metrics = launch_metrics(_step({}))
        assert metrics["coalescing.ld_trans_per_req"] is None
        assert metrics["divergence.per_warp_inst"] is None
        assert metrics["mix.barriers_per_warp_slot"] is None

    def test_uses_scaled_events_when_sampled(self):
        step = _step(
            {"inst.ld.global": 10, "mem.global.ld.trans": 10},
            grid=100, sampled_blocks=10,
        )
        metrics = launch_metrics(step)
        # Both numerator and denominator scale: the ratio is invariant.
        assert metrics["coalescing.ld_trans_per_req"] == 1.0
        assert metrics["events"]["inst.ld.global"] == 100.0


class TestAdditiveComponents:
    @pytest.mark.parametrize("label", ["a", "b", "e", "p"])
    @pytest.mark.parametrize("arch_name", ["kepler", "pascal"])
    def test_plan_components_sum_to_plan_time(self, fw, label, arch_name):
        profile, num_memsets = fw.profile(label, ACCEPT_N)
        arch = get_architecture(arch_name)
        components = plan_components(profile, arch, num_memsets=num_memsets)
        total = plan_time(profile, arch, num_memsets=num_memsets)
        assert sum(components.values()) == pytest.approx(total, rel=1e-12)

    def test_components_cover_every_kernel_term(self, fw):
        profile, num_memsets = fw.profile("b", ACCEPT_N)
        arch = get_architecture("pascal")
        components = plan_components(profile, arch, num_memsets=num_memsets)
        for name in (
            "compute.alu", "compute.shfl", "compute.shared",
            "compute.barrier", "memory.dram", "atomic.global_serial",
            "launch.overhead",
        ):
            assert name in components

    def test_every_component_has_a_counter_citation_entry(self):
        from repro.gpusim.timing import kernel_components

        step = _step({"inst.alu": 100, "warps": 2, "blocks": 1,
                      "threads": 64, "mem.global.bytes": 4096})
        components = kernel_components(step, get_architecture("pascal"))
        for name in components:
            assert name in COMPONENT_COUNTERS, (
                f"component {name} missing from COMPONENT_COUNTERS"
            )

    def test_breakdown_detail_carries_issue_by_class(self):
        step = _step({"inst.alu": 10, "inst.shfl": 4, "warps": 2,
                      "blocks": 1, "threads": 64})
        breakdown = kernel_time(step, get_architecture("pascal"))
        by_class = breakdown.detail["issue_by_class"]
        assert by_class["alu"] > 0
        assert by_class["shfl"] > 0
        assert sum(by_class.values()) == pytest.approx(
            breakdown.detail["issue_cycles"]
        )


class TestExplainVariant:
    def test_attributed_total_matches_model(self, fw):
        explanation = explain_variant(fw, "b", ACCEPT_N)
        assert explanation["attributed_total_s"] == pytest.approx(
            explanation["model_total_s"], rel=1e-12
        )

    def test_deterministic_given_fixed_profile(self, fw):
        first = explain_variant(fw, "b", ACCEPT_N)
        second = explain_variant(fw, "b", ACCEPT_N)
        assert first == second

    def test_format_explain_lines(self, fw):
        lines = format_explain(explain_variant(fw, "b", ACCEPT_N))
        assert lines[0].startswith("variant (b) on Pascal")
        assert any("timing components" in line for line in lines)
        assert any(line.startswith("  launches: ") for line in lines)


class TestDiffAttribution:
    def test_acceptance_pair_ranks_shuffle_shared_traffic(self, fw):
        """ISSUE acceptance: shared-memory tree (a) vs shuffle tree (b)
        must attribute the delta to shuffle/shared-traffic counters,
        and the attribution must match the model delta within 5%."""
        diff = explain_diff(fw, SHMEM_TREE, SHFL_TREE, ACCEPT_N)
        assert diff["attribution_error"] < 0.05
        top = diff["ranking"][0]
        assert top["component"] in (
            "compute.barrier", "compute.shared", "compute.shfl"
        ), f"top attribution was {top['component']}"
        assert not top["overlap_shift"]
        cited = set(top["counters"])
        assert cited & {
            "inst.bar", "inst.ld.shared", "inst.st.shared",
            "mem.shared.replays", "inst.shfl",
        }
        # The shuffle tree trades shared traffic for shuffles: shared
        # and barrier counters drop, shuffles appear.
        by_name = {row["component"]: row for row in diff["ranking"]}
        assert by_name["compute.shared"]["delta_s"] < 0
        assert by_name["compute.barrier"]["delta_s"] < 0
        assert by_name["compute.shfl"]["counters"]["inst.shfl"]["delta"] > 0

    def test_component_deltas_sum_to_model_delta(self, fw):
        diff = explain_diff(fw, SHMEM_TREE, SHFL_TREE, ACCEPT_N)
        attributed = sum(row["delta_s"] for row in diff["ranking"])
        assert attributed == pytest.approx(diff["model_delta_s"], rel=1e-9)

    def test_overlap_shift_rows_rank_below_counter_backed_rows(self, fw):
        diff = explain_diff(fw, SHMEM_TREE, SHFL_TREE, ACCEPT_N)
        shifts = [row["overlap_shift"] for row in diff["ranking"]]
        # Once an overlap-shift row appears, no counter-backed row may
        # follow it (among nonzero-delta rows, which sort first).
        nonzero = [
            row["overlap_shift"]
            for row in diff["ranking"] if row["delta_s"]
        ]
        assert nonzero == sorted(nonzero)
        assert len(shifts) == len(diff["ranking"])

    def test_faster_variant_named(self, fw):
        diff = explain_diff(fw, SHMEM_TREE, SHFL_TREE, ACCEPT_N)
        a_s = diff["a"]["model_total_s"]
        b_s = diff["b"]["model_total_s"]
        expected = SHMEM_TREE if a_s <= b_s else SHFL_TREE
        assert diff["faster"] == expected


def _synthetic_explanation(variant, components, counters, total):
    return {
        "schema": 1,
        "variant": variant,
        "arch": "Pascal P100",
        "model_total_s": total,
        "attributed_total_s": total,
        "components": components,
        "metrics": {"counters": counters, "launches": 1},
        "launches": [],
    }


class TestGoldenRenderers:
    """The renderers are pure functions of the explanation dicts, so a
    fixed input must yield byte-identical lines (determinism gate)."""

    def _diff(self):
        a = _synthetic_explanation(
            "x",
            {"compute.shared": 3e-6, "compute.shfl": 0.0,
             "memory.dram": 1e-6},
            {"inst.ld.shared": 100.0, "inst.shfl": 0.0,
             "mem.global.bytes": 4096.0},
            4e-6,
        )
        b = _synthetic_explanation(
            "y",
            {"compute.shared": 1e-6, "compute.shfl": 0.5e-6,
             "memory.dram": 1e-6},
            {"inst.ld.shared": 20.0, "inst.shfl": 64.0,
             "mem.global.bytes": 4096.0},
            2.5e-6,
        )
        return diff_explanations(a, b)

    def test_diff_golden_payload(self):
        diff = self._diff()
        assert diff["model_delta_s"] == pytest.approx(-1.5e-6)
        assert diff["faster"] == "y"
        assert [row["component"] for row in diff["ranking"]] == [
            "compute.shared", "compute.shfl", "memory.dram",
        ]
        shared = diff["ranking"][0]
        assert shared["counters"]["inst.ld.shared"] == {
            "a": 100.0, "b": 20.0, "delta": -80.0,
        }

    def test_diff_golden_lines(self):
        lines = format_diff(self._diff())
        assert lines == [
            "(x) 4.00us  vs  (y) 2.50us on Pascal P100  ->  (y) faster "
            "by 1.50us",
            "attributed 1.50us (error 0.00% of the model delta)",
            "top attributions (positive = costs (b) more):",
            "  compute.shared                -2.00us   "
            "[inst.ld.shared 100->20]",
            "  compute.shfl                  +0.50us   [inst.shfl 0->64]",
        ]
