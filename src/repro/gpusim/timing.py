"""Analytic timing model fed by simulator event counts.

``kernel_time`` converts one launch's event profile into seconds on a
target :class:`~repro.gpusim.arch.Architecture`; ``plan_time`` adds host
overheads (kernel launches, memsets) across a plan's steps.

The model is deliberately mechanistic: every term corresponds to a
microarchitectural effect the paper's analysis relies on.

* **Issue/compute** — warp-instructions × per-class CPI, spread over the
  SMs actually occupied, with a latency penalty when too few warps are
  resident to hide pipeline latency (this is what makes low-occupancy
  launches slow, Section III-B/III-C's motivation for smaller shared
  footprints).
* **Memory** — bytes moved at segment granularity over DRAM bandwidth,
  scaled by an achieved-efficiency factor per load pattern (scalar /
  vectorized / staged). CUB's vector-load advantage for large arrays and
  the Kokkos staged kernels' advantage (Section IV-C) enter here.
* **Shared atomics** — native single-op cost on Maxwell/Pascal; Kepler
  pays the software lock-update-unlock loop per serialized round
  (Section II-A-2), plus a block-level critical path when many updates
  hit one accumulator.
* **Global atomics** — cheap when spread out, serialized at the L2 when
  they hit one address (the per-block final combine).
* **Launch overhead** — per kernel launch; dominates small arrays and is
  why single-kernel atomic variants win there (Section IV-B's pruning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arch import Architecture
from .events import PlanProfile, StepProfile

#: Host cost of a cudaMemset-style fill, seconds.
MEMSET_OVERHEAD_S = 1.5e-6

#: Fraction of the non-dominant timing terms that fails to overlap with
#: the dominant one (imperfect compute/memory overlap).
OVERLAP_LEAK = 0.12


@dataclass
class TimeBreakdown:
    """Per-launch timing terms (seconds), for inspection and tests."""

    kernel: str
    compute: float = 0.0
    memory: float = 0.0
    atomic_global: float = 0.0
    atomic_shared_block: float = 0.0
    total: float = 0.0
    detail: dict = field(default_factory=dict)


def kernel_time(
    profile: StepProfile, arch: Architecture, load_pattern: str = None
) -> TimeBreakdown:
    """Seconds one kernel launch takes on ``arch`` (excluding launch cost)."""
    events = profile.scaled()
    block = profile.block
    grid = profile.grid
    warps_per_block = profile.warps_per_block
    total_warps = max(1, grid * warps_per_block)

    blocks_per_sm = arch.max_resident_blocks(block, profile.shared_bytes)
    if blocks_per_sm == 0:
        raise ValueError(
            f"kernel {profile.kernel_name!r} cannot launch: block={block}, "
            f"shared={profile.shared_bytes}B exceed per-SM limits of {arch.name}"
        )
    sm_used = min(arch.sm_count, grid)
    resident_warps = min(
        blocks_per_sm * warps_per_block,
        arch.max_warps_per_sm,
        math.ceil(grid / sm_used) * warps_per_block,
    )
    waves = math.ceil(grid / (blocks_per_sm * arch.sm_count))

    # -- instruction issue cycles -------------------------------------
    # Dependent-issue instructions (ALU, shuffles, memory instruction
    # issue, barriers): with few resident warps their pipeline latency
    # cannot be hidden, so the effective per-instruction cost rises from
    # 1/IPC to latency/resident_warps (classic SIMT latency-hiding).
    # Kept as a per-class dict so the explain layer can attribute the
    # compute term back to individual counters (repro.obs.explain).
    issue_by_class = {
        "alu": events.get("inst.alu", 0) * arch.alu_cpi,
        "shfl": events.get("inst.shfl", 0) * arch.shfl_cpi,
        "global_issue": (
            events.get("inst.ld.global", 0) + events.get("inst.st.global", 0)
        ) * arch.ld_global_cpi,
        "shared": (
            events.get("inst.ld.shared", 0)
            + events.get("inst.st.shared", 0)
            + events.get("mem.shared.replays", 0)
        ) * arch.ld_shared_cpi,
        "barrier": events.get("inst.bar", 0) * warps_per_block * arch.bar_cpi,
    }
    issue = sum(issue_by_class.values())

    # Atomic operations retire at the atomic units' throughput — they are
    # fire-and-forget, so they do not pay the dependence-latency penalty.
    atomic_issue = (
        events.get("atom.global.ops", 0) / arch.warp_size
    ) * arch.global_atomic_cpi
    if arch.native_shared_atomics:
        atomic_issue += events.get("atom.shared.warp_serial", 0) * (
            arch.shared_atomic_cpi
        )
    else:
        # Kepler's software lock-update-unlock loop: every serialized
        # round replays the branchy lock sequence [13].
        atomic_issue += events.get("atom.shared.warp_serial", 0) * (
            arch.shared_atomic_sw_base + arch.shared_atomic_sw_retry
        )

    per_instr_cost = max(
        1.0 / arch.ipc_per_sm, arch.pipeline_latency / max(1, resident_warps)
    )
    compute_cycles = (issue / sm_used) * per_instr_cost + (
        atomic_issue / sm_used
    ) / arch.ipc_per_sm
    compute_s = compute_cycles / (arch.clock_ghz * 1e9)

    # -- memory ---------------------------------------------------------
    pattern = load_pattern or profile.meta.get("load_pattern", "scalar")
    efficiency = _pattern_efficiency(arch, pattern)
    bytes_moved = events.get("mem.global.bytes", 0)
    # Grid-strided distributions look scattered per warp, but concurrent
    # blocks interleave to cover whole 128B segments, which the L2
    # reassembles into dense DRAM traffic. When the synthesizer marks a
    # kernel cross-block interleaved and enough blocks run concurrently,
    # the effective traffic drops to the useful bytes.
    if profile.meta.get("cross_block_interleaved"):
        concurrent = blocks_per_sm * arch.sm_count
        elems_per_segment = 32  # 128B / 4B elements
        if concurrent >= elems_per_segment:
            bytes_moved = max(
                events.get("mem.global.bytes_useful", 0),
                bytes_moved / elems_per_segment,
            )
    memory_s = bytes_moved / (arch.mem_bandwidth_gbps * 1e9 * efficiency)

    # -- global atomic same-address serialization -----------------------
    same_addr = events.get("atom.global.max_same_addr", 0)
    atomic_global_s = (
        same_addr * arch.global_atomic_same_addr_cpi / (arch.clock_ghz * 1e9)
    )

    # -- shared atomic block critical path -------------------------------
    executed_blocks = max(1, events.get("blocks", grid))
    per_block_serial = events.get("atom.shared.block_max_same_addr", 0) / executed_blocks
    if arch.native_shared_atomics:
        per_round = arch.shared_atomic_same_addr_cpi
    else:
        per_round = arch.shared_atomic_sw_base + arch.shared_atomic_sw_retry
    atomic_shared_s = per_block_serial * per_round * waves / (arch.clock_ghz * 1e9)

    # Pipelines overlap compute with memory and atomic traffic, but not
    # perfectly: the non-dominant terms leak a fraction into the total.
    # This keeps the model sensitive to instruction-count differences
    # between versions even at memory-bound sizes.
    terms = (compute_s, memory_s, atomic_global_s, atomic_shared_s)
    dominant = max(terms)
    total = dominant + OVERLAP_LEAK * (sum(terms) - dominant)
    return TimeBreakdown(
        kernel=profile.kernel_name,
        compute=compute_s,
        memory=memory_s,
        atomic_global=atomic_global_s,
        atomic_shared_block=atomic_shared_s,
        total=total,
        detail={
            "issue_cycles": issue,
            "issue_by_class": issue_by_class,
            "atomic_issue_cycles": atomic_issue,
            "per_instr_cost": per_instr_cost,
            "waves": waves,
            "resident_warps": resident_warps,
            "blocks_per_sm": blocks_per_sm,
            "sm_used": sm_used,
            "pattern": pattern,
            "efficiency": efficiency,
            "bytes": bytes_moved,
            "total_warps": total_warps,
        },
    )


def _pattern_efficiency(arch: Architecture, pattern: str) -> float:
    if pattern == "vector":
        return arch.dram_efficiency_vector
    if pattern == "staged":
        return arch.extra.get("dram_efficiency_staged", 0.97)
    if pattern == "scalar":
        return arch.dram_efficiency_scalar
    raise ValueError(f"unknown load pattern {pattern!r}")


def plan_time(
    profile: PlanProfile,
    arch: Architecture,
    num_memsets: int = 0,
    extra_host_overhead_s: float = 0.0,
) -> float:
    """Total seconds for a plan: kernels + launch and memset overheads.

    Computed once per (profile, architecture object, ``num_memsets``,
    ``extra_host_overhead_s``) and kept in ``profile.times``: a profile
    does not change once its launches finished. The architecture is
    matched by identity (it is not hashable, and two may share a
    name)."""
    key = (id(arch), num_memsets, extra_host_overhead_s)
    kept = profile.times.get(key)
    if kept is not None and kept[0] is arch:
        return kept[1]
    total = extra_host_overhead_s + num_memsets * MEMSET_OVERHEAD_S
    for step in profile.steps:
        breakdown = kernel_time(step, arch)
        total += arch.kernel_launch_overhead_us * 1e-6 + breakdown.total
    profile.times[key] = (arch, total)
    return total


# ---------------------------------------------------------------------
# additive component decomposition (consumed by repro.obs.explain)
# ---------------------------------------------------------------------

#: Order in which timing terms claim the "dominant" slot when tied —
#: fixed so the decomposition is deterministic for a given profile.
_TERM_ORDER = ("compute", "memory", "atomic_global", "atomic_shared")


def kernel_components(
    profile: StepProfile, arch: Architecture, load_pattern: str = None
) -> dict:
    """One launch's modelled time as an **exactly additive** component map.

    :func:`kernel_time` combines its four terms nonlinearly (the dominant
    term counts in full, the rest leak :data:`OVERLAP_LEAK`), which makes
    "which counter accounts for the delta" ill-posed on the raw terms.
    This helper bakes the dominant/leak weighting into each term — the
    dominant term keeps weight 1, every other weight ``OVERLAP_LEAK`` —
    and then splits the compute term linearly over its per-instruction-
    class issue cycles.  The result: ``sum(components.values())`` equals
    ``kernel_time(...).total`` to float round-off, so per-component
    deltas between two variants sum to the model's timing delta.
    """
    breakdown = kernel_time(profile, arch, load_pattern)
    detail = breakdown.detail
    terms = {
        "compute": breakdown.compute,
        "memory": breakdown.memory,
        "atomic_global": breakdown.atomic_global,
        "atomic_shared": breakdown.atomic_shared_block,
    }
    dominant = max(_TERM_ORDER, key=lambda name: (terms[name], -_TERM_ORDER.index(name)))
    weight = {
        name: 1.0 if name == dominant else OVERLAP_LEAK
        for name in _TERM_ORDER
    }
    components = {}
    # compute splits linearly over issue cycles per instruction class.
    sm_used = detail["sm_used"]
    per_instr_cost = detail["per_instr_cost"]
    clock_hz = arch.clock_ghz * 1e9
    for cls, cycles in detail["issue_by_class"].items():
        components[f"compute.{cls}"] = (
            weight["compute"] * (cycles / sm_used) * per_instr_cost / clock_hz
        )
    components["compute.atomic_issue"] = (
        weight["compute"]
        * (detail["atomic_issue_cycles"] / sm_used)
        / arch.ipc_per_sm
        / clock_hz
    )
    components["memory.dram"] = weight["memory"] * breakdown.memory
    components["atomic.global_serial"] = (
        weight["atomic_global"] * breakdown.atomic_global
    )
    components["atomic.shared_serial"] = (
        weight["atomic_shared"] * breakdown.atomic_shared_block
    )
    return components


def plan_components(
    profile: PlanProfile,
    arch: Architecture,
    num_memsets: int = 0,
    extra_host_overhead_s: float = 0.0,
) -> dict:
    """Whole-plan additive components: kernels + launch/host overheads.

    ``sum(plan_components(...).values())`` equals
    :func:`plan_time` with the same arguments to float round-off.
    """
    total = {}
    for step in profile.steps:
        for name, seconds in kernel_components(step, arch).items():
            total[name] = total.get(name, 0.0) + seconds
    total["launch.overhead"] = (
        len(profile.steps) * arch.kernel_launch_overhead_us * 1e-6
    )
    host = extra_host_overhead_s + num_memsets * MEMSET_OVERHEAD_S
    if host:
        total["host.overhead"] = host
    return total
