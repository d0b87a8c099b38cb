"""GPU architecture descriptors for the analytic timing model.

The three architectures match the paper's testbeds (Section IV-A):
Kepler K40c, Maxwell GTX980 and Pascal P100. The parameters encode the
microarchitectural differences the paper's analysis hinges on:

* **Shared-memory atomics** — Kepler implements them in software with a
  lock-update-unlock loop, which is expensive and causes branch
  divergence under contention [13]; Maxwell added native hardware
  support; Pascal keeps it and adds scoped atomics (Section II-A-2).
* **Global-memory atomics** — buffered in the L2 atomic units since
  Kepler, so they are cheap unless many updates hit the same address,
  which serializes at the L2.
* **Warp shuffle** — available since Kepler; cheaper than a shared-memory
  round trip and it frees shared memory (Section II-A-1).
* **Clocks / SM counts / bandwidth** — from the vendor whitepapers
  [19], [24], [26]; these drive the small-array behaviour (Pascal's high
  clock makes it competitive with the CPU — Section IV-C-1).

Numbers are per-architecture *model parameters*, not measurements; the
benchmark harness checks that the resulting performance shapes match the
paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Architecture:
    name: str
    codename: str
    sm_count: int
    clock_ghz: float
    mem_bandwidth_gbps: float
    # Occupancy limits (per SM)
    max_threads_per_sm: int
    max_blocks_per_sm: int
    shared_mem_per_sm: int  # bytes
    max_warps_per_sm: int
    # Issue model
    ipc_per_sm: float  # warp-instructions issued per cycle per SM
    pipeline_latency: float  # cycles between dependent instructions
    hide_warps: int  # resident warps needed to fully hide latency
    # Instruction costs (cycles per warp-instruction at full occupancy)
    alu_cpi: float
    shfl_cpi: float
    ld_global_cpi: float  # per transaction issue cost
    ld_shared_cpi: float
    bar_cpi: float
    # Atomic support
    native_shared_atomics: bool
    shared_atomic_cpi: float  # per op when native
    shared_atomic_sw_base: float  # Kepler software lock loop base cost
    shared_atomic_sw_retry: float  # extra cost per serialized retry
    shared_atomic_same_addr_cpi: float  # block-level serialization rate
    global_atomic_cpi: float  # issue cost per atomic
    global_atomic_same_addr_cpi: float  # L2 serialization per op, same address
    scoped_atomics: bool  # Pascal block/system scopes
    block_scope_atomic_discount: float  # cost factor for _block scope
    # Host interaction
    kernel_launch_overhead_us: float
    # Memory system efficiency by access pattern
    dram_efficiency_scalar: float  # achieved fraction of peak, scalar loads
    dram_efficiency_vector: float  # with float4-style vector loads
    warp_size: int = 32
    extra: dict = field(default_factory=dict, compare=False)

    def max_resident_blocks(self, block_size: int, shared_bytes: int) -> int:
        """Occupancy calculation: resident blocks per SM."""
        if block_size < 1:
            raise ValueError("block_size must be positive")
        limit = min(
            self.max_blocks_per_sm,
            self.max_threads_per_sm // block_size if block_size else 0,
        )
        if shared_bytes > 0:
            limit = min(limit, self.shared_mem_per_sm // shared_bytes)
        return max(limit, 0)


KEPLER = Architecture(
    name="Kepler K40c",
    codename="kepler",
    sm_count=15,
    clock_ghz=0.745,
    mem_bandwidth_gbps=288.0,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    shared_mem_per_sm=48 * 1024,
    max_warps_per_sm=64,
    ipc_per_sm=4.0,
    pipeline_latency=11.0,
    hide_warps=12,
    alu_cpi=1.0,
    shfl_cpi=1.0,
    ld_global_cpi=2.0,
    ld_shared_cpi=1.5,
    bar_cpi=8.0,
    native_shared_atomics=False,
    shared_atomic_cpi=2.0,  # unused on Kepler (software path below)
    shared_atomic_sw_base=14.0,
    shared_atomic_sw_retry=22.0,
    shared_atomic_same_addr_cpi=4.0,
    global_atomic_cpi=4.0,
    global_atomic_same_addr_cpi=6.0,
    scoped_atomics=False,
    block_scope_atomic_discount=1.0,
    kernel_launch_overhead_us=5.5,
    dram_efficiency_scalar=0.30,
    dram_efficiency_vector=0.42,
    extra={"dram_efficiency_staged": 0.97},
)

MAXWELL = Architecture(
    name="Maxwell GTX980",
    codename="maxwell",
    sm_count=16,
    clock_ghz=1.126,
    mem_bandwidth_gbps=224.0,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    shared_mem_per_sm=96 * 1024,
    max_warps_per_sm=64,
    ipc_per_sm=4.0,
    pipeline_latency=6.0,
    hide_warps=8,
    alu_cpi=1.0,
    shfl_cpi=1.0,
    ld_global_cpi=2.0,
    ld_shared_cpi=1.2,
    bar_cpi=8.0,
    native_shared_atomics=True,
    shared_atomic_cpi=2.5,
    shared_atomic_sw_base=0.0,
    shared_atomic_sw_retry=0.0,
    shared_atomic_same_addr_cpi=2.0,
    global_atomic_cpi=3.0,
    global_atomic_same_addr_cpi=4.0,
    scoped_atomics=False,
    block_scope_atomic_discount=1.0,
    kernel_launch_overhead_us=4.5,
    dram_efficiency_scalar=0.345,
    dram_efficiency_vector=0.37,
    extra={"dram_efficiency_staged": 0.995},
)

PASCAL = Architecture(
    name="Pascal P100",
    codename="pascal",
    sm_count=56,
    clock_ghz=1.328,
    mem_bandwidth_gbps=732.0,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    shared_mem_per_sm=64 * 1024,
    max_warps_per_sm=64,
    ipc_per_sm=4.0,
    pipeline_latency=6.0,
    hide_warps=8,
    alu_cpi=1.0,
    shfl_cpi=1.0,
    ld_global_cpi=2.0,
    ld_shared_cpi=1.2,
    bar_cpi=8.0,
    native_shared_atomics=True,
    shared_atomic_cpi=2.0,
    shared_atomic_sw_base=0.0,
    shared_atomic_sw_retry=0.0,
    shared_atomic_same_addr_cpi=1.5,
    global_atomic_cpi=2.5,
    global_atomic_same_addr_cpi=3.0,
    scoped_atomics=True,
    block_scope_atomic_discount=0.6,
    kernel_launch_overhead_us=2.5,
    dram_efficiency_scalar=0.346,
    dram_efficiency_vector=0.44,
    extra={"dram_efficiency_staged": 0.97},
)

ARCHITECTURES = {
    "kepler": KEPLER,
    "maxwell": MAXWELL,
    "pascal": PASCAL,
}


def get_architecture(name) -> Architecture:
    """The architecture named ``name`` (any case); an
    :class:`Architecture` is returned unchanged."""
    if isinstance(name, Architecture):
        return name
    key = name.lower()
    if key not in ARCHITECTURES:
        raise KeyError(
            f"unknown architecture {name!r}; choose from "
            f"{sorted(ARCHITECTURES)}"
        )
    return ARCHITECTURES[key]
