"""Event counters collected while executing kernels on the simulator.

The timing model in :mod:`repro.gpusim.timing` consumes these counters.
All ``inst.*`` counters are **warp-instruction** counts (one unit per warp
with at least one active lane), matching how SIMT hardware issues work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Counter key reference (kept here so tests and the timing model agree).
EVENT_KEYS = (
    "inst.alu",          # ALU/select/move warp-instructions
    "inst.shfl",         # warp shuffle instructions
    "inst.ld.global",    # global load warp-instructions
    "inst.st.global",    # global store warp-instructions
    "inst.ld.shared",    # shared load warp-instructions
    "inst.st.shared",    # shared store warp-instructions
    "inst.bar",          # barriers executed (block-wide)
    "mem.global.ld.trans",   # 128B global load transactions
    "mem.global.st.trans",   # 128B global store transactions
    "mem.global.bytes",      # bytes moved (segment granularity)
    "mem.global.bytes_useful",  # bytes the active lanes asked for
    "mem.shared.replays",    # shared-memory bank-conflict replays
    "atom.shared.ops",       # shared atomic operations (thread level)
    "atom.shared.warp_serial",  # per-warp same-address serialization
    "atom.shared.block_max_same_addr",  # per-block same-address total (summed)
    "atom.global.ops",       # global atomic operations (thread level)
    "atom.global.max_same_addr",  # launch-wide max ops on one address
    "branch.divergent",      # warp-divergent If regions and While
                             # back-edge tests (a warp whose active lanes
                             # split between continuing and exiting an
                             # iteration counts once per test)
    "warps",                 # warps launched
    "blocks",                # blocks launched
    "threads",               # threads launched
)


@dataclass
class StepProfile:
    """Events and shape of one kernel launch."""

    kernel_name: str
    grid: int
    block: int
    shared_bytes: int
    events: Counter = field(default_factory=Counter)
    sampled_blocks: int = 0  # 0 means full execution
    meta: dict = field(default_factory=dict)

    @property
    def warps_per_block(self) -> int:
        return (self.block + 31) // 32

    #: :meth:`scaled`, kept once the launch has finished (:meth:`finish`).
    _scaled: Counter = field(default=None, init=False, compare=False, repr=False)

    def finish(self) -> None:
        """Mark the launch finished: ``events`` no longer change, so
        :meth:`scaled` is computed here once and kept (``events``
        itself when nothing is extrapolated)."""
        self._scaled = None
        if not self.sampled_blocks or self.sampled_blocks >= self.grid:
            self._scaled = self.events
        else:
            self._scaled = self.scaled()

    def scaled(self) -> Counter:
        """Events extrapolated to the full grid when sampled. After
        :meth:`finish` every call returns the one kept Counter, which
        callers must not mutate."""
        if self._scaled is not None:
            return self._scaled
        if not self.sampled_blocks or self.sampled_blocks >= self.grid:
            return Counter(self.events)
        factor = self.grid / self.sampled_blocks
        scaled = Counter()
        for key, value in self.events.items():
            if key == "atom.global.max_same_addr":
                # A launch-wide *max* is not additive across blocks, so
                # linear extrapolation by the sampling factor is wrong
                # (it would inflate block-private atomic traffic by the
                # grid size). The executor already extrapolates
                # cross-block same-address totals when it records this
                # key (see Executor._launch_max_same_addr); carry it
                # through unscaled.
                scaled[key] = value
            else:
                scaled[key] = value * factor
        scaled["blocks"] = self.grid
        scaled["threads"] = self.grid * self.block
        scaled["warps"] = self.grid * self.warps_per_block
        return scaled


@dataclass
class PlanProfile:
    """Profiles for every kernel step of one executed plan."""

    plan_name: str
    steps: list = field(default_factory=list)  # StepProfile
    result: float = None
    meta: dict = field(default_factory=dict)
    #: ``plan_time`` results of this profile, kept by
    #: :func:`repro.gpusim.timing.plan_time`.
    times: dict = field(default_factory=dict, compare=False, repr=False)

    def total(self, key: str) -> float:
        return sum(step.scaled().get(key, 0) for step in self.steps)

    def num_launches(self) -> int:
        return len(self.steps)
