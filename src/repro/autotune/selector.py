"""DySel-style dynamic kernel selection at runtime [33].

The paper notes Tangram can pick the best synthesized version either
with compile-time heuristics or with lightweight dynamic selection at
runtime. :class:`DynamicSelector` pre-tabulates the best tuned version
per input-size bucket for one architecture, then answers ``select(n)``
in O(log #buckets).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .tuner import (
    DEFAULT_BLOCKS,
    DEFAULT_GRIDS,
    _best,
    _tune_versions,
    sweep_specs,
)

#: Size grid used to build the selection table (powers of four, like the
#: paper's sweep from 64 to 260M elements).
DEFAULT_SIZE_GRID = tuple(4 ** k for k in range(3, 15))


@dataclass
class SelectorEntry:
    max_n: int
    version_key: object
    tunables: object
    time_s: float


@dataclass
class DynamicSelector:
    framework: object
    arch: object
    entries: list = field(default_factory=list)

    @classmethod
    def build(
        cls,
        framework,
        arch,
        sizes=DEFAULT_SIZE_GRID,
        candidates=None,
        blocks=DEFAULT_BLOCKS,
        grids=DEFAULT_GRIDS,
        max_workers=None,
    ) -> "DynamicSelector":
        """Tune/tabulate the best version at each size in ``sizes``.

        The full size × candidate × config grid is profiled up front in
        one parallel batch, so table construction is one fan-out rather
        than one sweep per size, and each point is then read back once.
        """
        framework.profile_many(
            sweep_specs(framework, sizes, candidates, blocks, grids),
            max_workers=max_workers,
        )
        if candidates is None:
            candidates = list(framework.catalog)
        entries = []
        for n in sorted(sizes):
            key, tunables, seconds = _best(_tune_versions(
                framework, n, arch, candidates, blocks, grids
            ))
            entries.append(
                SelectorEntry(
                    max_n=n, version_key=key, tunables=tunables, time_s=seconds
                )
            )
        return cls(framework=framework, arch=arch, entries=entries)

    def select(self, n: int) -> SelectorEntry:
        """The table entry covering input size ``n``."""
        if not self.entries:
            raise RuntimeError("selector table is empty; call build() first")
        keys = [entry.max_n for entry in self.entries]
        index = bisect.bisect_left(keys, n)
        index = min(index, len(self.entries) - 1)
        return self.entries[index]

    def reduce(self, data):
        """Run the selected version on actual data (functional)."""
        entry = self.select(len(data))
        return self.framework.run(data, entry.version_key, entry.tunables)

    def explain(self, n: int, candidates=None, top: int = 3) -> dict:
        """Why the entry covering ``n`` wins its bucket, counter-cited.

        Re-derives the bucket's tuning verdict (pure cache hits after
        :meth:`build`) and returns
        :func:`repro.autotune.tuner.explain_pruning`'s attribution —
        the winner, the runner-up it pruned, and the timing-model
        components (with their counters) that account for the margin.
        """
        from .tuner import explain_pruning, tune_all

        entry = self.select(n)
        results = tune_all(
            self.framework, entry.max_n, self.arch, candidates
        )
        return explain_pruning(
            self.framework, results, entry.max_n, self.arch, top=top
        )
