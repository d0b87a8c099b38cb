"""Dynamic SIMT sanitizer: shadow-state hazard detection for the engines.

An opt-in mode of :class:`repro.gpusim.Executor` (pass ``sanitizer=``).
The engine's one run state feeds three hooks from its memory, barrier
and shuffle implementations, with the ``(blocks, threads)`` mask of the
current chunk. Both block orders (sequential one-block chunks, batched
multi-block chunks) and every dispatch backend go through them, so one
sanitizer covers every engine without touching results or event
counters.

Hazard model (see ``docs/SANITIZER.md`` for the full write-up):

* **Lockstep warp order.** The simulator models pre-Volta SIMT: lanes of
  one warp execute each instruction together, so two accesses by the
  same warp at different instructions are ordered and never race. Only
  conflicting accesses from *different warps* (or different lanes at the
  *same* instruction) are hazards.
* **Barrier epochs.** Each warp carries a barrier arrival count. A
  ``Bar`` "arrives" for every warp with at least one active lane —
  hardware barrier arrival is warp-granular, which is why generated
  code may legally execute ``bar.sync`` under a ``laneid == 0`` guard.
  When every warp of the block arrives together, the block is fully
  synchronized and the shadow state's conflict horizon advances.
* **Barrier divergence = mismatched pairing.** Hardware matches barrier
  arrivals by count, and warps that exit the kernel satisfy outstanding
  barriers ("arrive or exit"). The undefined case is two warps of one
  block pairing *different* ``bar.sync`` program points: detected here
  as a barrier event whose arriving warps have unequal arrival counts.
  A region like ``if (warpid == 0) { ... bar; ... }`` at the end of a
  kernel is therefore legal (the other warps exit), while
  ``if (warpid == 0) bar; bar;`` is flagged.
* **Shuffle sources must be active.** ``shfl`` reading a source lane
  that the current mask has inactivated returns stale data on hardware
  (undefined per CUDA); reading the lane's own value via the identity
  fallback is always fine.

Write/read shadow state is tracked per address with the last writer and
the last two distinct-warp readers — enough to catch every hazard the
generated reductions can exhibit while staying fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpusim.engine import WARP
from ..vir.instructions import (
    AtomGlobal,
    AtomShared,
    LdGlobal,
    LdShared,
    StGlobal,
    StShared,
)
from ..vir.printer import format_instr


@dataclass
class Diagnostic:
    """One sanitizer finding, deduplicated per (kind, kernel, instr)."""

    kind: str        # "write-write-hazard" | "read-write-hazard" |
                     # "barrier-divergence" | "shfl-inactive-source" |
                     # lint kinds (see repro.sanitize.lint)
    kernel: str
    instr: str       # formatted VIR instruction
    message: str
    buf: str = None
    blocks: tuple = ()
    lanes: tuple = ()
    addrs: tuple = ()
    source: str = "dynamic"   # "dynamic" | "lint"
    count: int = 1

    def render(self) -> str:
        where = f" [{self.source}]" if self.source != "dynamic" else ""
        extra = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"{self.kind}{where}: kernel {self.kernel!r}, `{self.instr}`: "
            f"{self.message}{extra}"
        )


class _Shadow:
    """Per-address last-writer / last-two-distinct-warp-reader arrays.

    Addresses are flat keys: ``addr`` for a global buffer,
    ``block * size + addr`` for a shared buffer (one private segment per
    block). Times are the launch's monotone event counter; 0 means
    "never accessed". Warp keys are ``block * warps_per_block + warp``.
    """

    __slots__ = (
        "w_time", "w_lane", "w_warp", "w_block", "w_atomic",
        "r_time", "r_lane", "r_warp", "r_block",
        "r2_time", "r2_lane", "r2_warp", "r2_block",
    )

    def __init__(self, size: int):
        self.w_time = np.zeros(size, dtype=np.int64)
        self.w_lane = np.full(size, -1, dtype=np.int64)
        self.w_warp = np.full(size, -1, dtype=np.int64)
        self.w_block = np.full(size, -1, dtype=np.int64)
        self.w_atomic = np.zeros(size, dtype=bool)
        self.r_time = np.zeros(size, dtype=np.int64)
        self.r_lane = np.full(size, -1, dtype=np.int64)
        self.r_warp = np.full(size, -1, dtype=np.int64)
        self.r_block = np.full(size, -1, dtype=np.int64)
        self.r2_time = np.zeros(size, dtype=np.int64)
        self.r2_lane = np.full(size, -1, dtype=np.int64)
        self.r2_warp = np.full(size, -1, dtype=np.int64)
        self.r2_block = np.full(size, -1, dtype=np.int64)


class Sanitizer:
    """Collects :class:`Diagnostic` objects across a plan's launches."""

    def __init__(self):
        self.diagnostics = []
        self._dedup = {}

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def begin_kernel(self, step, device) -> "_KernelSanitizer":
        return _KernelSanitizer(self, step, device)

    def report(self, kind, kernel, instr, message, buf=None,
               blocks=(), lanes=(), addrs=()) -> None:
        key = (kind, kernel, instr, buf)
        existing = self._dedup.get(key)
        if existing is not None:
            existing.count += 1
            return
        diag = Diagnostic(
            kind=kind, kernel=kernel, instr=instr, message=message,
            buf=buf, blocks=tuple(blocks), lanes=tuple(lanes),
            addrs=tuple(addrs),
        )
        self._dedup[key] = diag
        self.diagnostics.append(diag)


class _KernelSanitizer:
    """Shadow state of one kernel launch (shared by its chunks)."""

    def __init__(self, parent: Sanitizer, step, device):
        self.parent = parent
        self.step = step
        self.kernel = step.kernel
        self.device = device
        self.grid = step.grid
        self.block = step.block
        self.nwarps = (step.block + WARP - 1) // WARP
        self.t = 0
        #: Per (block, warp) barrier arrival counts.
        self.bar_count = np.zeros((self.grid, self.nwarps), dtype=np.int64)
        #: Per block: time of the last barrier every warp arrived at.
        self.block_sync = np.zeros(self.grid, dtype=np.int64)
        self._shadows = {}
        self._instr_text = {}

    # -- shared plumbing ----------------------------------------------

    def _text(self, instr) -> str:
        text = self._instr_text.get(id(instr))
        if text is None:
            text = format_instr(instr).strip()
            self._instr_text[id(instr)] = text
        return text

    def _active(self, run, idx, mask):
        """(blocks, lanes, addrs) of the active lanes of one access."""
        rows, lanes = np.nonzero(mask)
        return run.block_ids[rows], lanes, np.asarray(idx)[mask]

    def _shadow(self, space, buf, run) -> tuple:
        """Shadow arrays plus the per-block address span for a buffer."""
        key = (space, buf)
        entry = self._shadows.get(key)
        if entry is None:
            if space == "shared":
                size = run.shared[buf].shape[-1]
                entry = (_Shadow(self.grid * size), size)
            else:
                device_name = self.step.buffers.get(buf, buf)
                entry = (_Shadow(len(self.device.get(device_name))), 0)
            self._shadows[key] = entry
        return entry

    # -- hooks (called from the run state) -----------------------------

    def on_mem(self, run, instr, idx, mask) -> None:
        if not mask.any():
            return
        cls = type(instr)
        if cls is LdShared:
            space, write, atomic, width = "shared", False, False, 1
        elif cls is StShared:
            space, write, atomic, width = "shared", True, False, 1
        elif cls is AtomShared:
            space, write, atomic, width = "shared", True, True, 1
        elif cls is LdGlobal:
            space, write, atomic, width = "global", False, False, instr.width
        elif cls is StGlobal:
            space, write, atomic, width = "global", True, False, 1
        elif cls is AtomGlobal:
            space, write, atomic, width = "global", True, True, 1
        else:
            return
        self.t += 1
        blocks, lanes, addrs = self._active(run, idx, mask)
        shadow, span = self._shadow(space, instr.buf, run)
        size = shadow.w_time.shape[0]
        for k in range(width):
            a = addrs if k == 0 else addrs + k
            keys = blocks * span + a if span else a
            b, l = blocks, lanes
            ok = (keys >= 0) & (keys < size)
            if not ok.all():
                # Vector-load tail past the buffer end: the engine raises
                # its own out-of-bounds error right after this hook.
                keys, b, l, a = keys[ok], b[ok], l[ok], a[ok]
                if not keys.size:
                    continue
            if write:
                self._check_write(instr, shadow, keys, b, l, a,
                                  atomic, space)
            else:
                self._check_read(instr, shadow, keys, b, l, a,
                                 atomic, space)

    def on_bar(self, run, mask) -> None:
        self.t += 1
        per_warp = np.bitwise_or.reduceat(mask, run._warp_starts, axis=1)
        for row in np.flatnonzero(per_warp.any(axis=1)):
            self._arrive(int(run.block_ids[row]),
                         np.flatnonzero(per_warp[row]), run)

    def on_shfl(self, run, instr, source_lane, mask) -> None:
        self.t += 1
        if not mask.any():
            return
        own = np.broadcast_to(
            np.arange(run.nthreads, dtype=np.int64), run.shape
        )
        source_active = np.take_along_axis(mask, source_lane, axis=1)
        bad = mask & ~source_active & (source_lane != own)
        if not bad.any():
            return
        rows, lanes = np.nonzero(bad)
        blocks = run.block_ids[rows]
        sources = source_lane[bad]
        self.parent.report(
            "shfl-inactive-source", self.kernel.name, self._text(instr),
            f"lane {int(lanes[0])} (block {int(blocks[0])}) reads source "
            f"lane {int(sources[0])}, which the current mask has "
            f"inactivated — undefined on hardware",
            blocks=blocks[:4].tolist(), lanes=lanes[:4].tolist(),
        )

    # -- barrier epochs ------------------------------------------------

    def _arrive(self, block_id, warps, run) -> None:
        counts = self.bar_count[block_id]
        counts[warps] += 1
        arrived = counts[warps]
        if arrived.min() != arrived.max():
            lagging = int(warps[np.argmin(arrived)])
            leading = int(warps[np.argmax(arrived)])
            self.parent.report(
                "barrier-divergence", self.kernel.name, "bar.sync",
                f"warps of block {block_id} arrive at this barrier with "
                f"mismatched barrier counts (warp {leading} at "
                f"{int(arrived.max())}, warp {lagging} at "
                f"{int(arrived.min())}) — the block's barriers pair "
                f"different program points",
                blocks=(block_id,), lanes=(leading * WARP, lagging * WARP),
            )
        if len(warps) == self.nwarps:
            self.block_sync[block_id] = self.t

    # -- data hazards --------------------------------------------------

    def _unsynced(self, shadow_time, shadow_block, blocks):
        """True where a previous access is *not* separated from the
        current one by a barrier every warp of the block arrived at
        (cross-block accesses are never synchronized)."""
        return (shadow_time > 0) & ~(
            (shadow_block == blocks) & (self.block_sync[blocks] > shadow_time)
        )

    def _report_conflict(self, kind, instr, buf, space, blocks, lanes, addrs,
                         other_lane, other_block, picks) -> None:
        i = int(np.flatnonzero(picks)[0])
        addr = int(addrs[i])
        self.parent.report(
            kind, self.kernel.name, self._text(instr),
            f"lane {int(lanes[i])} (block {int(blocks[i])}) conflicts with "
            f"lane {int(other_lane[i])} (block {int(other_block[i])}) on "
            f"{space} {buf}[{addr}] with no intervening block-wide barrier",
            buf=buf,
            blocks=(int(blocks[i]), int(other_block[i])),
            lanes=(int(lanes[i]), int(other_lane[i])),
            addrs=(addr,),
        )

    def _check_write(self, instr, shadow, keys, blocks, lanes, addrs,
                     atomic, space) -> None:
        buf = instr.buf
        # Same-instruction write-write: two active lanes, one address.
        if not atomic and keys.size > 1:
            order = np.argsort(keys, kind="stable")
            dup = keys[order][1:] == keys[order][:-1]
            if dup.any():
                i = int(order[1:][dup][0])
                j = int(order[:-1][dup][0])
                self.parent.report(
                    "write-write-hazard", self.kernel.name,
                    self._text(instr),
                    f"lanes {int(lanes[j])} and {int(lanes[i])} (block "
                    f"{int(blocks[i])}) store to {space} {buf}"
                    f"[{int(addrs[i])}] in the same instruction without "
                    f"atomics",
                    buf=buf, blocks=(int(blocks[i]),),
                    lanes=(int(lanes[j]), int(lanes[i])),
                    addrs=(int(addrs[i]),),
                )
        gwarp = blocks * self.nwarps + lanes // WARP
        # vs the previous write.
        conflict = (
            self._unsynced(shadow.w_time[keys], shadow.w_block[keys], blocks)
            & (shadow.w_warp[keys] != gwarp)
            & ~(atomic & shadow.w_atomic[keys])
        )
        if conflict.any():
            self._report_conflict(
                "write-write-hazard", instr, buf, space, blocks, lanes,
                addrs, shadow.w_lane[keys], shadow.w_block[keys], conflict,
            )
        # vs the previous reads (both tracked reader slots).
        for r_time, r_lane, r_warp, r_block in (
            (shadow.r_time, shadow.r_lane, shadow.r_warp, shadow.r_block),
            (shadow.r2_time, shadow.r2_lane, shadow.r2_warp, shadow.r2_block),
        ):
            conflict = (
                self._unsynced(r_time[keys], r_block[keys], blocks)
                & (r_warp[keys] != gwarp)
            )
            if conflict.any():
                self._report_conflict(
                    "read-write-hazard", instr, buf, space, blocks, lanes,
                    addrs, r_lane[keys], r_block[keys], conflict,
                )
        # A write supersedes the location's history.
        shadow.w_time[keys] = self.t
        shadow.w_lane[keys] = lanes
        shadow.w_warp[keys] = gwarp
        shadow.w_block[keys] = blocks
        shadow.w_atomic[keys] = atomic
        shadow.r_time[keys] = 0
        shadow.r2_time[keys] = 0

    def _check_read(self, instr, shadow, keys, blocks, lanes, addrs,
                    atomic, space) -> None:
        gwarp = blocks * self.nwarps + lanes // WARP
        conflict = (
            self._unsynced(shadow.w_time[keys], shadow.w_block[keys], blocks)
            & (shadow.w_warp[keys] != gwarp)
            & ~(atomic & shadow.w_atomic[keys])
        )
        if conflict.any():
            self._report_conflict(
                "read-write-hazard", instr, instr.buf, space, blocks, lanes,
                addrs, shadow.w_lane[keys], shadow.w_block[keys], conflict,
            )
        # Track the read: newest in slot 1, shifting a different-warp
        # predecessor to slot 2 so a later writer sees both.
        shift = (shadow.r_time[keys] > 0) & (shadow.r_warp[keys] != gwarp)
        for dst, src in (
            (shadow.r2_time, shadow.r_time), (shadow.r2_lane, shadow.r_lane),
            (shadow.r2_warp, shadow.r_warp), (shadow.r2_block, shadow.r_block),
        ):
            dst[keys] = np.where(shift, src[keys], dst[keys])
        shadow.r_time[keys] = self.t
        shadow.r_lane[keys] = lanes
        shadow.r_warp[keys] = gwarp
        shadow.r_block[keys] = blocks
