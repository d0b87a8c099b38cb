"""Execution backends behind a formal protocol + registry.

The :class:`~repro.gpusim.engine.Executor` used to hardcode its backend
dispatch (``if self.backend == "compiled": ...``), which meant adding a
backend touched ``engine.py`` internals.  This module extracts the
contract into a small protocol so backends plug in through a registry.
An engine spec (``--engine``, ``ReductionFramework(engine=)``) is a
backend name, so a registered backend is selectable everywhere (the
Vortex paper in PAPERS.md motivates keeping this swappable for future
hardware / software-warp-op targets).

Backend protocol
----------------
A backend decides *how a kernel body executes* inside the run state
(:class:`~repro.gpusim.engine._BatchedRun`, one chunk of blocks as
``(blocks, threads)`` arrays); everything else — event/profile
recording, sanitizer hooks, masks, memory — stays in the run state and
is shared by every backend:

``name``
    Registry key, and the string recorded in ``StepProfile.meta
    ["exec.backend"]``.
``prepare(kernel)``
    Build whatever per-kernel artifact the backend needs, once per
    kernel (kept as a kernel fact, :meth:`repro.vir.program.Kernel.fact`).
    Called by the kernel-cache pre-warm, once per built kernel, so
    cached kernels ship ready to run.
``trace(kernel)``
    Return the closure trace the run state should execute, or ``None``
    to fall back to the tree-walking interpreter (``_exec_body``).
    Closures in the trace follow the contract documented in
    :mod:`repro.gpusim.compile`: they receive ``(state, mask)``, may
    rely on ``state._cur_warps``/``state._cur_all``, must record their
    own events, and must route memory/shuffle/barrier effects through
    the state methods (or replicate them bit-exactly) so sanitizer
    hooks and event counters stay identical across backends.

Every backend must be **bit-identical** to the reference interpreter on
results, event counters and profiles; ``tests/gpusim`` enforces this.
One exception is by design: after a *sampled* launch device buffers
are unspecified (only the sampled blocks run), so only the event
counters of a sampled launch must match, and they must match exactly.
An artifact that ``prepare`` returns carries ``data_dependence`` (None
when the kernel is data-oblivious) and ``event_trace_for(kernel)``, the
kernel's *event trace*: the trace with every value-only instruction
reduced to its events, and ``suffix_start``/``suffix_buffers``, its
launch-invariant suffix (``suffix_start`` None when there is none). A
sampled or profile launch of a plan whose kernels are all
data-oblivious, with no sanitizer, runs that event trace instead of
``trace(kernel)``, may skip proven-periodic loop trips and replays the
suffix from the kernel's memo (see ``Executor._loop_fallback``,
``_BatchedRun._exec_while_c`` and ``_BatchedRun._run_suffix``); a
backend without artifacts always runs the full trace, every trip.
"""

from __future__ import annotations


class Backend:
    """Base class / protocol for execution backends."""

    #: Registry key; also recorded in step profiles.
    name = "?"

    def prepare(self, kernel):
        """Build the per-kernel artifact (once per kernel); may return None."""
        return None

    def trace(self, kernel):
        """Closure trace to execute, or None for interpretation."""
        return None


class InterpretedBackend(Backend):
    """Reference tree-walking interpreter: no per-kernel artifact."""

    name = "interpreted"


class CompiledBackend(Backend):
    """Per-instruction specialized closures (see repro.gpusim.compile)."""

    name = "compiled"

    def prepare(self, kernel):
        from .compile import compile_kernel  # lazy: avoids import cycle

        return compile_kernel(kernel)

    def trace(self, kernel):
        return self.prepare(kernel).trace


# -- registry -----------------------------------------------------------

_REGISTRY: dict = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under ``backend.name``."""
    if not backend.name or backend.name == "?":
        raise ValueError("backend must define a name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend ``name``. An engine spec is a backend
    name, so this is also the one engine-spec validator."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}: expected a backend in "
            f"{backend_names()}"
        ) from None


def backend_names() -> tuple:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


register_backend(CompiledBackend())
register_backend(InterpretedBackend())
