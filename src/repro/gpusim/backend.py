"""The two execution backends and their lookup.

A backend decides *how a kernel body executes* inside the run state
(:class:`~repro.gpusim.engine._BatchedRun`); events, sanitizer hooks,
masks and memory stay in the run state and are shared by both.

``compiled``
    Per-instruction specialized closures (:mod:`repro.gpusim.compile`):
    the engine of the runtime, the sweeps, the sanitizer sweep and the
    CLI. ``prepare(kernel)`` builds its artifact once per kernel (a
    kernel fact; the kernel-cache pre-warm calls it): the one closure
    trace that launches moving values and event-only sampled and
    profile launches share (see ``Executor._loop_fallback``).
``interpreted``
    The reference tree-walking interpreter, reached only through
    ``Executor(backend="interpreted")``: no artifact, every instruction
    and every trip simulated. The tests compare ``compiled`` against
    it: results, event counters and profiles must be bit-identical
    (after a sampled launch only the counters, since device buffers
    are unspecified).
"""

from __future__ import annotations


class InterpretedBackend:
    """Reference tree-walking interpreter: no per-kernel artifact."""

    def prepare(self, kernel):
        return None


class CompiledBackend:
    """Per-instruction specialized closures (see repro.gpusim.compile)."""

    def prepare(self, kernel):
        from .compile import compile_kernel  # lazy: avoids import cycle

        return compile_kernel(kernel)


_BACKENDS = {"compiled": CompiledBackend(), "interpreted": InterpretedBackend()}


def get_backend(name: str):
    """The backend ``name`` (``compiled`` or ``interpreted``)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}: expected one of {tuple(_BACKENDS)}"
        ) from None
