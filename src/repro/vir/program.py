"""Kernels and host-side launch plans.

A :class:`Kernel` is a VIR body plus its interface (scalar params, global
buffer params, shared-memory declarations). A :class:`Plan` is the host
orchestration for one reduction call: scratch allocations, memsets, and a
sequence of kernel launches — the analogue of the ``Reduce_Grid`` host
code in Listings 1 and 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Arg, LdParam, reads, walk_instrs


@dataclass
class SharedDecl:
    """One ``__shared__`` buffer of ``size`` elements."""

    name: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"shared buffer {self.name!r} needs size >= 1")


@dataclass
class Kernel:
    name: str
    #: scalar param names, read by ``ld.param`` or as :class:`Arg`
    params: list = field(default_factory=list)
    buffers: list = field(default_factory=list)  # global buffer param names
    shared: list = field(default_factory=list)  # SharedDecl
    body: list = field(default_factory=list)  # Instr
    meta: dict = field(default_factory=dict)
    #: Facts derived from the kernel, by :meth:`fact` key: ``static``
    #: (every static-analysis fact, one
    #: :class:`~repro.vir.analysis.KernelFacts`) from
    #: :func:`repro.vir.analysis.kernel_facts`, ``valid`` and ``suffix``
    #: (the launch-invariant suffix memo) from
    #: :mod:`repro.gpusim.engine`, ``compiled`` (the closure trace)
    #: from :mod:`repro.gpusim.compile`. Kernels are
    #: immutable once built or executed, so a fact never goes stale;
    #: equality, repr and ``dataclasses.replace`` ignore it.
    facts: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def fact(self, key: str, build):
        """``build(self)``, computed on first use and kept in :attr:`facts`."""
        if key not in self.facts:
            self.facts[key] = build(self)
        return self.facts[key]

    def shared_bytes(self, element_size: int = 4) -> int:
        return sum(decl.size for decl in self.shared) * element_size

    def instruction_count(self) -> int:
        return sum(1 for _ in walk_instrs(self.body))

    def validate(self) -> None:
        """Cheap structural checks; raises ``ValueError`` on problems."""
        shared_names = {decl.name for decl in self.shared}
        if len(shared_names) != len(self.shared):
            raise ValueError(f"kernel {self.name!r}: duplicate shared buffers")
        buffer_names = set(self.buffers)
        param_names = set(self.params)
        for instr in walk_instrs(self.body):
            names = [instr.name] if isinstance(instr, LdParam) else [
                op.name for op in reads(instr) if isinstance(op, Arg)
            ]
            for name in names:
                if name not in param_names:
                    raise ValueError(
                        f"kernel {self.name!r}: unknown param {name!r}"
                    )
            buf = getattr(instr, "buf", None)
            if buf is None:
                continue
            kind = type(instr).__name__
            if "Shared" in kind:
                if buf not in shared_names:
                    raise ValueError(
                        f"kernel {self.name!r}: unknown shared buffer {buf!r}"
                    )
            else:
                if buf not in buffer_names:
                    raise ValueError(
                        f"kernel {self.name!r}: unknown global buffer {buf!r}"
                    )


# -- host plan -------------------------------------------------------------


@dataclass
class MemsetStep:
    """Fill a device buffer with a constant before launching."""

    buffer: str
    value: float = 0.0


@dataclass
class KernelStep:
    """One kernel launch: ``kernel<<<grid, block>>>(args, buffers)``."""

    kernel: Kernel
    grid: int
    block: int
    args: dict = field(default_factory=dict)  # param name -> host scalar
    buffers: dict = field(default_factory=dict)  # kernel buffer -> device name

    def __post_init__(self):
        if self.grid < 1 or self.block < 1:
            raise ValueError(
                f"launch of {self.kernel.name!r} needs positive grid/block, "
                f"got <<<{self.grid}, {self.block}>>>"
            )
        missing = set(self.kernel.params) - set(self.args)
        if missing:
            raise ValueError(
                f"launch of {self.kernel.name!r} missing args: {sorted(missing)}"
            )
        unbound = set(self.kernel.buffers) - set(self.buffers)
        if unbound:
            raise ValueError(
                f"launch of {self.kernel.name!r} missing buffers: {sorted(unbound)}"
            )


@dataclass
class Plan:
    """Host orchestration for one synthesized reduction call."""

    name: str
    steps: list = field(default_factory=list)  # MemsetStep | KernelStep
    scratch: dict = field(default_factory=dict)  # device buffer name -> size
    result_buffer: str = "out"
    result_index: int = 0
    meta: dict = field(default_factory=dict)

    def kernel_steps(self) -> list:
        return [step for step in self.steps if isinstance(step, KernelStep)]

    def num_kernel_launches(self) -> int:
        return len(self.kernel_steps())

    def validate(self) -> None:
        for step in self.kernel_steps():
            step.kernel.validate()
