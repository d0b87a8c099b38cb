"""VIR — a structured virtual SIMT instruction set.

The synthesized codelets are lowered to VIR, which the GPU simulator in
:mod:`repro.gpusim` executes. VIR mirrors the slice of PTX the paper's
generated CUDA touches:

* per-thread virtual registers and ALU ops;
* launch constants (:class:`Arg`): operands read from the launch's
  arguments, like SASS reads kernel parameters from the constant bank;
* special registers (``tid``, ``ctaid``, ``ntid``, ``nctaid``,
  ``laneid``, ``warpid``);
* global/shared loads and stores (with optional vectorized global loads,
  the CUB "vector loads" optimization [37]);
* atomics on global and shared memory with device/block scope
  (Section III-A/III-B of the paper);
* warp shuffles (``shfl.down``/``up``/``xor``/``idx``, Section III-C);
* block barriers;
* **structured** control flow (``If``/``While``) instead of raw branches —
  this gives the simulator exact SIMT reconvergence semantics via lane
  masks, the same model hardware implements with a reconvergence stack.

Instructions are plain dataclasses; the printer in
:mod:`repro.vir.printer` renders a stable text format used in golden
tests. What each ALU opcode computes is defined once, in
:data:`ALU_IMPL`, and what each atomic computes in :data:`ATOMIC_IMPL`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


# -- operands -----------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """A per-thread virtual register."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate constant (int, float, or bool)."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Arg:
    """A launch constant: the value of ``KernelStep.args[name]``.

    Unlike :class:`LdParam` it issues no instruction and occupies no
    register; it behaves exactly like the :class:`Imm` holding the same
    value, except that one kernel serves every value (the launch
    geometry of a sweep, say). Block-uniform, unknown at compile time.
    """

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


Operand = (Reg, Imm, Arg)


def as_operand(value):
    """Coerce Python scalars to :class:`Imm`; pass operands through."""
    if isinstance(value, Operand):
        return value
    if isinstance(value, (bool, int, float)):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as a VIR operand")


# -- opcode tables --------------------------------------------------------


def _coerce_bool(value):
    """C semantics: predicates participate in arithmetic as 0/1 ints."""
    if isinstance(value, np.ndarray) and value.dtype == np.bool_:
        return value.astype(np.int64)
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    return value


def register_dtype(dtype):
    """The dtype a value of ``dtype`` takes in a register: registers hold
    int64 / float64 / bool, so integer arithmetic wraps as int64 two's
    complement."""
    if dtype.kind in "iu":
        return np.int64
    if dtype.kind == "b":
        return np.bool_
    return np.float64


def is_integer(value) -> bool:
    """Whether ``value`` (an array or a scalar) holds integers or bools."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iub"
    return isinstance(value, (int, np.integer, bool, np.bool_))


def _div(a, b):
    """``/`` on floats; on ints C's division, which truncates toward
    zero: ``a - fmod(a, b)`` is a multiple of ``b``, so its floor
    division is exact."""
    if is_integer(a) and is_integer(b):
        return np.floor_divide(a - np.fmod(a, b), b)
    return a / b


def _mod(a, b):
    """``%``: on ints C's remainder, which takes the sign of ``a``."""
    if is_integer(a) and is_integer(b):
        return np.fmod(a, b)
    return operator.mod(a, b)


def _arith(fn):
    """Non-comparison ops see predicates as 0/1 ints (C semantics)."""

    def apply(a, b):
        return fn(_coerce_bool(a), _coerce_bool(b))

    return apply


#: op -> numpy implementation of every ``BinOp`` and ``UnOp`` opcode: the
#: one definition of what each computes. The simulator's interpreter and
#: closure compiler run it on register arrays, and the constant analysis
#: (:func:`repro.vir.analysis.eval_const_instr`) folds scalars through it.
ALU_IMPL = {
    "add": _arith(operator.add),
    "sub": _arith(operator.sub),
    "mul": _arith(operator.mul),
    "div": _arith(_div),
    "mod": _arith(_mod),
    "min": _arith(np.minimum),
    "max": _arith(np.maximum),
    "and": _arith(np.bitwise_and),
    "or": _arith(np.bitwise_or),
    "xor": _arith(np.bitwise_xor),
    "shl": _arith(np.left_shift),
    "shr": _arith(np.right_shift),
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
    "land": np.logical_and,
    "lor": np.logical_or,
    "neg": lambda a: -np.asarray(_coerce_bool(a)),
    "lnot": np.logical_not,
    "bnot": lambda a: np.bitwise_not(np.asarray(_coerce_bool(a))),
}

UNARY_OPS = frozenset({"neg", "lnot", "bnot"})

BINARY_OPS = frozenset(ALU_IMPL) - UNARY_OPS

#: What each atomic opcode computes: the ufunc whose unbuffered ``.at``
#: applies every lane's update to its address, same-address ones too.
ATOMIC_IMPL = {
    "add": np.add,
    "sub": np.subtract,
    "min": np.minimum,
    "max": np.maximum,
}

ATOMIC_OPS = frozenset(ATOMIC_IMPL)

SHFL_MODES = frozenset({"down", "up", "xor", "idx"})

#: Special register -> its variance: the widest span over which its
#: value differs. ``launch`` is one value in every thread of a launch,
#: ``block`` one per block, ``lane`` one per lane (see
#: :attr:`repro.vir.analysis.KernelFacts.variance`).
SPECIAL_LEVELS = {"tid": "lane", "laneid": "lane", "warpid": "lane",
                  "ctaid": "block", "ntid": "launch", "nctaid": "launch"}

SPECIAL_KINDS = frozenset(SPECIAL_LEVELS)

ATOMIC_SCOPES = frozenset({"device", "block", "system"})

#: Threads per warp: the lanes of one shuffle, and the value of
#: ``Vector.MaxSize()``/``Size()`` (Figure 2's ``warpSize``).
WARP = 32

#: Shuffle widths hardware accepts (power-of-two warp segments).
SHFL_WIDTHS = frozenset({1, 2, 4, 8, 16, 32})


# -- instructions ---------------------------------------------------------


@dataclass
class Instr:
    """Base class for all VIR instructions."""


@dataclass
class BinOp(Instr):
    dst: Reg
    op: str
    a: object
    b: object

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")
        self.a = as_operand(self.a)
        self.b = as_operand(self.b)


@dataclass
class UnOp(Instr):
    dst: Reg
    op: str
    a: object

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")
        self.a = as_operand(self.a)


@dataclass
class Mov(Instr):
    dst: Reg
    a: object

    def __post_init__(self):
        self.a = as_operand(self.a)


@dataclass
class Sel(Instr):
    """``dst = cond ? a : b`` — branch-free select."""

    dst: Reg
    cond: object
    a: object
    b: object

    def __post_init__(self):
        self.cond = as_operand(self.cond)
        self.a = as_operand(self.a)
        self.b = as_operand(self.b)


@dataclass
class Special(Instr):
    """Read a special (hardware) register."""

    dst: Reg
    kind: str

    def __post_init__(self):
        if self.kind not in SPECIAL_KINDS:
            raise ValueError(f"unknown special register {self.kind!r}")


@dataclass
class LdParam(Instr):
    """Load a host-provided scalar kernel parameter (uniform)."""

    dst: Reg
    name: str


@dataclass
class LdGlobal(Instr):
    """Load ``width`` consecutive elements starting at ``idx``.

    ``dst`` is a single register when ``width == 1``, otherwise a list of
    ``width`` registers (the float4-style vectorized load).
    """

    dst: object
    buf: str
    idx: object
    width: int = 1

    def __post_init__(self):
        self.idx = as_operand(self.idx)
        if self.width == 1:
            if not isinstance(self.dst, Reg):
                raise ValueError("scalar LdGlobal needs a single Reg dst")
        else:
            if not (isinstance(self.dst, list) and len(self.dst) == self.width):
                raise ValueError("vector LdGlobal needs one dst per element")


@dataclass
class StGlobal(Instr):
    buf: str
    idx: object
    src: object

    def __post_init__(self):
        self.idx = as_operand(self.idx)
        self.src = as_operand(self.src)


@dataclass
class LdShared(Instr):
    dst: Reg
    buf: str
    idx: object

    def __post_init__(self):
        self.idx = as_operand(self.idx)


@dataclass
class StShared(Instr):
    buf: str
    idx: object
    src: object

    def __post_init__(self):
        self.idx = as_operand(self.idx)
        self.src = as_operand(self.src)


@dataclass
class AtomGlobal(Instr):
    """Atomic read-modify-write on global memory.

    ``scope`` follows the Pascal scoped-atomics model: ``device`` is the
    default; ``block`` maps to ``atomicAdd_block``; ``system`` to
    ``atomicAdd_system`` (Section II-A-2).
    """

    op: str
    buf: str
    idx: object
    src: object
    scope: str = "device"

    def __post_init__(self):
        if self.op not in ATOMIC_OPS:
            raise ValueError(f"unknown atomic op {self.op!r}")
        if self.scope not in ATOMIC_SCOPES:
            raise ValueError(f"unknown atomic scope {self.scope!r}")
        self.idx = as_operand(self.idx)
        self.src = as_operand(self.src)


@dataclass
class AtomShared(Instr):
    op: str
    buf: str
    idx: object
    src: object

    def __post_init__(self):
        if self.op not in ATOMIC_OPS:
            raise ValueError(f"unknown atomic op {self.op!r}")
        self.idx = as_operand(self.idx)
        self.src = as_operand(self.src)


@dataclass
class Shfl(Instr):
    """Warp shuffle: exchange register values inside one warp."""

    dst: Reg
    src: Reg
    mode: str
    offset: object
    width: int = 32

    def __post_init__(self):
        if self.mode not in SHFL_MODES:
            raise ValueError(f"unknown shuffle mode {self.mode!r}")
        self.offset = as_operand(self.offset)
        if self.width not in SHFL_WIDTHS:
            raise ValueError("shuffle width must be a power of two <= 32")


@dataclass
class Bar(Instr):
    """Block-wide barrier (``__syncthreads``)."""


@dataclass
class If(Instr):
    cond: Reg
    then: list = field(default_factory=list)
    otherwise: list = field(default_factory=list)


@dataclass
class While(Instr):
    """Structured loop.

    Each iteration first executes ``cond_block`` (which must set
    ``cond``), then — for lanes where ``cond`` holds — the ``body``.
    Lanes whose condition is false stay inactive until every lane in the
    block is done (SIMT reconvergence).
    """

    cond_block: list
    cond: Reg
    body: list = field(default_factory=list)


@dataclass
class Comment(Instr):
    text: str


# -- operands and destinations ---------------------------------------------

#: The operand fields each instruction reads, in evaluation order (an
#: ``If`` or ``While`` reads only its condition; its regions are bodies).
_READ_FIELDS = {
    BinOp: ("a", "b"),
    UnOp: ("a",),
    Mov: ("a",),
    Sel: ("cond", "a", "b"),
    LdGlobal: ("idx",),
    StGlobal: ("idx", "src"),
    LdShared: ("idx",),
    StShared: ("idx", "src"),
    AtomGlobal: ("idx", "src"),
    AtomShared: ("idx", "src"),
    Shfl: ("src", "offset"),
    If: ("cond",),
    While: ("cond",),
}

#: Instructions with a ``dst`` (a list of registers for a vector load).
_WRITERS = frozenset({BinOp, UnOp, Mov, Sel, Special, LdParam, LdGlobal,
                      LdShared, Shfl})


def operands(instr) -> dict:
    """``field -> operand`` for every operand ``instr`` reads, immediates
    included."""
    fields = _READ_FIELDS.get(type(instr), ())
    return {name: getattr(instr, name) for name in fields}


def reads(instr) -> list:
    """The registers and launch constants ``instr`` reads."""
    return [op for op in operands(instr).values() if isinstance(op, (Reg, Arg))]


def writes(instr) -> list:
    """The registers ``instr`` itself writes (not those of its regions)."""
    if type(instr) not in _WRITERS:
        return []
    return instr.dst if isinstance(instr.dst, list) else [instr.dst]


def walk_instrs(body: list):
    """Yield every instruction in a body, descending into regions."""
    for instr in body:
        yield instr
        if isinstance(instr, If):
            yield from walk_instrs(instr.then)
            yield from walk_instrs(instr.otherwise)
        elif isinstance(instr, While):
            yield from walk_instrs(instr.cond_block)
            yield from walk_instrs(instr.body)
