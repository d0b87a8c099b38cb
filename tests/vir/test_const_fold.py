"""Constant folding through the one ALU table.

:func:`repro.vir.analysis.eval_const_instr` folds ``BinOp``/``UnOp``
through :data:`repro.vir.instructions.ALU_IMPL`, the table the simulator
executes. On every opcode and a grid of scalars it must give what the
engine computes on register arrays holding those scalars, as a Python
scalar, and ``UNKNOWN`` wherever numpy would warn or fail or an operand
is not a known constant.
"""

import itertools

import numpy as np
import pytest

from repro.vir import (
    BINARY_OPS,
    UNARY_OPS,
    UNKNOWN,
    Arg,
    BinOp,
    Reg,
    UnOp,
    eval_const_instr,
)
from repro.vir.instructions import ALU_IMPL

#: Scalars of every register kind: ints (negatives, zero and the int64
#: extremes, where arithmetic wraps), floats and bools.
SCALARS = [-7, -1, 0, 1, 3, 64, 1 << 62, -(1 << 63), -2.5, 0.0, 1.5,
           False, True]

BITWISE = {"and", "or", "xor", "shl", "shr", "bnot"}


def _fold(op, *values):
    env = {f"x{k}": value for k, value in enumerate(values)}
    regs = [Reg(name) for name in env]
    cls = BinOp if len(regs) == 2 else UnOp
    instr = cls(Reg("d"), op, *regs)
    eval_const_instr(instr, env)
    return env["d"]


def _engine(op, *values):
    """``ALU_IMPL[op]`` on register arrays holding ``values`` (registers
    hold int64, float64 or bool), lane 0 as a Python scalar."""
    lanes = [np.full(4, value) for value in values]
    with np.errstate(all="ignore"):
        return np.asarray(ALU_IMPL[op](*lanes))[0].item()


def _may_be_unknown(op, values) -> bool:
    """Where numpy warns or fails: a zero divisor, the one overflowing
    integer division (``-2**63 / -1``), a bitwise op on a float."""
    if op in ("div", "mod") and values[1] == 0:
        return True
    if op == "div" and values == (-(1 << 63), -1):
        return True
    return op in BITWISE and any(isinstance(v, float) for v in values)


@pytest.mark.parametrize("op", sorted(BINARY_OPS | UNARY_OPS))
def test_fold_equals_the_engine(op):
    arity = 1 if op in UNARY_OPS else 2
    for values in itertools.product(SCALARS, repeat=arity):
        got = _fold(op, *values)
        if got is UNKNOWN:
            assert _may_be_unknown(op, values), (op, values)
            continue
        want = _engine(op, *values)
        assert got == want and type(got) is type(want), (op, values, got, want)


@pytest.mark.parametrize("op, a, b", [
    ("div", 3, 0), ("mod", 3, 0),
    ("div", 1.5, 0.0), ("mod", 1.5, 0.0),
    ("div", 3, False), ("mod", -7, 0.0),
])
def test_zero_divisor_is_unknown(op, a, b):
    assert _fold(op, a, b) is UNKNOWN


@pytest.mark.parametrize("op", ["add", "lt", "max", "div", "eq"])
def test_nan_operand_is_unknown(op):
    assert _fold(op, float("nan"), 1.0) is UNKNOWN
    assert _fold(op, 1, float("nan")) is UNKNOWN
    assert _fold("neg", float("nan")) is UNKNOWN


@pytest.mark.parametrize("op", sorted(BITWISE - {"bnot"}))
def test_bitwise_op_on_a_float_is_unknown(op):
    assert _fold(op, 1.5, 2) is UNKNOWN
    assert _fold(op, 2, 1.0) is UNKNOWN
    assert _fold("bnot", 1.5) is UNKNOWN


def test_int_fold_wraps_like_the_registers():
    """``shl 1, 62`` then ``mul 4`` is 2**64 in unbounded integers, but
    an int64 register holds 0."""
    env = {}
    eval_const_instr(BinOp(Reg("p"), "shl", 1, 62), env)
    eval_const_instr(BinOp(Reg("q"), "mul", Reg("p"), 4), env)
    lanes = ALU_IMPL["mul"](np.full(4, 1 << 62), np.full(4, 4))
    assert lanes.dtype == np.int64
    assert env == {"p": 1 << 62, "q": 0}
    assert env["q"] == lanes[0] and type(env["q"]) is int


def test_operand_not_a_known_constant_is_unknown():
    env = {"a": 3, "u": UNKNOWN}
    for operand in (Reg("u"), Reg("unwritten"), Arg("n")):
        eval_const_instr(BinOp(Reg("d"), "add", Reg("a"), operand), env)
        assert env["d"] is UNKNOWN
        eval_const_instr(UnOp(Reg("d"), "neg", operand), env)
        assert env["d"] is UNKNOWN


def test_env_keeps_python_scalars():
    env = {}
    eval_const_instr(BinOp(Reg("i"), "max", 4, 9), env)
    eval_const_instr(BinOp(Reg("f"), "div", 3.0, 2), env)
    eval_const_instr(BinOp(Reg("b"), "land", Reg("i"), True), env)
    eval_const_instr(UnOp(Reg("n"), "bnot", Reg("i")), env)
    assert env == {"i": 9, "f": 1.5, "b": True, "n": -10}
    assert [type(env[name]) for name in "ifbn"] == [int, float, bool, int]


def _c_div(a: int, b: int) -> int:
    """C's integer ``/``: the quotient truncated toward zero."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
@pytest.mark.parametrize("divisor", [2, -2, 3, -5])
def test_negative_operands_truncate_as_in_c(backend, divisor):
    """``/`` and ``%`` on negative ints give C's -7 / 2 == -3 and
    -7 % 2 == -1, in the engine (on lane-varying registers, which no
    fold sees) and in the constant fold alike."""
    from repro.gpusim import Executor
    from repro.vir import IRBuilder, Kernel, KernelStep

    b = IRBuilder()
    tid = b.special("tid")
    x = b.binop("sub", tid, 20)
    b.st_global("quot", tid, b.binop("div", x, divisor))
    b.st_global("rem", tid, b.binop("mod", x, divisor))
    kernel = Kernel("cdiv", buffers=["quot", "rem"], body=b.finish())
    executor = Executor(backend=backend)
    for name in ("quot", "rem"):
        executor.device.alloc(name, 64, dtype=np.int64)
    executor.run_kernel(KernelStep(
        kernel, grid=1, block=64, buffers={"quot": "quot", "rem": "rem"},
    ))
    xs = range(-20, 44)
    quotients = [_c_div(a, divisor) for a in xs]
    remainders = [a - divisor * _c_div(a, divisor) for a in xs]
    assert executor.device.get("quot").tolist() == quotients
    assert executor.device.get("rem").tolist() == remainders
    assert [_fold("div", a, divisor) for a in xs] == quotients
    assert [_fold("mod", a, divisor) for a in xs] == remainders
    assert (_fold("div", -7, 2), _fold("mod", -7, 2)) == (-3, -1)
