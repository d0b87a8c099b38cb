"""Convenience builder for emitting VIR instruction sequences."""

from __future__ import annotations

from .instructions import (
    AtomGlobal,
    AtomShared,
    Bar,
    BinOp,
    Comment,
    If,
    LdGlobal,
    LdParam,
    LdShared,
    Mov,
    Reg,
    Sel,
    Shfl,
    Special,
    StGlobal,
    StShared,
    UnOp,
    While,
    as_operand,
)


class IRBuilder:
    """Emits into a current instruction list; supports nested regions.

    Typical use::

        b = IRBuilder()
        tid = b.special("tid")
        with b.if_(b.binop("lt", tid, n)):
            value = b.ld_global("in", tid)
        ...
        kernel_body = b.finish()
    """

    def __init__(self, prefix: str = "r"):
        self._prefix = prefix
        self._counter = 0
        self._body = []
        self._stack = [self._body]

    # -- registers ------------------------------------------------------

    def fresh(self, hint: str = None) -> Reg:
        self._counter += 1
        name = f"{hint or self._prefix}{self._counter}"
        return Reg(name)

    # -- emission ---------------------------------------------------------

    @property
    def current(self) -> list:
        return self._stack[-1]

    def emit(self, instr):
        self.current.append(instr)
        return instr

    def comment(self, text: str) -> None:
        self.emit(Comment(text))

    def binop(self, op: str, a, b, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(BinOp(dst, op, a, b))
        return dst

    def unop(self, op: str, a, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(UnOp(dst, op, a))
        return dst

    def mov(self, a, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(Mov(dst, a))
        return dst

    def sel(self, cond, a, b, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(Sel(dst, cond, a, b))
        return dst

    def special(self, kind: str, dst: Reg = None) -> Reg:
        dst = dst or self.fresh(kind)
        self.emit(Special(dst, kind))
        return dst

    def ld_param(self, name: str, dst: Reg = None) -> Reg:
        dst = dst or self.fresh(name)
        self.emit(LdParam(dst, name))
        return dst

    def ld_global(self, buf: str, idx, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(LdGlobal(dst, buf, idx))
        return dst

    def ld_global_vec(self, buf: str, idx, width: int) -> list:
        dsts = [self.fresh() for _ in range(width)]
        self.emit(LdGlobal(dsts, buf, idx, width=width))
        return dsts

    def st_global(self, buf: str, idx, src) -> None:
        self.emit(StGlobal(buf, idx, src))

    def ld_shared(self, buf: str, idx, dst: Reg = None) -> Reg:
        dst = dst or self.fresh()
        self.emit(LdShared(dst, buf, idx))
        return dst

    def st_shared(self, buf: str, idx, src) -> None:
        self.emit(StShared(buf, idx, src))

    def atom_global(self, op: str, buf: str, idx, src, scope: str = "device"):
        self.emit(AtomGlobal(op, buf, idx, src, scope))

    def atom_shared(self, op: str, buf: str, idx, src):
        self.emit(AtomShared(op, buf, idx, src))

    def shfl(self, src: Reg, mode: str, offset, width: int = 32, dst: Reg = None) -> Reg:
        dst = dst or self.fresh("shfl")
        self.emit(Shfl(dst, src, mode, offset, width))
        return dst

    def bar(self) -> None:
        self.emit(Bar())

    # -- structured regions ------------------------------------------------

    def if_(self, cond: Reg) -> "_Region":
        instr = If(cond=cond)
        self.emit(instr)
        return _Region(self, instr.then)

    def if_else(self, cond: Reg):
        """Returns ``(if_instr, then_region, else_region)``."""
        instr = If(cond=cond)
        self.emit(instr)
        return instr, _Region(self, instr.then), _Region(self, instr.otherwise)

    def while_(self, cond_reg: Reg) -> "_WhileRegions":
        instr = While(cond_block=[], cond=cond_reg, body=[])
        self.emit(instr)
        return _WhileRegions(
            cond=_Region(self, instr.cond_block), body=_Region(self, instr.body)
        )

    def finish(self) -> list:
        if len(self._stack) != 1:
            raise RuntimeError("unclosed VIR region at finish()")
        return self._body


class _Region:
    """Context manager redirecting emission into a nested region."""

    def __init__(self, builder: IRBuilder, target: list):
        self._builder = builder
        self._target = target

    def __enter__(self):
        self._builder._stack.append(self._target)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = self._builder._stack.pop()
        if popped is not self._target:
            raise RuntimeError("mismatched VIR region nesting")
        return False


class _WhileRegions:
    def __init__(self, cond: _Region, body: _Region):
        self.cond = cond
        self.body = body


def imm(value):
    """Public alias for creating immediates in callers' code."""
    return as_operand(value)
