"""VIR assembler: parse the printer's text format back into kernels.

Together with :mod:`repro.vir.printer` this gives VIR a stable textual
round trip — useful for golden tests, for inspecting synthesized
kernels, and for hand-authoring small kernels in text (the way one
would write PTX snippets).

Grammar = exactly what :func:`repro.vir.printer.format_kernel` emits.
"""

from __future__ import annotations

import re

from .instructions import (
    Arg,
    AtomGlobal,
    AtomShared,
    Bar,
    BinOp,
    BINARY_OPS,
    Comment,
    If,
    Imm,
    LdGlobal,
    LdParam,
    LdShared,
    Mov,
    Reg,
    Sel,
    Shfl,
    Special,
    SPECIAL_KINDS,
    StGlobal,
    StShared,
    UNARY_OPS,
    UnOp,
    While,
)
from .program import Kernel, SharedDecl


class AssemblyError(Exception):
    """Raised on malformed VIR text."""

    def __init__(self, message: str, line_no: int = None, line: str = None):
        location = f" (line {line_no}: {line.strip()!r})" if line else ""
        super().__init__(f"{message}{location}")


_HEADER = re.compile(
    r"^\.kernel\s+(?P<name>\w+)\(params:\s*(?P<params>[^;]*);"
    r"\s*buffers:\s*(?P<buffers>[^)]*)\)$"
)
_SHARED = re.compile(r"^\.shared\s+(?P<name>\w+)\[(?P<size>\d+)\]$")
_ADDR = re.compile(r"^\[(?P<buf>\w+)\s*\+\s*(?P<idx>.+)\]$")


def _parse_operand(text: str):
    text = text.strip()
    if text.startswith("%"):
        return Reg(text[1:])
    if re.fullmatch(r"\$\w+", text):
        return Arg(text[1:])
    if text == "True":
        return Imm(True)
    if text == "False":
        return Imm(False)
    try:
        return Imm(int(text))
    except ValueError:
        pass
    try:
        return Imm(float(text))
    except ValueError:
        raise AssemblyError(f"bad operand {text!r}") from None


def _parse_reg(text: str) -> Reg:
    operand = _parse_operand(text)
    if not isinstance(operand, Reg):
        raise AssemblyError(f"expected a register, got {text!r}")
    return operand


def _parse_addr(text: str):
    match = _ADDR.match(text.strip())
    if not match:
        raise AssemblyError(f"bad address {text!r}")
    return match.group("buf"), _parse_operand(match.group("idx"))


def _split_args(text: str):
    return [part.strip() for part in text.split(",") if part.strip()]


class _Parser:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        line = self.peek()
        if line is None:
            raise AssemblyError("unexpected end of input")
        self.pos += 1
        return line

    # -- structure ------------------------------------------------------

    def parse_kernel(self) -> Kernel:
        header = self.next().strip()
        match = _HEADER.match(header)
        if not match:
            raise AssemblyError(f"bad kernel header {header!r}")
        params = [] if match.group("params").strip() == "-" else _split_args(
            match.group("params")
        )
        buffers = [] if match.group("buffers").strip() == "-" else _split_args(
            match.group("buffers")
        )
        shared = []
        while self.peek() is not None and self.peek().strip().startswith(".shared"):
            decl = _SHARED.match(self.next().strip())
            if not decl:
                raise AssemblyError("bad .shared declaration")
            shared.append(SharedDecl(decl.group("name"), int(decl.group("size"))))
        body = self.parse_body(stop_tokens=())
        return Kernel(
            name=match.group("name"),
            params=params,
            buffers=buffers,
            shared=shared,
            body=body,
        )

    def parse_body(self, stop_tokens) -> list:
        instrs = []
        while True:
            line = self.peek()
            if line is None:
                if stop_tokens:
                    raise AssemblyError("unterminated region")
                return instrs
            stripped = line.strip()
            if stripped in stop_tokens or any(
                stripped.startswith(token) for token in stop_tokens if token
            ):
                return instrs
            self.next()
            if not stripped:
                continue
            instrs.append(self.parse_instr(stripped))

    def parse_instr(self, text: str):
        if text.startswith(";"):
            return Comment(text[1:].strip())
        if text == "bar.sync":
            return Bar()
        if text.startswith("if "):
            return self._parse_if(text)
        if text.startswith("while {"):
            return self._parse_while()
        if text.startswith("st.global"):
            addr, src = self._addr_and_value(text, "st.global")
            return StGlobal(addr[0], addr[1], src)
        if text.startswith("st.shared"):
            addr, src = self._addr_and_value(text, "st.shared")
            return StShared(addr[0], addr[1], src)
        if text.startswith("atom.shared."):
            op, addr, src = self._parse_atom(text, "atom.shared.")
            return AtomShared(op, addr[0], addr[1], src)
        if text.startswith("atom.global."):
            rest = text[len("atom.global."):]
            scope, rest = rest.split(".", 1)
            op, addr, src = self._parse_atom("atom." + rest, "atom.")
            return AtomGlobal(op, addr[0], addr[1], src, scope=scope)
        if "=" in text:
            return self._parse_assignment(text)
        raise AssemblyError(f"cannot parse instruction {text!r}")

    def _addr_and_value(self, text: str, mnemonic: str):
        rest = text[len(mnemonic):].strip()
        addr_text, _, value_text = rest.rpartition(",")
        return _parse_addr(addr_text), _parse_operand(value_text)

    def _parse_atom(self, text: str, prefix: str):
        rest = text[len(prefix):]
        op, rest = rest.split(" ", 1)
        addr_text, _, value_text = rest.rpartition(",")
        return op, _parse_addr(addr_text), _parse_operand(value_text)

    def _parse_assignment(self, text: str):
        lhs_text, rhs = (part.strip() for part in text.split("=", 1))
        if lhs_text.startswith("{"):
            regs = [_parse_reg(r) for r in _split_args(lhs_text.strip("{}"))]
            match = re.match(r"ld\.global\.v(\d+)\s+(.*)", rhs)
            if not match:
                raise AssemblyError(f"bad vector load {rhs!r}")
            buf, idx = _parse_addr(match.group(2))
            return LdGlobal(regs, buf, idx, width=int(match.group(1)))
        dst = _parse_reg(lhs_text)
        if rhs.startswith("%") and rhs[1:] in SPECIAL_KINDS:
            return Special(dst, rhs[1:])
        if rhs.startswith("ld.param"):
            name = re.match(r"ld\.param\s+\[(\w+)\]", rhs)
            if not name:
                raise AssemblyError(f"bad ld.param {rhs!r}")
            return LdParam(dst, name.group(1))
        if rhs.startswith("ld.global"):
            buf, idx = _parse_addr(rhs[len("ld.global"):].strip())
            return LdGlobal(dst, buf, idx)
        if rhs.startswith("ld.shared"):
            buf, idx = _parse_addr(rhs[len("ld.shared"):].strip())
            return LdShared(dst, buf, idx)
        if rhs.startswith("shfl."):
            match = re.match(
                r"shfl\.(\w+)\s+(%\w+),\s*(.+),\s*w=(\d+)", rhs
            )
            if not match:
                raise AssemblyError(f"bad shuffle {rhs!r}")
            return Shfl(
                dst,
                _parse_reg(match.group(2)),
                match.group(1),
                _parse_operand(match.group(3)),
                width=int(match.group(4)),
            )
        if rhs.startswith("mov "):
            return Mov(dst, _parse_operand(rhs[4:]))
        if rhs.startswith("sel "):
            args = _split_args(rhs[4:])
            if len(args) != 3:
                raise AssemblyError(f"sel takes 3 operands, got {rhs!r}")
            return Sel(dst, *[_parse_operand(a) for a in args])
        mnemonic, _, operands = rhs.partition(" ")
        if mnemonic in BINARY_OPS:
            args = _split_args(operands)
            if len(args) != 2:
                raise AssemblyError(f"{mnemonic} takes 2 operands, got {rhs!r}")
            return BinOp(dst, mnemonic, *[_parse_operand(a) for a in args])
        if mnemonic in UNARY_OPS:
            return UnOp(dst, mnemonic, _parse_operand(operands))
        raise AssemblyError(f"unknown instruction {rhs!r}")

    def _parse_if(self, text: str):
        match = re.match(r"if\s+(%\w+)\s*\{$", text)
        if not match:
            raise AssemblyError(f"bad if header {text!r}")
        cond = _parse_reg(match.group(1))
        then = self.parse_body(stop_tokens=("}", "} else {"))
        closer = self.next().strip()
        otherwise = []
        if closer == "} else {":
            otherwise = self.parse_body(stop_tokens=("}",))
            closer = self.next().strip()
        if closer != "}":
            raise AssemblyError(f"expected '}}', got {closer!r}")
        return If(cond, then, otherwise)

    def _parse_while(self):
        cond_block = self.parse_body(stop_tokens=("} test",))
        test_line = self.next().strip()
        match = re.match(r"\}\s*test\s+(%\w+)\s*\{$", test_line)
        if not match:
            raise AssemblyError(f"bad while test {test_line!r}")
        cond = _parse_reg(match.group(1))
        body = self.parse_body(stop_tokens=("}",))
        closer = self.next().strip()
        if closer != "}":
            raise AssemblyError(f"expected '}}', got {closer!r}")
        return While(cond_block, cond, body)


def parse_kernel(text: str) -> Kernel:
    """Parse one kernel from its printed text form."""
    lines = [line for line in text.splitlines() if line.strip()]
    parser = _Parser(lines)
    kernel = parser.parse_kernel()
    if parser.peek() is not None:
        raise AssemblyError(f"trailing input: {parser.peek().strip()!r}")
    return kernel
