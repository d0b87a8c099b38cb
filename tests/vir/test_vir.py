"""Unit tests for the VIR instruction set, builder, printer, and programs."""

import pytest

from repro.vir import (
    Arg,
    AtomGlobal,
    AtomShared,
    Bar,
    BinOp,
    Comment,
    If,
    Imm,
    Instr,
    IRBuilder,
    Kernel,
    KernelStep,
    LdGlobal,
    LdParam,
    LdShared,
    MemsetStep,
    Mov,
    Plan,
    Reg,
    Sel,
    SharedDecl,
    Shfl,
    Special,
    StGlobal,
    StShared,
    UnOp,
    While,
    as_operand,
    format_instr,
    format_kernel,
    format_plan,
    walk_instrs,
)
from repro.vir.instructions import reads, writes


def _registers(kernel) -> set:
    return {
        value.name
        for instr in walk_instrs(kernel.body)
        for value in reads(instr) + writes(instr)
        if isinstance(value, Reg)
    }


class TestOperands:
    def test_as_operand_coerces_scalars(self):
        assert as_operand(3) == Imm(3)
        assert as_operand(2.5) == Imm(2.5)
        assert as_operand(True) == Imm(True)

    def test_as_operand_passthrough(self):
        reg = Reg("x")
        assert as_operand(reg) is reg

    def test_as_operand_rejects_junk(self):
        with pytest.raises(TypeError):
            as_operand("nope")

    def test_launch_constant_is_an_operand(self):
        arg = Arg("epb")
        assert as_operand(arg) is arg
        assert format_instr(BinOp(Reg("d"), "mul", Reg("t"), arg)) == (
            "%d = mul %t, $epb"
        )

    def test_launch_constant_costs_no_register(self):
        b = IRBuilder()
        tid = b.special("tid")
        b.binop("mul", tid, Arg("epb"))
        with_arg = Kernel("k", params=["epb"], body=b.finish())
        b = IRBuilder()
        tid = b.special("tid")
        b.binop("mul", tid, 7)
        with_imm = Kernel("k", body=b.finish())
        assert _registers(with_arg) == _registers(with_imm)
        assert with_arg.instruction_count() == with_imm.instruction_count()


def _every_instruction():
    """One instance of every instruction class, with a distinct register
    or launch constant in every operand and destination field."""
    r = [Reg(f"r{i}") for i in range(9)]
    a = [Arg(f"a{i}") for i in range(3)]
    return [
        BinOp(r[0], "add", r[1], a[0]),
        UnOp(r[0], "neg", a[0]),
        Mov(r[0], a[0]),
        Sel(r[0], r[1], a[0], r[2]),
        Special(r[0], "tid"),
        LdParam(r[0], "n"),
        LdGlobal([r[0], r[1]], "in", a[0], width=2),
        LdGlobal(r[0], "in", r[1]),
        StGlobal("out", r[0], a[0]),
        LdShared(r[0], "s", a[0]),
        StShared("s", a[0], r[0]),
        AtomGlobal("add", "out", a[0], r[0]),
        AtomShared("add", "s", r[0], a[0]),
        Shfl(r[0], r[1], "down", a[0]),
        Bar(),
        If(r[0], then=[Mov(r[1], r[2])], otherwise=[Mov(r[3], 1)]),
        While([Mov(r[1], r[2])], r[0], body=[Mov(r[3], a[1])]),
        Comment("text"),
    ]


def _scan(instr) -> list:
    """Every Reg/Arg value in an instruction's own fields."""
    found = []
    for value in vars(instr).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, (Reg, Arg)):
                found.append(item)
    return found


class TestReadsWrites:
    def test_every_class_is_covered(self):
        assert {type(i) for i in _every_instruction()} == set(
            Instr.__subclasses__()
        )

    @pytest.mark.parametrize(
        "instr", _every_instruction(), ids=lambda i: type(i).__name__
    )
    def test_reads_and_writes_cover_every_field(self, instr):
        """No operand or destination field escapes the analyses."""
        read, written = reads(instr), writes(instr)
        assert sorted(map(str, read + written)) == sorted(map(str, _scan(instr)))
        assert all(isinstance(reg, Reg) for reg in written)


class TestInstructionValidation:
    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp(Reg("d"), "frobnicate", 1, 2)

    def test_unknown_atomic_rejected(self):
        with pytest.raises(ValueError):
            AtomGlobal("xor", "buf", 0, 1)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            AtomGlobal("add", "buf", 0, 1, scope="warp")

    def test_shuffle_width_power_of_two(self):
        Shfl(Reg("d"), Reg("s"), "down", 1, width=16)
        with pytest.raises(ValueError):
            Shfl(Reg("d"), Reg("s"), "down", 1, width=33)

    def test_vector_load_dst_shape(self):
        with pytest.raises(ValueError):
            LdGlobal(Reg("d"), "buf", 0, width=4)
        LdGlobal([Reg("a"), Reg("b")], "buf", 0, width=2)

    def test_shared_decl_positive(self):
        with pytest.raises(ValueError):
            SharedDecl("s", 0)


class TestBuilder:
    def test_fresh_registers_unique(self):
        b = IRBuilder()
        regs = {b.fresh().name for _ in range(100)}
        assert len(regs) == 100

    def test_regions_nest_and_restore(self):
        b = IRBuilder()
        cond = b.binop("lt", b.special("tid"), 10)
        with b.if_(cond):
            b.mov(1)
        body = b.finish()
        assert isinstance(body[-1], If)
        assert len(body[-1].then) == 1

    def test_unclosed_region_detected(self):
        b = IRBuilder()
        cond = b.fresh()
        region = b.if_(cond)
        region.__enter__()
        with pytest.raises(RuntimeError):
            b.finish()

    def test_while_regions(self):
        b = IRBuilder()
        cond = b.fresh("c")
        loop = b.while_(cond)
        with loop.cond:
            b.mov(False, dst=cond)
        with loop.body:
            b.mov(0)
        body = b.finish()
        assert isinstance(body[-1], While)
        assert len(body[-1].cond_block) == 1


class TestKernel:
    def _kernel(self):
        b = IRBuilder()
        tid = b.special("tid")
        n = b.ld_param("n")
        ok = b.binop("lt", tid, n)
        with b.if_(ok):
            value = b.ld_global("in", tid)
            b.st_shared("smem", tid, value)
            b.bar()
        return Kernel(
            "k",
            params=["n"],
            buffers=["in"],
            shared=[SharedDecl("smem", 64)],
            body=b.finish(),
        )

    def test_instruction_count_descends_regions(self):
        kernel = self._kernel()
        assert kernel.instruction_count() == len(list(walk_instrs(kernel.body)))
        assert kernel.instruction_count() > 4

    def test_shared_bytes(self):
        assert self._kernel().shared_bytes() == 64 * 4

    def test_validate_catches_unknown_buffer(self):
        kernel = self._kernel()
        kernel.buffers = []
        with pytest.raises(ValueError):
            kernel.validate()

    def test_validate_catches_unknown_shared(self):
        kernel = self._kernel()
        kernel.shared = []
        with pytest.raises(ValueError):
            kernel.validate()

    def test_validate_catches_unknown_param(self):
        kernel = self._kernel()
        kernel.params = []
        with pytest.raises(ValueError):
            kernel.validate()

    def test_validate_catches_unknown_launch_constant(self):
        kernel = self._kernel()
        kernel.body.append(BinOp(Reg("x"), "add", Reg("x"), Arg("epb")))
        with pytest.raises(ValueError, match="epb"):
            kernel.validate()
        kernel.params.append("epb")
        kernel.validate()


class TestLaunchValidation:
    def test_missing_args_rejected(self):
        kernel = Kernel("k", params=["n"], buffers=[], shared=[], body=[])
        with pytest.raises(ValueError):
            KernelStep(kernel, grid=1, block=32, args={}, buffers={})

    def test_missing_buffers_rejected(self):
        kernel = Kernel("k", params=[], buffers=["in"], shared=[], body=[])
        with pytest.raises(ValueError):
            KernelStep(kernel, grid=1, block=32, args={}, buffers={})

    def test_nonpositive_launch_rejected(self):
        kernel = Kernel("k", params=[], buffers=[], shared=[], body=[])
        with pytest.raises(ValueError):
            KernelStep(kernel, grid=0, block=32)


class TestPrinter:
    def test_format_simple_instrs(self):
        assert "mov" in format_instr(Mov(Reg("a"), Imm(1)))
        assert "bar.sync" in format_instr(Bar())
        assert "st.shared" in format_instr(StShared("s", Imm(0), Imm(1)))

    def test_format_kernel_contains_header_and_shared(self):
        kernel = Kernel(
            "k", params=["n"], buffers=["in"],
            shared=[SharedDecl("smem", 8)],
            body=[Mov(Reg("a"), Imm(0))],
        )
        text = format_kernel(kernel)
        assert ".kernel k" in text
        assert ".shared smem[8]" in text

    def test_format_plan(self):
        kernel = Kernel("k", params=[], buffers=["out"], shared=[], body=[])
        plan = Plan(
            "p",
            steps=[
                MemsetStep("out", 0.0),
                KernelStep(kernel, grid=2, block=64, buffers={"out": "out"}),
            ],
            scratch={"out": 1},
        )
        text = format_plan(plan)
        assert "memset out" in text
        assert "launch k<<<2, 64>>>" in text
        assert ".scratch out[1]" in text

    def test_format_structured(self):
        instr = If(Reg("c"), then=[Mov(Reg("a"), Imm(1))], otherwise=[Bar()])
        text = format_instr(instr)
        assert "if %c {" in text and "} else {" in text
