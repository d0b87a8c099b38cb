"""Register variance: one value per launch, per block or per lane
(:attr:`repro.vir.analysis.KernelFacts.variance`)."""

import pytest

from repro.vir import IRBuilder, Kernel
from repro.vir.analysis import BLOCK, LANE, LAUNCH, kernel_facts


def _variance(build):
    b = IRBuilder()
    probe = build(b)
    b.st_global("out", 0, probe)
    kernel = Kernel("probe", params=["n"], buffers=["in", "out"],
                    body=b.finish())
    return kernel_facts(kernel).variance[probe.name]


@pytest.mark.parametrize("kind, level", [
    ("tid", LANE), ("laneid", LANE), ("warpid", LANE),
    ("ctaid", BLOCK), ("ntid", LAUNCH), ("nctaid", LAUNCH),
])
def test_derived_from_a_special(kind, level):
    assert _variance(lambda b: b.binop("mul", b.special(kind), 3)) == level


def test_derived_from_a_parameter_and_the_launch_shape():
    def build(b):
        threads = b.binop("mul", b.special("ntid"), b.special("nctaid"))
        return b.binop("add", b.ld_param("n"), threads)

    assert _variance(build) == LAUNCH


def test_the_widest_operand_wins():
    def build(b):
        return b.binop("add", b.special("ctaid"), b.special("tid"))

    assert _variance(build) == LANE


def test_loaded_values_are_per_lane():
    assert _variance(lambda b: b.ld_global("in", 0)) == LANE


def test_written_under_a_lane_guard():
    def build(b):
        x = b.mov(0)
        with b.if_(b.binop("lt", b.special("tid"), 16)):
            b.mov(1, dst=x)
        return x

    assert _variance(build) == LANE


def test_written_under_a_block_guard():
    def build(b):
        x = b.mov(0)
        with b.if_(b.binop("eq", b.special("ctaid"), 0)):
            b.mov(1, dst=x)
        return x

    assert _variance(build) == BLOCK


def test_carried_by_a_loop_with_a_launch_condition():
    def build(b):
        s = b.mov(b.ld_param("n"))
        cond = b.fresh("cond")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("gt", s, 1, dst=cond)
        with loop.body:
            b.binop("shr", s, 1, dst=s)
        return s

    assert _variance(build) == LAUNCH
