"""Tests for the VIR assembler (text → IR round trips)."""

import numpy as np
import pytest

from repro.vir import format_kernel
from repro.vir.assembler import AssemblyError, parse_kernel


SIMPLE = """
.kernel add_one(params: n; buffers: in, out)
  %tid1 = %tid
  %n1 = ld.param [n]
  %c = lt %tid1, %n1
  if %c {
    %v = ld.global [in + %tid1]
    %w = add %v, 1.0
    st.global [out + %tid1], %w
  }
"""


class TestParsing:
    def test_simple_kernel(self):
        kernel = parse_kernel(SIMPLE)
        assert kernel.name == "add_one"
        assert kernel.params == ["n"]
        assert kernel.buffers == ["in", "out"]
        assert kernel.instruction_count() == 7

    def test_roundtrip_is_identity(self):
        kernel = parse_kernel(SIMPLE)
        text = format_kernel(kernel)
        assert format_kernel(parse_kernel(text)) == text

    def test_parsed_kernel_executes(self):
        from repro.gpusim.device import Device
        from repro.gpusim.engine import Executor
        from repro.vir import KernelStep

        kernel = parse_kernel(SIMPLE)
        device = Device()
        device.upload("in", np.arange(10, dtype=np.float32))
        device.alloc("out", 10)
        executor = Executor(device=device)
        executor.run_kernel(
            KernelStep(kernel, grid=1, block=32, args={"n": 10},
                       buffers={"in": "in", "out": "out"})
        )
        np.testing.assert_array_equal(device.get("out"), np.arange(10) + 1)

    def test_shared_and_atomics(self):
        text = """
.kernel k(params: -; buffers: out)
  .shared smem[64]
  %t = %tid
  st.shared [smem + %t], 1.0
  bar.sync
  %v = ld.shared [smem + %t]
  atom.shared.add [smem + 0], %v
  atom.global.device.add [out + 0], %v
  atom.global.block.max [out + 1], %v
"""
        kernel = parse_kernel(text)
        assert kernel.shared[0].size == 64
        assert format_kernel(parse_kernel(format_kernel(kernel))) == format_kernel(kernel)

    def test_while_and_shuffle(self):
        text = """
.kernel k(params: -; buffers: -)
  %acc = mov 0.0
  %i = mov 16
  while {
    %c = gt %i, 0
  } test %c {
    %s = shfl.down %acc, %i, w=32
    %acc = add %acc, %s
    %i = div %i, 2
  }
"""
        kernel = parse_kernel(text)
        assert format_kernel(parse_kernel(format_kernel(kernel))) == format_kernel(kernel)

    def test_vector_load(self):
        text = """
.kernel k(params: -; buffers: in)
  %t = %tid
  {%a, %b, %c, %d} = ld.global.v4 [in + %t]
"""
        kernel = parse_kernel(text)
        assert format_kernel(parse_kernel(format_kernel(kernel))) == format_kernel(kernel)

    def test_launch_constants(self):
        text = """
.kernel k(params: n, epb; buffers: in)
  %t = %tid
  %b = %ctaid
  %base = mul %b, $epb
  %i = add %base, %t
  %v = ld.global [in + %i]
  %w = shfl.down %v, $epb, w=32
  st.global [in + $epb], %w
"""
        kernel = parse_kernel(text)
        from repro.vir import Arg

        assert kernel.body[2].b == Arg("epb")
        assert kernel.body[5].offset == Arg("epb")
        assert kernel.body[6].idx == Arg("epb")
        kernel.validate()
        assert format_kernel(parse_kernel(format_kernel(kernel))) == format_kernel(kernel)

    def test_comments_preserved(self):
        text = """
.kernel k(params: -; buffers: -)
  ; hello world
  %a = mov 1
"""
        kernel = parse_kernel(text)
        assert "; hello world" in format_kernel(kernel)


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(AssemblyError):
            parse_kernel("not a kernel")

    def test_unknown_instruction(self):
        with pytest.raises(AssemblyError):
            parse_kernel(".kernel k(params: -; buffers: -)\n  %a = frob %b")

    def test_bad_operand(self):
        with pytest.raises(AssemblyError):
            parse_kernel(".kernel k(params: -; buffers: -)\n  %a = mov $$$")

    def test_unterminated_region(self):
        with pytest.raises(AssemblyError):
            parse_kernel(".kernel k(params: -; buffers: -)\n  if %c {\n  %a = mov 1")

    def test_wrong_arity(self):
        with pytest.raises(AssemblyError):
            parse_kernel(".kernel k(params: -; buffers: -)\n  %a = add %b")


class TestSynthesizedRoundTrips:
    def test_all_catalog_kernels_roundtrip(self, fw_add):
        for label in ("l", "m", "n", "o", "p", "a", "b", "e", "k"):
            plan = fw_add.build(label, 5000)
            for step in plan.kernel_steps():
                text = format_kernel(step.kernel)
                assert format_kernel(parse_kernel(text)) == text, label

    def test_baseline_kernels_roundtrip(self):
        from repro.baselines import build_cub_plan, build_kokkos_plan

        for plan in (build_cub_plan(10_000), build_kokkos_plan(10_000)):
            for step in plan.kernel_steps():
                text = format_kernel(step.kernel)
                assert format_kernel(parse_kernel(text)) == text
