"""Unit tests for the generic codelet→VIR compiler."""

import numpy as np
import pytest

from repro.codegen.compiler import CodeletToVIR, GlobalView, RegisterPartials
from repro.gpusim.device import Device
from repro.gpusim.engine import Executor
from repro.lang import analyze_source
from repro.lang.errors import LoweringError
from repro.vir import Imm, IRBuilder, Kernel, KernelStep


def compile_coop(body, binding_factory, block=64, header=None, identity=0.0):
    """Compile a coop codelet and run it on one block; returns (ret, dev)."""
    header = header or "int f(const Array<1,float> in)"
    text = f"__codelet __coop\n{header} {{\n  Vector vt();\n{body}\n}}"
    codelet = analyze_source(text).codelets[0].codelet
    b = IRBuilder()
    binding = binding_factory(b)
    compiler = CodeletToVIR(b, codelet, binding, identity=identity, prefix="t")
    ret = compiler.compile()
    tid = b.special("tid")
    z = b.binop("eq", tid, 0)
    with b.if_(z):
        b.st_global("out", 0, ret)
    kernel = Kernel(
        "t", params=[], buffers=["in", "out"],
        shared=compiler.shared_decls, body=b.finish(),
    )
    device = Device()
    return kernel, device


def run_one_block(kernel, device, data, block=64):
    device.upload("in", np.asarray(data, dtype=np.float32))
    if "out" not in device:
        device.alloc("out", 1)
    executor = Executor(device=device)
    step = KernelStep(
        kernel, grid=1, block=block,
        buffers={name: name for name in kernel.buffers},
    )
    executor.run_kernel(step)
    return float(device.get("out")[0])


def global_view(n, block):
    def factory(b):
        return GlobalView(
            buf="in", base=Imm(0), stride=Imm(1), size=Imm(n), size_static=block
        )
    return factory


class TestCooperativeLowering:
    def test_va1_style_atomic_accumulate(self, rng):
        body = """
  __shared _atomicAdd float t;
  float val = 0.0f;
  val = (vt.ThreadId() < in.Size()) ? in[vt.ThreadId()] : 0.0f;
  t = val;
  return t;
"""
        from repro.core.atomics_shared import apply_shared_atomics
        header = "float f(const Array<1,float> in)"
        text = f"__codelet __coop\n{header} {{\n  Vector vt();\n{body}\n}}"
        codelet = analyze_source(text).codelets[0].codelet
        codelet = apply_shared_atomics(codelet).codelet
        b = IRBuilder()
        binding = GlobalView(buf="in", base=Imm(0), stride=Imm(1),
                             size=Imm(48), size_static=64)
        compiler = CodeletToVIR(b, codelet, binding, identity=0.0, prefix="t")
        ret = compiler.compile()
        tid = b.special("tid")
        with b.if_(b.binop("eq", tid, 0)):
            b.st_global("out", 0, ret)
        kernel = Kernel("t", buffers=["in", "out"],
                        shared=compiler.shared_decls, body=b.finish())
        data = rng.random(48).astype(np.float32)
        device = Device()
        result = run_one_block(kernel, device, data)
        assert result == pytest.approx(float(data.sum()), rel=1e-5)

    def test_vector_methods_lower_to_specials(self):
        body = "  return vt.ThreadId() + vt.LaneId() * 0 + vt.VectorId() * 0;"
        kernel, device = compile_coop(body, global_view(64, 64))
        device.alloc("out", 1)
        # thread 0 writes its ThreadId (0)
        result = run_one_block(kernel, device, np.zeros(64))
        assert result == 0.0

    def test_maxsize_is_warp_constant(self):
        body = "  return vt.MaxSize() + vt.Size();"
        kernel, device = compile_coop(body, global_view(64, 64))
        result = run_one_block(kernel, device, np.zeros(64))
        assert result == 64.0  # 32 + 32

    def test_guarded_ternary_load_stays_in_bounds(self):
        # in.Size() is 10 but the block has 64 threads: the unguarded
        # load would be out of bounds; the compiler must predicate it.
        body = """
  float val = (vt.ThreadId() < in.Size()) ? in[vt.ThreadId()] : 0.0f;
  return val;
"""
        kernel, device = compile_coop(
            body, global_view(10, 64), header="float f(const Array<1,float> in)"
        )
        result = run_one_block(kernel, device, np.arange(10, dtype=np.float32))
        assert result == 0.0  # thread 0's element

    def test_register_partials_only_thread_id(self):
        text = (
            "__codelet __coop\nfloat f(const Array<1,float> in) {\n"
            "  Vector vt();\n  return in[vt.LaneId()];\n}"
        )
        codelet = analyze_source(text).codelets[0].codelet
        b = IRBuilder()
        val = b.mov(Imm(1.0))
        binding = RegisterPartials(value=val, count=64)
        compiler = CodeletToVIR(b, codelet, binding, prefix="t")
        with pytest.raises(LoweringError, match="ThreadId"):
            compiler.compile()

    def test_shared_dim_must_be_static(self):
        text = (
            "__codelet __coop\nfloat f(const Array<1,float> in) {\n"
            "  Vector vt();\n"
            "  __shared float tmp[in.Size()];\n"
            "  return 0.0f;\n}"
        )
        codelet = analyze_source(text).codelets[0].codelet
        b = IRBuilder()
        binding = GlobalView(buf="in", base=Imm(0), stride=Imm(1),
                             size=Imm(64), size_static=None)
        compiler = CodeletToVIR(b, codelet, binding, prefix="t")
        with pytest.raises(LoweringError, match="static"):
            compiler.compile()

    def test_barriers_inserted_after_shared_writes(self):
        from repro.vir import Bar, walk_instrs

        body = """
  __shared float tmp[vt.MaxSize()];
  tmp[vt.LaneId()] = 1.0f;
  return tmp[0];
"""
        kernel, _ = compile_coop(
            body, global_view(32, 32),
            header="float f(const Array<1,float> in)", block=32,
        )
        bars = [i for i in walk_instrs(kernel.body) if isinstance(i, Bar)]
        # one after the init loop, one after the store
        assert len(bars) >= 2

    def test_extra_params_rejected(self):
        text = (
            "__codelet __coop\nfloat f(const Array<1,float> in, int k) {\n"
            "  Vector vt();\n  return 0.0f;\n}"
        )
        codelet = analyze_source(text).codelets[0].codelet
        b = IRBuilder()
        binding = GlobalView(buf="in", base=Imm(0), stride=Imm(1),
                             size=Imm(64), size_static=64)
        with pytest.raises(LoweringError, match="parameter"):
            CodeletToVIR(b, codelet, binding, prefix="t").compile()


class TestScalarLowering:
    def test_serial_loop_with_stride_view(self, rng):
        text = """
__codelet
float f(const Array<1,float> in) {
  unsigned len = in.Size();
  float acc = 0.0f;
  for (unsigned i = 0; i < len; i += 1) {
    acc += in[i];
  }
  return acc;
}
"""
        codelet = analyze_source(text).codelets[0].codelet
        b = IRBuilder()
        tid = b.special("tid")
        # thread t reduces elements {t, t+32, t+64, ...} of 128 elements
        count = b.mov(Imm(4))
        binding = GlobalView(buf="in", base=tid, stride=Imm(32), size=count,
                             size_static=None)
        compiler = CodeletToVIR(b, codelet, binding, prefix="s")
        val = compiler.compile()
        b.st_global("out", tid, val)
        kernel = Kernel("s", buffers=["in", "out"], body=b.finish())
        data = rng.random(128).astype(np.float32)
        device = Device()
        device.upload("in", data)
        device.alloc("out", 32)
        executor = Executor(device=device)
        executor.run_kernel(
            KernelStep(kernel, grid=1, block=32,
                       buffers={"in": "in", "out": "out"})
        )
        expected = data.reshape(4, 32).sum(axis=0)
        np.testing.assert_allclose(device.get("out"), expected, rtol=1e-5)


class TestShiftAssign:
    """Every assignment the parser accepts lowers: the catalog with its
    tree loops stepped by ``offset >>= 1``, plus a counted loop stepped
    by ``k <<= 1``, builds for every Figure 6 label, rolled and unrolled,
    and runs exactly like the same source spelled with ``offset /= 2``
    and ``k *= 2``, on both backends."""

    COUNTED = (
        "  for (int k = 1; k < vthread.MaxSize(); k {step}) {{\n"
        "    tmp[vthread.ThreadId()] = val;\n"
        "  }}\n"
    )

    @classmethod
    def _source(cls, op, ctype, halve, double):
        from repro.core.sources import reduction_source

        text = reduction_source(op, ctype).replace("offset /= 2", halve)
        anchor = "  tmp[vthread.ThreadId()] = val;\n  for (int offset"
        counted = cls.COUNTED.format(step=double)
        assert text.count(anchor) == 2  # coop_tree and shared_v2
        return text.replace(
            anchor, anchor.replace("  for", counted + "  for", 1)
        )

    def test_every_parsed_assignment_has_an_opcode(self):
        from repro.core.operators import COMPOUND_OPCODES
        from repro.lang.parser import _ASSIGN_OPS

        assert set(_ASSIGN_OPS.values()) - {"="} <= set(COMPOUND_OPCODES)

    @pytest.mark.parametrize("unroll", [False, True])
    @pytest.mark.parametrize("op, ctype", [("add", "float"), ("max", "int")])
    def test_shift_steps_lower_and_run_like_arithmetic_steps(
        self, op, ctype, unroll
    ):
        from repro.codegen import Tunables
        from repro.codegen.synthesize import build_plan
        from repro.core import FIG6
        from repro.core.pipeline import preprocess

        sources = {
            "shift": self._source(op, ctype, "offset >>= 1", "<<= 1"),
            "arith": self._source(op, ctype, "offset /= 2", "*= 2"),
        }
        pres = {
            key: preprocess(analyze_source(text), unroll=unroll)
            for key, text in sources.items()
        }
        n = 3333
        rng = np.random.default_rng(5)
        if ctype == "int":
            data = rng.integers(-50, 50, size=n).astype(np.int32)
        else:
            data = rng.random(n).astype(np.float32)
        for label in "abcdefghijklmnop":
            version = FIG6[label]
            tunables = Tunables(block=64)
            if version.block_kind != "coop":
                tunables = Tunables(block=64, grid=8)
            plans = {
                key: build_plan(pre, version, n, tunables)
                for key, pre in pres.items()
            }
            for backend in ("interpreted", "compiled"):
                runs = {}
                for key, plan in plans.items():
                    executor = Executor(backend=backend)
                    executor.device.upload("in", data)
                    runs[key] = executor.run_plan(plan)
                ref, got = runs["arith"], runs["shift"]
                assert got.result == ref.result, (label, backend)
                assert [dict(s.events) for s in got.steps] == [
                    dict(s.events) for s in ref.steps
                ], (label, backend)
