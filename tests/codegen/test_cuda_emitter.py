"""Golden-style tests for CUDA C emission (the paper's Listings 1-4)."""

import re

import pytest

from repro.codegen.cuda import emit_compound_pair, emit_coop_kernel, emit_version
from repro.core import FIG6
from repro.core.variants import ALL_COOP_KEYS
from repro.lang.reductions import identity_literal


class TestListing3Shape:
    """VA2 renders like Listing 3: shared atomics on the accumulator."""

    @pytest.fixture(scope="class")
    def text(self, fw_add=None):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        return emit_coop_kernel(fw.pre.coop_variant("VA2"))

    def test_kernel_signature(self, text):
        assert "__global__" in text
        assert "float *Return, float *input_x, int SourceSize, int ObjectSize" in text

    def test_shared_accumulator_declared_and_initialized(self, text):
        assert "__shared__ float partial;" in text
        assert "if (threadIdx.x == 0)" in text

    def test_dynamic_shared_array_is_extern(self, text):
        # Listing 3 line 9: in.Size()-sized arrays are extern __shared__
        assert "extern __shared__ float tmp[];" in text

    def test_atomic_add_on_shared(self, text):
        # Listing 3 line 27
        assert "atomicAdd(&partial, val);" in text

    def test_tree_loop_retained(self, text):
        assert "for (int offset = 32 / 2; offset > 0; offset /= 2)" in text

    def test_syncthreads_after_shared_writes(self, text):
        assert text.count("__syncthreads();") >= 3

    def test_source_size_guard(self, text):
        # Listing 3 lines 13-14
        assert "(blockIdx.x * blockDim.x + threadIdx.x) < SourceSize" in text

    def test_result_written_by_thread_zero(self, text):
        assert "Return[blockID] = val;" in text


class TestListing4Shape:
    """VS renders like Listing 4: shuffles, tmp disabled, partial kept."""

    @pytest.fixture(scope="class")
    def text(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        return emit_coop_kernel(fw.pre.coop_variant("VS"))

    def test_shuffles_emitted(self, text):
        assert text.count("__shfl_down(val, offset, 32)") == 2

    def test_tmp_array_disabled(self, text):
        assert "tmp" not in text

    def test_partial_array_retained_static(self, text):
        # Listing 4 line 5: partial[32], statically sized by MaxSize()
        assert "__shared__ float partial[32];" in text

    def test_warp_mapping(self, text):
        # Figure 2's CUDA equivalences
        assert "threadIdx.x % warpSize" in text
        assert "threadIdx.x / warpSize" in text


class TestListings1And2:
    @pytest.fixture(scope="class")
    def pair(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        return emit_compound_pair(fw.pre, "tile")

    def test_non_atomic_allocates_partials_array(self, pair):
        assert "new float[p];" in pair["non_atomic"]
        assert "(p) * sizeof(float)" in pair["non_atomic"]

    def test_atomic_allocates_single_accumulator(self, pair):
        # Listing 2: cudaMalloc of one element
        assert "cudaMalloc(&map_return_block, sizeof(float));" in pair["atomic"]
        assert "new float[1];" in pair["atomic"]

    def test_atomic_uses_block_scope_then_device_scope(self, pair):
        assert "atomicAdd_block(Return, accum);" in pair["atomic"]
        assert "atomicAdd(Return, map_return[0]);" in pair["atomic"]

    def test_non_atomic_has_no_atomics(self, pair):
        assert "atomicAdd" not in pair["non_atomic"]

    def test_spectrum_disabled_flag(self, pair):
        assert pair["spectrum_disabled"]

    def test_template_parameter(self, pair):
        for key in ("atomic", "non_atomic"):
            assert "template <unsigned int TGM_TEMPLATE_0>" in pair[key]


class TestEmitVersion:
    def test_full_program_for_coop_version(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        text = emit_version(fw.pre, FIG6["p"])
        assert "Figure 6 (p)" in text
        assert "__global__" in text
        assert "__shfl_down" in text

    def test_full_program_for_compound_version(self):
        from repro import ReductionFramework

        fw = ReductionFramework("add")
        text = emit_version(fw.pre, FIG6["b"])
        assert "Reduce_Grid" in text
        assert "Reduce_Thread" in text

    def test_max_reduction_uses_atomic_max(self):
        from repro import ReductionFramework

        fw = ReductionFramework("max")
        text = emit_coop_kernel(
            fw.pre.coop_variant("VA1"), identity_literal("max", "float")
        )
        assert "atomicMax(&tmp, val);" in text
        # identity padding instead of zero
        assert "-3.40282347e+38f" in text or "-3.40282347e38f" in text


class TestBarrierParity:
    """The lowering and the emitter place barriers by one rule, so a
    listing shows exactly the barriers the simulated kernel executes."""

    @pytest.mark.parametrize("label, key", [
        ("l", "V"), ("m", "VS"), ("n", "VA1"), ("o", "VA2"), ("p", "VA2S"),
    ])
    def test_syncthreads_count_equals_lowered_bars(self, label, key):
        from repro import ReductionFramework
        from repro.codegen import Tunables
        from repro.vir import Bar, KernelStep, walk_instrs

        fw = ReductionFramework("add")
        version = fw.resolve(label)
        assert version.combine == key
        plan = fw.build(version, 4096, Tunables(block=256))
        bars = sum(
            isinstance(instr, Bar)
            for step in plan.steps if isinstance(step, KernelStep)
            for instr in walk_instrs(step.kernel.body)
        )
        text = emit_coop_kernel(fw.pre.coop_variant(key))
        assert text.count("__syncthreads();") == bars

    def test_warp_sized_shared_array_is_static(self):
        """``vt.Size()`` folds to the warp size, as in the lowering."""
        from repro.core.pipeline import CoopVariant
        from repro.lang import analyze_source

        text = (
            "__codelet __coop\nfloat f(const Array<1,float> in) {\n"
            "  Vector vt();\n"
            "  __shared float t[vt.Size()];\n"
            "  t[vt.ThreadId()] = 1.0f;\n"
            "  return t[0];\n}"
        )
        codelet = analyze_source(text).codelets[0].codelet
        cuda = emit_coop_kernel(CoopVariant(key="T", codelet=codelet))
        assert "__shared__ float t[32];" in cuda
        assert "extern" not in cuda


def _shared_inits(text: str) -> list:
    """The literal each ``__shared__`` variable of a listing starts at:
    the assignment two lines below its declaration."""
    lines = text.splitlines()
    inits = []
    for i, line in enumerate(lines):
        decl = re.match(r"\s*(?:extern )?__shared__ \w+ (\w+)", line)
        if decl:
            init = re.match(
                rf"\s*{decl.group(1)}(?:\[threadIdx\.x\])? = (.+);$", lines[i + 2]
            )
            assert init, lines[i + 2]
            inits.append(init.group(1))
    return inits


def _literal_value(literal: str, ctype: str):
    """The value a C literal (or an int constant expression such as
    ``(-2147483647 - 1)``) spells."""
    from repro.core.operators import static_value
    from repro.lang.parser import parse_expression

    if ctype == "float":
        return float(literal.rstrip("f"))
    return static_value(parse_expression(literal))


def _lowered_inits(plan) -> set:
    """The immediates the plan's kernels store to shared memory: the
    cooperative initialization of every shared variable."""
    from repro.vir import Imm, KernelStep, StShared, walk_instrs

    return {
        instr.src.value
        for step in plan.steps if isinstance(step, KernelStep)
        for instr in walk_instrs(step.kernel.body)
        if isinstance(instr, StShared) and isinstance(instr.src, Imm)
    }


_OP_CTYPES = [(op, ctype) for op in ("add", "max", "min") for ctype in ("float", "int")]


class TestIdentityParity:
    """A listing's shared memory starts at the identity the lowered
    kernel stores there, for every op, element type and version."""

    @pytest.fixture(scope="class")
    def frameworks(self):
        from repro import ReductionFramework

        return {key: ReductionFramework(*key) for key in _OP_CTYPES}

    @pytest.mark.parametrize("op, ctype", _OP_CTYPES)
    @pytest.mark.parametrize("label", sorted(FIG6))
    def test_version_listing(self, frameworks, op, ctype, label):
        from repro.codegen import build_plan

        fw = frameworks[op, ctype]
        text = emit_version(fw.pre, FIG6[label])
        inits = {_literal_value(lit, ctype) for lit in _shared_inits(text)}
        assert inits == _lowered_inits(build_plan(fw.pre, FIG6[label], 4099))

    @pytest.mark.parametrize("op, ctype", _OP_CTYPES)
    @pytest.mark.parametrize("key", ALL_COOP_KEYS)
    def test_coop_kernel(self, frameworks, op, ctype, key):
        from repro.codegen import build_plan
        from repro.core import Version

        fw = frameworks[op, ctype]
        version = Version(
            grid_pattern="tile", final_combine="global_atomic",
            block_kind="coop", combine=key,
        )
        text = emit_coop_kernel(
            fw.pre.coop_variant(key), identity_literal(op, ctype)
        )
        inits = {_literal_value(lit, ctype) for lit in _shared_inits(text)}
        assert inits == _lowered_inits(build_plan(fw.pre, version, 4099))


class TestProgramTypes:
    """Listings render the program's element type and operator."""

    def test_int_add_version(self):
        from repro import ReductionFramework

        text = emit_version(ReductionFramework("add", ctype="int").pre, FIG6["b"])
        assert "int *Return, int *input_x, int SourceSize" in text
        assert "int accum = 0;" in text
        assert "float" not in text

    def test_float_max_compound_pair(self):
        from repro import ReductionFramework

        pair = emit_compound_pair(ReductionFramework("max").pre, "tile")
        for text in (pair["atomic"], pair["non_atomic"]):
            assert "float accum = -3.40282347e38f;" in text
            assert "accum = max(accum, input_x[idx * Stride]);" in text
            assert "accum +=" not in text
        assert "atomicMax_block(Return, accum);" in pair["atomic"]
        assert "atomicMax(Return, map_return[0]);" in pair["atomic"]
