"""Tests for the loop-unrolling extension pass (Section III-A, [34])."""

import numpy as np
import pytest

from repro import ReductionFramework
from repro.core import apply_unroll
from repro.lang import analyze_source, ast


def codelet_of(body, coop=True):
    vector = "  Vector vt();\n" if coop else ""
    qual = "__coop" if coop else ""
    text = (
        f"__codelet {qual}\nint f(const Array<1,int> in) {{\n"
        f"{vector}{body}\n}}"
    )
    return analyze_source(text).codelets[0].codelet


class TestTripCountAnalysis:
    def test_halving_tree_loop_unrolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int offset = vt.MaxSize() / 2; offset > 0; offset /= 2) {\n"
            "    val += offset;\n"
            "  }\n"
            "  return val;"
        )
        result = apply_unroll(codelet)
        assert result.loops_unrolled == 1
        assert result.iterations_expanded == 5  # 16, 8, 4, 2, 1
        assert not [n for n in ast.walk(result.codelet) if isinstance(n, ast.For)]
        # iterator occurrences replaced by constants
        literals = [
            n.value
            for n in ast.walk(result.codelet)
            if isinstance(n, ast.IntLiteral)
        ]
        for expected in (16, 8, 4, 2, 1):
            assert expected in literals

    def test_counted_loop_unrolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int i = 0; i < 4; i += 1) { val += i; }\n"
            "  return val;",
            coop=False,
        )
        result = apply_unroll(codelet)
        assert result.iterations_expanded == 4

    @pytest.mark.parametrize("header, values", [
        ("int i = 1; i < 64; i <<= 1", [1, 2, 4, 8, 16, 32]),
        ("int i = vt.Size(); i > 0; i >>= 1", [32, 16, 8, 4, 2, 1]),
        ("int i = 7; i != 0; i -= 7", [7]),
    ])
    def test_any_compound_step_unrolled(self, header, values):
        """Test and step fold through the lowering's opcodes, so every
        compound step the lowering accepts unrolls."""
        codelet = codelet_of(
            "  int val = 0;\n"
            f"  for ({header}) {{ val += i; }}\n"
            "  return val;"
        )
        result = apply_unroll(codelet)
        assert result.iterations_expanded == len(values)
        literals = [
            n.value for n in ast.walk(result.codelet)
            if isinstance(n, ast.IntLiteral)
        ]
        for value in values:
            assert value in literals

    def test_dynamic_bound_left_rolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (unsigned i = 0; i < in.Size(); i += 1) { val += in[i]; }\n"
            "  return val;",
            coop=False,
        )
        result = apply_unroll(codelet)
        assert result.loops_unrolled == 0
        assert [n for n in ast.walk(result.codelet) if isinstance(n, ast.For)]

    def test_huge_loop_left_rolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int i = 0; i < 1000; i += 1) { val += 1; }\n"
            "  return val;",
            coop=False,
        )
        assert apply_unroll(codelet).loops_unrolled == 0

    def test_iterator_modified_in_body_left_rolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int i = 8; i > 0; i /= 2) { i -= 1; val += 1; }\n"
            "  return val;",
            coop=False,
        )
        assert apply_unroll(codelet).loops_unrolled == 0

    def test_nested_static_loops_both_unrolled(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int i = 0; i < 2; i += 1) {\n"
            "    for (int j = 0; j < 3; j += 1) { val += 1; }\n"
            "  }\n"
            "  return val;",
            coop=False,
        )
        result = apply_unroll(codelet)
        assert result.loops_unrolled == 2
        assert not [n for n in ast.walk(result.codelet) if isinstance(n, ast.For)]

    def test_original_untouched(self):
        codelet = codelet_of(
            "  int val = 0;\n"
            "  for (int i = 0; i < 4; i += 1) { val += i; }\n"
            "  return val;",
            coop=False,
        )
        apply_unroll(codelet)
        assert [n for n in ast.walk(codelet) if isinstance(n, ast.For)]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def fw_unrolled(self):
        return ReductionFramework("add", unroll=True)

    def test_unrolled_framework_correct(self, fw_unrolled, rng):
        data = rng.random(9001).astype(np.float32)
        for label in ("l", "m", "n", "p", "e"):
            result = fw_unrolled.run(data, label)
            assert result.value == pytest.approx(
                float(data.sum(dtype=np.float64)), rel=1e-4
            ), label

    def test_unroll_reduces_instruction_count(self, fw_add, fw_unrolled, rng):
        data = rng.random(4096).astype(np.float32)
        rolled = fw_add.run(data, "m").profile.steps[0].events
        unrolled = fw_unrolled.run(data, "m").profile.steps[0].events
        assert unrolled["inst.alu"] < rolled["inst.alu"]
        # the same shuffles happen either way
        assert unrolled["inst.shfl"] == rolled["inst.shfl"]

    def test_unroll_logged(self, fw_unrolled):
        assert any("unroll pass" in line for line in fw_unrolled.pre.log)

    def test_unroll_never_slower_in_model(self, fw_add, fw_unrolled):
        for arch in ("kepler", "maxwell"):
            rolled = fw_add.time(65536, "m", arch)
            unrolled = fw_unrolled.time(65536, "m", arch)
            assert unrolled <= rolled * 1.001
