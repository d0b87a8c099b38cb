"""Tests for the reduction DSL source library."""

import pytest

from repro.core.sources import load_reduction_program, reduction_source
from repro.lang.reductions import LIBRARY_OPS


class TestSourceGeneration:
    def test_library_ops(self):
        assert set(LIBRARY_OPS) == {"add", "max", "min"}

    def test_sub_only_through_atomic_api(self):
        with pytest.raises(ValueError, match="atomic API"):
            reduction_source("sub")

    def test_bad_ctype(self):
        with pytest.raises(ValueError):
            reduction_source("add", "double")

    def test_six_codelets_per_program(self):
        for op in LIBRARY_OPS:
            program = load_reduction_program(op, "float")
            tags = {info.codelet.tag for info in program.codelets}
            assert tags == {
                "scalar", "tile", "stride", "coop_tree", "shared_v1", "shared_v2"
            }

    def test_codelet_kinds(self):
        program = load_reduction_program("add", "float")
        kinds = {
            info.codelet.tag: info.kind for info in program.codelets
        }
        assert kinds["scalar"] == "atomic_autonomous"
        assert kinds["tile"] == "compound"
        assert kinds["stride"] == "compound"
        assert kinds["coop_tree"] == "cooperative"
        assert kinds["shared_v1"] == "cooperative"
        assert kinds["shared_v2"] == "cooperative"

    def test_max_source_uses_max_atomics(self):
        text = reduction_source("max", "float")
        assert "atomicMax" in text
        assert "_atomicMax" in text
        assert "+=" not in text.split("__tag(coop_tree)")[1].split("__tag")[0]

    def test_int_source_types(self):
        text = reduction_source("add", "int")
        assert "Array<1,int>" in text
        assert "float" not in text
