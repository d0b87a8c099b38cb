"""The reduction-operator table and the laws every layer relies on.

Each operator is defined once (``repro.lang.reductions``); these tests
check that its identity is neutral under the ALU op the simulator runs,
and that the planner, the shuffle pass and the warp-aggregation pass
read and write exactly the table's combine statement.
"""

import numpy as np
import pytest

from repro.core import apply_shared_atomics, apply_warp_aggregation, preprocess
from repro.core.atomics_global import infer_reduction_op
from repro.core.sources import load_reduction_program
from repro.lang import analyze_source, ast
from repro.lang.reductions import (
    API_OPS,
    CTYPES,
    LIBRARY_OPS,
    QUALIFIER_OPS,
    REDUCTION_OPS,
    REDUCTIONS,
    combine_source,
    combine_stmt,
    identity_literal,
    identity_value,
    match_combine,
)
from repro.vir.instructions import (
    ALU_IMPL,
    ATOMIC_IMPL,
    ATOMIC_OPS,
    WARP,
    register_dtype,
)

_DTYPES = {"float": np.float32, "int": np.int32}
_OP_CTYPES = [(op, ctype) for op in REDUCTION_OPS for ctype in CTYPES]
_LIBRARY_CTYPES = [(op, ctype) for op in LIBRARY_OPS for ctype in CTYPES]


def _random_values(ctype: str) -> np.ndarray:
    """Seeded values of the ctype over its whole magnitude range."""
    rng = np.random.default_rng(7)
    if ctype == "int":
        info = np.iinfo(np.int32)
        values = rng.integers(info.min + 1, info.max, size=512, dtype=np.int64)
        return values.astype(np.int32)
    exponents = rng.uniform(-38, 38, size=512)
    signs = rng.choice([-1.0, 1.0], size=512)
    return (signs * 10.0 ** exponents).astype(np.float32)


def _bounds(ctype: str) -> np.ndarray:
    info = np.finfo(np.float32) if ctype == "float" else np.iinfo(np.int32)
    return np.array([info.min, info.max], dtype=_DTYPES[ctype])


def _combine(op: str, ctype: str, a, b):
    """``a op b`` as the simulator's registers compute it."""
    dtype = register_dtype(np.dtype(_DTYPES[ctype]))
    a, b = np.broadcast_arrays(np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype))
    return ALU_IMPL[op](a, b)


def _assert_neutral(op: str, ctype: str, values: np.ndarray) -> None:
    e = identity_value(op, ctype)
    np.testing.assert_array_equal(_combine(op, ctype, values, e), values)
    if op in LIBRARY_OPS:  # commutative: neutral from the left too
        np.testing.assert_array_equal(_combine(op, ctype, e, values), values)


#: The value each identity literal spells.
_IDENTITY_VALUES = {
    "0.0f": 0.0, "0": 0,
    "-3.40282347e38f": -3.40282347e38, "3.40282347e38f": 3.40282347e38,
    "(-2147483647 - 1)": -2147483648, "2147483647": 2147483647,
}


class TestIdentities:
    @pytest.mark.parametrize("op, ctype, literal", [
        ("add", "float", "0.0f"), ("add", "int", "0"),
        ("sub", "float", "0.0f"), ("sub", "int", "0"),
        ("max", "float", "-3.40282347e38f"), ("max", "int", "(-2147483647 - 1)"),
        ("min", "float", "3.40282347e38f"), ("min", "int", "2147483647"),
    ])
    def test_literal_and_value(self, op, ctype, literal):
        assert identity_literal(op, ctype) == literal
        value = identity_value(op, ctype)
        assert type(value) is (float if ctype == "float" else int)
        assert value == _IDENTITY_VALUES[literal]

    @pytest.mark.parametrize("op, ctype", _OP_CTYPES)
    def test_identity_is_neutral(self, op, ctype):
        _assert_neutral(op, ctype, _random_values(ctype))

    @pytest.mark.parametrize("op, ctype", _OP_CTYPES)
    def test_identity_is_neutral_at_type_bounds(self, op, ctype):
        _assert_neutral(op, ctype, _bounds(ctype))

    @pytest.mark.parametrize("label", ["b", "p"])
    @pytest.mark.parametrize("op, ctype, bound", [
        ("max", "float", "min"), ("min", "float", "max"), ("max", "int", "min"),
    ])
    def test_reduction_of_the_type_bound_is_exact(self, op, ctype, bound, label):
        """A max over 1,000 copies of -FLT_MAX (or INT_MIN) is that
        value, not the identity, and a min over FLT_MAX is FLT_MAX."""
        from repro import ReductionFramework

        info = np.finfo(np.float32) if ctype == "float" else np.iinfo(np.int32)
        value = getattr(info, bound)
        data = np.full(1000, value, dtype=_DTYPES[ctype])
        result = ReductionFramework(op, ctype=ctype).run(data, version=label)
        assert result.value == value

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            identity_value("xor", "float")
        with pytest.raises(ValueError):
            identity_literal("xor", "float")

    def test_unknown_ctype(self):
        with pytest.raises(ValueError):
            identity_literal("add", "double")


class TestTable:
    def test_library_ops_are_the_self_merging_ones(self):
        assert LIBRARY_OPS == ("add", "max", "min")
        assert REDUCTIONS["sub"].merge == "add"

    def test_names(self):
        for op, reduction in REDUCTIONS.items():
            assert API_OPS[reduction.api] == op
            assert QUALIFIER_OPS[reduction.qualifier] == op
            assert reduction.qualifier == "_" + reduction.api
            assert reduction.block_api == reduction.api + "_block"
        assert REDUCTIONS["add"].api == "atomicAdd"

    def test_every_op_has_a_device_atomic(self):
        assert ATOMIC_OPS == set(REDUCTION_OPS) == set(ATOMIC_IMPL)

    @pytest.mark.parametrize("op, ctype", _OP_CTYPES)
    def test_device_atomic_computes_the_alu_op(self, op, ctype):
        values = _random_values(ctype)[:64]
        dtype = register_dtype(np.dtype(_DTYPES[ctype]))
        acc = np.array([identity_value(op, ctype)], dtype=dtype)
        ATOMIC_IMPL[op].at(acc, np.zeros(values.size, dtype=np.int64), values)
        expected = np.asarray(identity_value(op, ctype), dtype=dtype)
        for value in values.astype(dtype):
            expected = ALU_IMPL[op](expected, value)
        assert acc[0] == expected


class TestCombine:
    @pytest.mark.parametrize("op", REDUCTION_OPS)
    def test_builder_and_recogniser_agree(self, op):
        value = ast.Index(base=ast.Ident(name="tmp"), index=ast.Ident(name="i"))
        stmt = combine_stmt(op, "acc", value)
        assert match_combine(stmt) == (op, "acc", value)

    @pytest.mark.parametrize("op, text", [
        ("add", "acc += v;"), ("sub", "acc -= v;"),
        ("max", "acc = max(acc, v);"), ("min", "acc = min(acc, v);"),
    ])
    def test_source_text(self, op, text):
        assert combine_source(op, "acc", "v") == text

    def test_recogniser_rejects_other_statements(self):
        v = ast.Ident(name="v")
        acc = ast.Ident(name="acc")
        for stmt in (
            ast.Assign(target=acc, op="*=", value=v),
            ast.Assign(target=acc, op="=", value=v),
            ast.Assign(target=acc, op="=", value=ast.Call(name="max", args=[v, acc])),
            ast.Assign(target=acc, op="=", value=ast.Call(name="sum", args=[acc, v])),
        ):
            assert match_combine(stmt) is None

    @pytest.mark.parametrize("op, ctype", _LIBRARY_CTYPES)
    def test_planner_infers_the_op(self, op, ctype):
        assert infer_reduction_op(load_reduction_program(op, ctype), "reduce") == op

    @pytest.mark.parametrize("op, ctype", _LIBRARY_CTYPES)
    def test_shuffle_pass_emits_the_combine(self, op, ctype):
        pre = preprocess(load_reduction_program(op, ctype))
        for key in ("VS", "VA2S"):
            loops = [
                node for node in ast.walk(pre.coop_variant(key).codelet)
                if isinstance(node, ast.For)
                and any(isinstance(n, ast.WarpShuffle) for n in ast.walk(node))
            ]
            assert loops
            for loop in loops:
                shuffle = ast.WarpShuffle(
                    value=ast.Ident(name="val"),
                    offset=ast.Ident(name="offset"),
                    direction="down",
                    width=WARP,
                )
                assert loop.body.stmts == [combine_stmt(op, "val", shuffle)]

    @pytest.mark.parametrize("op", REDUCTION_OPS)
    def test_warp_aggregation_emits_the_merge(self, op):
        qualifier = REDUCTIONS[op].qualifier
        text = (
            "__codelet __coop\nfloat f(const Array<1,float> in) {\n"
            "  Vector vt();\n"
            f"  __shared {qualifier} float acc;\n"
            "  acc = in[vt.ThreadId()];\n"
            "  return acc;\n}"
        )
        codelet = analyze_source(text).codelets[0].codelet
        aggregated = apply_warp_aggregation(apply_shared_atomics(codelet).codelet)
        assert aggregated.rewrites == 1
        (loop,) = ast.find_all(aggregated.codelet, ast.For)
        shuffle = ast.WarpShuffle(
            value=ast.Ident(name="__agg0"),
            offset=ast.Ident(name="__agg_off0"),
            direction="down",
            width=WARP,
        )
        merge = REDUCTIONS[op].merge
        assert loop.body.stmts == [combine_stmt(merge, "__agg0", shuffle)]
        (update,) = ast.find_all(aggregated.codelet, ast.AtomicUpdate)
        assert update.op == op
