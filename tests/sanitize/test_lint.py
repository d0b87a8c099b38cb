"""Static VIR lint: catalog cleanliness and targeted defect patterns."""

from repro.sanitize import lint_kernel, lint_plan
from repro.sanitize.negatives import stripped_atomic, tree_no_barrier
from repro.vir import IRBuilder, Kernel, SharedDecl
from tests.vir.test_kernel_facts import _kernels


def kinds(diags):
    return {d.kind for d in diags}


class TestCatalogClean:
    def test_full_catalog_lints_clean(self, fw_add):
        from repro.core import FIG6

        for label in sorted(FIG6):
            plan = fw_add.build(label, 4096)
            diags = lint_plan(plan)
            assert not diags, (label, [d.render() for d in diags])


def test_lint_verdicts_over_every_built_kernel():
    """Every kernel the project builds (the kernel-facts table's: the
    Figure-6 catalog x ops x ctypes x blocks, the baselines, the apps
    and the negative codelets) lints clean except the two negatives
    built to fail, with these exact diagnostics."""
    got = {}
    for label, kernel in _kernels():
        diags = lint_kernel(kernel)
        if diags:
            got[label] = [(d.kind, d.instr, d.message) for d in diags]
    assert got == {
        "negative/tree-no-barrier/0:neg_tree_no_barrier": [(
            "missing-barrier-in-tree-loop",
            "%r12 = ld.shared [sdata + %r11]",
            "loop stores to shared sdata (`st.shared [sdata + %tid1], "
            "%r13`) and reads it cross-lane with no barrier in the loop; "
            "the lane offset reaches 32 (>= warp size 32), so the exchange "
            "crosses warps without synchronization",
        )],
        "negative/stripped-atomic/0:neg_stripped_atomic": [(
            "non-atomic-rmw",
            "st.shared [acc + 0], %r9",
            "shared acc[0] is read-modify-written through `%r8 = ld.shared "
            "[acc + 0]` at a program point where multiple lanes are active "
            "— every lane races on the same address; use an atomic or a "
            "single-lane guard",
        )],
    }


class TestMissingBarrier:
    def test_negative_tree_loop_flagged(self):
        diags = lint_plan(tree_no_barrier().plan)
        assert "missing-barrier-in-tree-loop" in kinds(diags)
        diag = next(d for d in diags
                    if d.kind == "missing-barrier-in-tree-loop")
        assert diag.kernel == "neg_tree_no_barrier"
        assert "ld.shared" in diag.instr
        assert diag.source == "lint"

    def _tree_kernel(self, start, with_bar):
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("sdata", tid, tid)
        if with_bar:
            b.bar()
        s = b.mov(start)
        cond = b.fresh("cond")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("gt", s, 0, dst=cond)
        with loop.body:
            guard = b.binop("lt", tid, s)
            with b.if_(guard):
                mine = b.ld_shared("sdata", tid)
                other = b.ld_shared("sdata", b.binop("add", tid, s))
                b.st_shared("sdata", tid, b.binop("add", mine, other))
            if with_bar:
                b.bar()
            b.binop("shr", s, 1, dst=s)
        return Kernel("tree", buffers=["out"],
                      shared=[SharedDecl("sdata", 2 * max(start, 16))],
                      body=b.finish())

    def test_intra_warp_loop_is_clean(self):
        # Offsets 16..1 provably stay below the warp size: the loop is
        # warp-synchronous and legal without barriers.
        assert not lint_kernel(self._tree_kernel(16, with_bar=False))

    def test_cross_warp_loop_without_barrier_flagged(self):
        diags = lint_kernel(self._tree_kernel(64, with_bar=False))
        assert kinds(diags) == {"missing-barrier-in-tree-loop"}

    def test_cross_warp_loop_with_barrier_clean(self):
        assert not lint_kernel(self._tree_kernel(64, with_bar=True))

    def test_unbounded_offset_flagged(self):
        # The stride comes from a kernel parameter: no constant bound,
        # so the pass cannot prove the exchange intra-warp.
        b = IRBuilder()
        tid = b.special("tid")
        b.st_shared("sdata", tid, tid)
        s = b.ld_param("stride")
        cond = b.fresh("cond")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("gt", s, 0, dst=cond)
        with loop.body:
            v = b.ld_shared("sdata", b.binop("add", tid, s))
            b.st_shared("sdata", tid, v)
            b.binop("shr", s, 1, dst=s)
        kernel = Kernel("param_stride", params=["stride"], buffers=["out"],
                        shared=[SharedDecl("sdata", 256)], body=b.finish())
        diags = lint_kernel(kernel)
        assert kinds(diags) == {"missing-barrier-in-tree-loop"}
        assert "unbounded" in diags[0].message


class TestNonAtomicRmw:
    def test_negative_stripped_atomic_flagged(self):
        diags = lint_plan(stripped_atomic().plan)
        assert "non-atomic-rmw" in kinds(diags)
        diag = next(d for d in diags if d.kind == "non-atomic-rmw")
        assert diag.kernel == "neg_stripped_atomic"
        assert diag.buf == "acc"

    def test_single_lane_guard_exempt(self):
        # `if (tid == 0) acc[0] = acc[0] + v` is an ordinary serial
        # update, not a race.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        lead = b.binop("eq", tid, 0)
        with b.if_(lead):
            old = b.ld_shared("acc", 0)
            b.st_shared("acc", 0, b.binop("add", old, v))
        kernel = Kernel("guarded", buffers=["in", "out"],
                        shared=[SharedDecl("acc", 1)], body=b.finish())
        assert not lint_kernel(kernel)

    def test_atomic_rmw_exempt(self):
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        b.atom_shared("add", "acc", 0, v)
        kernel = Kernel("atomic", buffers=["in", "out"],
                        shared=[SharedDecl("acc", 1)], body=b.finish())
        assert not lint_kernel(kernel)

    def test_guard_copied_around_a_cycle_terminates(self):
        # A loop rotating three registers writes each once, by a copy of
        # the next: following the guard's copies must stop.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        x, y, z = b.fresh("x"), b.fresh("y"), b.fresh("z")
        cond = b.fresh("cond")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("lt", x, 4, dst=cond)
        with loop.body:
            b.mov(y, dst=z)
            b.mov(x, dst=y)
            b.mov(z, dst=x)
        with b.if_(x):
            old = b.ld_shared("acc", 0)
            b.st_shared("acc", 0, b.binop("add", old, v))
        kernel = Kernel("rotate", buffers=["in", "out"],
                        shared=[SharedDecl("acc", 1)], body=b.finish())
        assert kinds(lint_kernel(kernel)) == {"non-atomic-rmw"}

    def test_lane_varying_index_exempt(self):
        # Per-lane slots: each lane updates its own address.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        old = b.ld_shared("slots", tid)
        b.st_shared("slots", tid, b.binop("add", old, v))
        kernel = Kernel("slots", buffers=["in", "out"],
                        shared=[SharedDecl("slots", 64)], body=b.finish())
        assert not lint_kernel(kernel)

    def test_index_carried_by_a_uniform_loop_flagged(self):
        # `s` halves in a loop every lane runs the same trips of, so
        # after it every lane holds the same `s`, and
        # `sdata[s] = sdata[s] + v` races.
        b = IRBuilder()
        tid = b.special("tid")
        v = b.ld_global("in", tid)
        s = b.mov(16)
        cond = b.fresh("cond")
        loop = b.while_(cond)
        with loop.cond:
            b.binop("gt", s, 1, dst=cond)
        with loop.body:
            b.binop("shr", s, 1, dst=s)
        old = b.ld_shared("sdata", s)
        b.st_shared("sdata", s, b.binop("add", old, v))
        kernel = Kernel("after_loop", buffers=["in", "out"],
                        shared=[SharedDecl("sdata", 32)], body=b.finish())
        assert kinds(lint_kernel(kernel)) == {"non-atomic-rmw"}
