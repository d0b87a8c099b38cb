"""Every deliberately-broken codelet must be flagged (mutation tests)."""

import numpy as np

from repro.gpusim import Executor
from repro.sanitize import Sanitizer, all_negatives, check_negatives
from repro.sanitize.report import run_sanitized

#: (one-block chunks?, backend): both block orders on both backends.
ALL_COMBOS = (
    (True, "interpreted"),
    (True, "compiled"),
    (False, "interpreted"),
    (False, "compiled"),
)


def test_every_negative_flagged_default_engines():
    reports = check_negatives()
    assert [r.name for r in reports] == [
        "tree-no-barrier", "stripped-atomic", "shfl-under-guard"
    ]
    for report in reports:
        assert report.flagged, (report.name, report.missing)


def test_every_negative_flagged_all_four_combos():
    """Each engine flags every negative with its expected kinds, in the
    derived block order and in one-block chunks (``BATCH_LANES = 1``)."""
    for negative in all_negatives():
        data = (np.arange(negative.n) % 7).astype(np.float32)
        for sequential, backend in ALL_COMBOS:
            sanitizer = Sanitizer()
            executor = Executor(backend=backend, sanitizer=sanitizer)
            if sequential:
                executor.BATCH_LANES = 1
            executor.device.upload("in", data)
            executor.run_plan(negative.plan)
            seen = {d.kind for d in sanitizer.diagnostics}
            assert set(negative.expect_dynamic) <= seen, (
                negative.name, sequential, backend, seen
            )


def _interpreted_diagnostics(plan, data):
    """``run_sanitized`` on the reference interpreter."""
    sanitizer = Sanitizer()
    executor = Executor(backend="interpreted", sanitizer=sanitizer)
    executor.device.upload("in", data)
    executor.run_plan(plan)
    return sanitizer.diagnostics


def test_diagnostics_name_kernel_instruction_and_lanes():
    for negative in all_negatives():
        data = (np.arange(negative.n) % 7).astype(np.float32)
        diags = _interpreted_diagnostics(negative.plan, data)
        assert [d.render() for d in diags] == [
            d.render() for d in run_sanitized(negative.plan, data)
        ], negative.name
        expected = set(negative.expect_dynamic)
        seen = {d.kind for d in diags}
        assert expected <= seen, (negative.name, seen)
        for diag in diags:
            assert diag.kernel.startswith("neg_")
            assert diag.instr  # formatted VIR instruction
            assert diag.lanes  # the conflicting/offending lanes
            rendered = diag.render()
            assert diag.kernel in rendered and diag.kind in rendered


def test_expected_lint_kinds():
    from repro.sanitize import lint_plan

    for negative in all_negatives():
        seen = {d.kind for d in lint_plan(negative.plan)}
        assert set(negative.expect_lint) <= seen, (negative.name, seen)
