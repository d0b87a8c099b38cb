"""Sanitizer sweeps and report formatting.

Drives the dynamic sanitizer and the static lint over synthesized
reduction plans — the full Figure 6 catalog × {add,max,min} ×
{float,int} — and over the deliberately-broken negative codelets, and
renders per-variant reports for the CLI and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpusim import Executor
from ..lang.reductions import CTYPES, LIBRARY_OPS
from .dynamic import Sanitizer
from .lint import lint_plan
from .negatives import all_negatives


@dataclass
class VariantReport:
    """Sanitizer verdict for one (version, op, ctype)."""

    version: str
    op: str
    ctype: str
    dynamic: list = field(default_factory=list)  # [Diagnostic]
    lint: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.lint and not self.dynamic

    def all_diagnostics(self) -> list:
        return self.lint + self.dynamic


@dataclass
class NegativeReport:
    """Did the sanitizer flag one deliberately-broken codelet?"""

    name: str
    dynamic: list = field(default_factory=list)  # [Diagnostic]
    lint: list = field(default_factory=list)
    missing: list = field(default_factory=list)  # expected kinds not seen

    @property
    def flagged(self) -> bool:
        return not self.missing


def _input_for(n: int, dtype) -> np.ndarray:
    """Deterministic, non-constant input (no RNG: reports must be stable)."""
    base = np.arange(n, dtype=np.int64) % 31 - 7
    return base.astype(dtype)


def run_sanitized(plan, data) -> list:
    """Run one plan under the dynamic sanitizer; returns diagnostics."""
    sanitizer = Sanitizer()
    executor = Executor(sanitizer=sanitizer)
    executor.device.upload("in", data)
    executor.run_plan(plan)
    return sanitizer.diagnostics


def sanitize_variant(fw, version, n: int, lint: bool = True) -> VariantReport:
    """Sanitize one synthesized version at size ``n``."""
    plan = fw.build(version, n)
    report = VariantReport(version=str(version), op=fw.op, ctype=fw.ctype)
    report.dynamic = run_sanitized(plan, _input_for(n, fw.dtype))
    if lint:
        report.lint = lint_plan(plan)
    return report


def sweep_catalog(n: int, versions=None, ops=LIBRARY_OPS,
                  ctypes=CTYPES, lint: bool = True,
                  progress=None) -> list:
    """Sanitize the catalog cross product; returns VariantReports."""
    from ..core import FIG6
    from ..runtime import ReductionFramework

    labels = list(versions) if versions else sorted(FIG6)
    reports = []
    for op in ops:
        for ctype in ctypes:
            fw = ReductionFramework(op=op, ctype=ctype)
            for label in labels:
                report = sanitize_variant(fw, label, n, lint)
                reports.append(report)
                if progress is not None:
                    progress(report)
    return reports


def check_negatives() -> list:
    """Run every negative codelet; each must be flagged as expected."""
    reports = []
    for negative in all_negatives():
        report = NegativeReport(name=negative.name)
        report.dynamic = run_sanitized(
            negative.plan, _input_for(negative.n, np.float32)
        )
        seen_dynamic = {d.kind for d in report.dynamic}
        report.lint = lint_plan(negative.plan)
        seen_lint = {d.kind for d in report.lint}
        report.missing = [
            kind for kind in negative.expect_dynamic
            if kind not in seen_dynamic
        ] + [
            kind for kind in negative.expect_lint if kind not in seen_lint
        ]
        reports.append(report)
    return reports


# -- rendering ----------------------------------------------------------


def format_variant(report: VariantReport) -> list:
    head = f"({report.version}) op={report.op} ctype={report.ctype}"
    if report.clean:
        return [f"  {head}: clean"]
    lines = [f"  {head}: {len(report.all_diagnostics())} diagnostic(s)"]
    for diag in report.dynamic + report.lint:
        lines.append(f"    {diag.render()}")
    return lines


def format_negative(report: NegativeReport) -> list:
    verdict = "flagged" if report.flagged else (
        f"NOT FLAGGED (missing: {', '.join(report.missing)})"
    )
    lines = [f"  {report.name}: {verdict}"]
    kinds = {d.render() for d in report.dynamic + report.lint}
    for text in sorted(kinds):
        lines.append(f"    {text}")
    return lines


def _diag_dict(diag) -> dict:
    return {
        "kind": diag.kind,
        "source": diag.source,
        "kernel": diag.kernel,
        "instr": diag.instr,
        "message": diag.message,
        "buf": diag.buf,
        "blocks": list(diag.blocks),
        "lanes": list(diag.lanes),
        "addrs": list(diag.addrs),
        "count": diag.count,
    }


def report_json(variant_reports, negative_reports, n: int) -> dict:
    """JSON-serializable report for the CI artifact."""
    return {
        "n": n,
        "clean": all(r.clean for r in variant_reports)
        and all(r.flagged for r in negative_reports),
        "variants": [
            {
                "version": r.version,
                "op": r.op,
                "ctype": r.ctype,
                "clean": r.clean,
                "dynamic": [_diag_dict(d) for d in r.dynamic],
                "lint": [_diag_dict(d) for d in r.lint],
            }
            for r in variant_reports
        ],
        "negatives": [
            {
                "name": r.name,
                "flagged": r.flagged,
                "missing": r.missing,
                "dynamic": [_diag_dict(d) for d in r.dynamic],
                "lint": [_diag_dict(d) for d in r.lint],
            }
            for r in negative_reports
        ],
    }
