"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``passes``    — show the pre-processing pipeline log (Figure 5);
* ``variants``  — list the Figure 6 catalog and search-space counts;
* ``cuda``      — emit the CUDA C for one version (Listings 1-4 style);
* ``reduce``    — run a reduction on random data on the simulator;
* ``time``      — modelled wall times across architectures;
* ``tune``      — sweep tunable parameters for one version;
* ``sanitize``  — race/barrier-divergence sanitizer over the catalog;
* ``trace``     — run any command with tracing on, write a Chrome trace
  (and, with ``--flame``, a collapsed-stack flamegraph);
* ``stats``     — dump the metrics-registry snapshot;
* ``explain``   — counter-derived "why" analytics for one variant, or
  an A/B diff attributing the timing-model delta to counters;
* ``bench``     — report on the append-only bench ledger
  (``BENCH_ledger.jsonl``) with per-metric regression attribution.

Profiles are cached in process memory only. ``--cache-stats`` on
``time``/``tune`` prints hit/miss/time-saved statistics for the
invocation. Set ``REPRO_TRACE=<path>`` to trace any
invocation (or any library use) without the ``trace`` verb.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .lang.reductions import CTYPES, LIBRARY_OPS


def _add_common(parser):
    parser.add_argument(
        "--op", choices=LIBRARY_OPS, default="add",
        help="reduction operator (default: add)",
    )


def _positive_int(value: str) -> int:
    """argparse type for sizes and launch geometry: an int >= 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def _block_size(value: str) -> int:
    """argparse type for ``--block``: a block size ``Tunables`` accepts."""
    from .codegen import Tunables
    from .lang import SynthesisError

    block = _positive_int(value)
    try:
        Tunables(block=block)
    except SynthesisError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return block


def _is_version(value: str) -> bool:
    """Is ``value`` a Figure 6 label or a version identifier (what
    ``ReductionFramework.resolve`` accepts)?"""
    from .core import FIG6, enumerate_versions

    return value in FIG6 or value in {
        version.identifier for version in enumerate_versions()
    }


def _version(value: str) -> str:
    """argparse type for a version: a Figure 6 label or a version
    identifier."""
    if not _is_version(value):
        from .core import FIG6

        raise argparse.ArgumentTypeError(
            f"unknown version {value!r}: use a Figure 6 label "
            f"({','.join(FIG6)}) or a version identifier "
            "(see 'repro variants')"
        )
    return value


def _version_list(value: str) -> tuple:
    """argparse type for a comma-separated list of versions, parsed to a
    tuple. Identifiers may contain commas (``DT,A / V``), so pieces are
    joined greedily until they name a version; a piece left over at the
    end is an unknown version."""
    versions, pending = [], []
    for piece in value.split(","):
        pending.append(piece)
        if _is_version(",".join(pending)):
            versions.append(",".join(pending))
            pending = []
    if pending:
        _version(",".join(pending))
    return tuple(versions)


def _add_size(parser):
    """Input size: positional (``reduce 1000``) or ``-n`` (``reduce -n
    1000``) — the option form reads naturally under the ``trace`` verb."""
    parser.add_argument("n", type=_positive_int, nargs="?", default=None,
                        help="input size (elements)")
    parser.add_argument("-n", "--size", type=_positive_int, dest="n_opt",
                        default=None,
                        help="input size (alternative to the positional)")


def _resolve_size(args, parser) -> None:
    if args.n is None:
        args.n = args.n_opt
    if args.n is None:
        parser.error(f"{args.command}: input size required (positional or -n)")


def _write_json(payload, path, label) -> None:
    """Emit a JSON payload: to ``path``, or stdout when path is ``-``
    or None (shared by every ``--json`` option)."""
    import json

    text = json.dumps(payload, indent=2, default=str)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"[{label}] JSON -> {path}")


def _framework(args):
    from .runtime import ReductionFramework

    return ReductionFramework(
        op=args.op, unroll=getattr(args, "unroll", False)
    )


def cmd_passes(args) -> int:
    fw = _framework(args)
    for line in fw.pre.log:
        print(line)
    return 0


def cmd_variants(args) -> int:
    from .core import BEST8, FIG6, search_space_summary

    summary = search_space_summary()
    print(f"full space: {summary['total']} versions; pruned: "
          f"{summary['pruned_total']} (all with global-atomic combine)")
    print("\nFigure 6 catalog (* = the paper's best performers):")
    for label in sorted(FIG6):
        star = "*" if label in BEST8 else " "
        print(f"  ({label}) {star} {FIG6[label].identifier}")
    return 0


def cmd_cuda(args) -> int:
    from .codegen import emit_version

    fw = _framework(args)
    print(emit_version(fw.pre, fw.resolve(args.version)))
    return 0


def _print_cache_stats() -> None:
    from .obs import default_metrics
    from .perf import default_cache, default_plan_cache

    stats = default_cache().stats
    print(
        f"[cache] hits={stats.hits} "
        f"misses={stats.misses} stores={stats.stores} "
        f"simulation saved={stats.time_saved_s:.2f}s "
        f"spent={stats.compute_time_s:.2f}s"
    )
    plan_stats = default_plan_cache().stats
    print(
        f"[plan cache] hits={plan_stats.hits} "
        f"misses={plan_stats.misses} stores={plan_stats.stores} "
        f"build saved={plan_stats.time_saved_s:.2f}s "
        f"spent={plan_stats.compute_time_s:.2f}s"
    )
    metrics = default_metrics()
    print(
        f"[kernels] built={metrics.counter('codegen.kernels_built')} "
        f"reused={metrics.counter('codegen.kernels_reused')}"
    )
    for region in ("combine", "suffix"):
        print(
            f"[{region}] "
            f"simulated={metrics.counter(f'exec.{region}.simulated')} "
            f"reused={metrics.counter(f'exec.{region}.reused')}"
        )


def cmd_reduce(args) -> int:
    from .codegen import Tunables

    fw = _framework(args)
    rng = np.random.default_rng(args.seed)
    data = rng.random(args.n).astype(np.float32)
    tunables = None
    if args.block is not None or args.grid is not None:
        block = Tunables.block if args.block is None else args.block
        tunables = Tunables(block=block, grid=args.grid)
    result = fw.run(data, version=args.version, tunables=tunables)
    reference = {
        "add": float(data.sum(dtype=np.float64)),
        "max": float(data.max()),
        "min": float(data.min()),
    }[args.op]
    error = abs(result.value - reference) / max(1e-12, abs(reference))
    print(f"version ({args.version}) {result.version.identifier}")
    print(f"result    = {result.value!r}")
    print(f"reference = {reference!r}  (relative error {error:.2e})")
    launches = result.profile.num_launches()
    print(f"kernel launches: {launches}")
    return 0 if error < 1e-3 else 1


def cmd_time(args) -> int:
    from .runtime import cub_time, kokkos_time, openmp_time

    fw = _framework(args)
    labels = args.versions or ("m", "n", "p", "b")
    print(f"{'arch':>8}" + "".join(f"  ({label})".rjust(12) for label in labels)
          + f"{'CUB':>12}{'Kokkos':>12}{'OpenMP':>12}")
    for arch in ("kepler", "maxwell", "pascal"):
        cells = "".join(
            f"{fw.time(args.n, label, arch) * 1e6:>12.1f}" for label in labels
        )
        print(
            f"{arch:>8}{cells}{cub_time(args.n, arch) * 1e6:>12.1f}"
            f"{kokkos_time(args.n, arch) * 1e6:>12.1f}"
            f"{openmp_time(args.n) * 1e6:>12.1f}"
        )
    print("(microseconds, modelled)")
    if args.cache_stats:
        _print_cache_stats()
    return 0


def cmd_tune(args) -> int:
    from .autotune import tune_version

    fw = _framework(args)
    result = tune_version(
        fw, args.version, args.n, args.arch, max_workers=args.jobs
    )
    print(f"tuning version ({args.version}) at n={args.n} on {args.arch}:")
    for tunables, seconds in sorted(result.trials, key=lambda t: t[1]):
        marker = "  <- best" if tunables == result.tunables else ""
        print(f"  block={tunables.block:>4} grid={str(tunables.grid):>5}: "
              f"{seconds * 1e6:>9.1f} us{marker}")
    if args.cache_stats:
        _print_cache_stats()
    return 0


def cmd_sanitize(args) -> int:
    from .sanitize import (
        check_negatives,
        format_negative,
        format_variant,
        report_json,
        sweep_catalog,
    )

    ops = (args.op,) if args.op != "all" else LIBRARY_OPS
    ctypes = (args.ctype,) if args.ctype != "all" else CTYPES
    print(f"sanitizing catalog at n={args.n} "
          f"(ops={','.join(ops)} ctypes={','.join(ctypes)} "
          f"lint={'on' if args.lint else 'off'})")
    reports = sweep_catalog(
        args.n, versions=args.versions, ops=ops, ctypes=ctypes,
        lint=args.lint,
    )
    for report in reports:
        for line in format_variant(report):
            print(line)
    dirty = [r for r in reports if not r.clean]
    negative_reports = []
    if args.negatives:
        print("negative codelets (each must be flagged):")
        negative_reports = check_negatives()
        for report in negative_reports:
            for line in format_negative(report):
                print(line)
    unflagged = [r for r in negative_reports if not r.flagged]
    if args.json:
        _write_json(
            report_json(reports, negative_reports, args.n),
            args.json, "sanitize",
        )
    print(
        f"[sanitize] {len(reports) - len(dirty)}/{len(reports)} variants "
        f"clean"
        + (f"; {len(unflagged)}/{len(negative_reports)} negatives "
           f"unflagged" if negative_reports else "")
    )
    return 1 if (dirty or unflagged) else 0


def cmd_trace(args) -> int:
    from .obs import enable_tracing, text_summary

    if not args.rest:
        print("usage: repro trace [--out PATH] <command ...>", file=sys.stderr)
        return 2
    if args.rest[0] == "trace":
        print("repro trace: cannot nest trace invocations", file=sys.stderr)
        return 2
    tracer = enable_tracing()
    # This verb writes the trace itself; clearing ``path`` disarms the
    # REPRO_TRACE atexit hook so the file is never written twice.
    tracer.path = None
    inner = _dispatch_args(build_parser(), args.rest)
    try:
        code = inner.func(inner)
    finally:
        count = tracer.export_chrome(args.out)
        print(f"[trace] {count} spans -> {args.out}"
              + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))
        if args.flame:
            stacks = tracer.export_collapsed(args.flame)
            print(f"[trace] {stacks} collapsed stacks -> {args.flame}")
        for line in text_summary(tracer.spans):
            print(f"[trace] {line}")
    return code


def cmd_stats(args) -> int:
    from .obs import default_metrics

    metrics = default_metrics()
    if args.json is not False:
        _write_json(metrics.snapshot(), args.json, "stats")
    else:
        for line in metrics.summary_lines():
            print(line)
    return 0


def cmd_explain(args) -> int:
    from .obs.explain import (
        explain_diff,
        explain_variant,
        format_diff,
        format_explain,
    )

    fw = _framework(args)
    if args.diff:
        diff = explain_diff(fw, args.diff[0], args.diff[1], args.n, args.arch)
        for line in format_diff(diff, top=args.top):
            print(line)
        payload = diff
    else:
        if not args.version:
            print("repro explain: a variant label or --diff A B is required",
                  file=sys.stderr)
            return 2
        explanation = explain_variant(fw, args.version, args.n, args.arch)
        for line in format_explain(explanation):
            print(line)
        payload = explanation
    if args.json:
        _write_json(payload, args.json, "explain")
    return 0


def cmd_bench_report(args) -> int:
    from .obs.ledger import detect_regressions, format_report, read_ledger

    entries = read_ledger(args.ledger)
    regressions = detect_regressions(entries, window=args.window)
    for line in format_report(entries, regressions, window=args.window):
        print(line)
    if args.json:
        _write_json(
            {
                "ledger": args.ledger,
                "entries": len(entries),
                "regressions": regressions,
            },
            args.json, "bench",
        )
    return 1 if regressions else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automatic Generation of Warp-Level Primitives "
            "and Atomic Instructions for Fast and Portable Parallel "
            "Reduction on GPUs' (CGO 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passes", help="show the Figure 5 pipeline log")
    _add_common(p)
    p.add_argument("--unroll", action="store_true")
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser("variants", help="list the version catalog")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("cuda", help="emit CUDA C for one version")
    _add_common(p)
    p.add_argument("version", type=_version, help="Figure 6 label (a-p)")
    p.set_defaults(func=cmd_cuda)

    p = sub.add_parser("reduce", help="run a reduction on random data")
    _add_common(p)
    _add_size(p)
    p.add_argument("--version", type=_version, default="p")
    p.add_argument("--block", type=_block_size, default=None)
    p.add_argument("--grid", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("time", help="modelled times across architectures")
    _add_common(p)
    _add_size(p)
    p.add_argument("--versions", type=_version_list, default=None,
                   help="comma-separated labels (default: m,n,p,b)")
    p.add_argument("--cache-stats", action="store_true",
                   help="print profile-cache statistics afterwards")
    p.set_defaults(func=cmd_time)

    p = sub.add_parser("tune", help="sweep tunables for one version")
    _add_common(p)
    _add_size(p)
    p.add_argument("--version", type=_version, default="b")
    p.add_argument("--arch", default="kepler",
                   choices=("kepler", "maxwell", "pascal"))
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="parallel profiling workers (default: auto)")
    p.add_argument("--cache-stats", action="store_true",
                   help="print profile-cache statistics afterwards")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "sanitize",
        help="run the SIMT sanitizer over generated variants",
        description=(
            "Execute generated variants under the dynamic race/"
            "barrier-divergence sanitizer and the static VIR lint. "
            "Exits non-zero when any stock variant produces a "
            "diagnostic or any negative codelet goes unflagged."
        ),
    )
    _add_size(p)
    p.add_argument("--op", choices=("all", *LIBRARY_OPS),
                   default="all", help="reduction operator(s) to sweep "
                   "(default: all)")
    p.add_argument("--ctype", choices=("all", *CTYPES),
                   default="all", help="element type(s) to sweep "
                   "(default: all)")
    p.add_argument("--versions", type=_version_list, default=None,
                   help="comma-separated Figure 6 labels "
                        "(default: the full catalog)")
    p.add_argument("--no-lint", dest="lint", action="store_false",
                   help="skip the static VIR lint pass")
    p.add_argument("--negatives", action="store_true",
                   help="also run the deliberately-broken codelets and "
                        "require each to be flagged")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full report as JSON")
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser(
        "trace",
        help="run any repro command with tracing on, write a Chrome trace",
        description=(
            "Wrap any other repro command, e.g. 'repro trace reduce -n "
            "1000000'. Writes a Chrome trace_event JSON (open it in "
            "chrome://tracing or https://ui.perfetto.dev) and prints a "
            "per-span summary."
        ),
    )
    p.add_argument("--out", default="trace.json",
                   help="output path for the Chrome trace (default: "
                        "trace.json)")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="also write a collapsed-stack flamegraph "
                        "(flamegraph.pl / speedscope input)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the repro command to run under tracing")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats", help="dump the observability metrics snapshot"
    )
    p.add_argument("--json", nargs="?", const="-", default=False,
                   metavar="PATH",
                   help="emit the full snapshot as JSON, to PATH or "
                        "stdout when no path is given")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "explain",
        help="counter-derived 'why' analytics for one variant, or an "
             "A/B timing-delta attribution",
        description=(
            "Derive the paper's figure-of-merit metrics (coalescing "
            "efficiency, divergence ratio, shuffle/shared/barrier mix, "
            "atomic contention) from the recorded "
            "event counters, and — with --diff — rank which counters "
            "account for the timing-model delta between two variants."
        ),
    )
    _add_common(p)
    p.add_argument("version", nargs="?", default=None, type=_version,
                   help="Figure 6 label to explain (omit with --diff)")
    p.add_argument("-n", "--size", type=_positive_int, dest="n",
                   default=65536,
                   help="input size in elements (default: 65536)")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                   type=_version,
                   help="attribute the timing delta between two labels")
    p.add_argument("--arch", default="pascal",
                   choices=("kepler", "maxwell", "pascal"))
    p.add_argument("--top", type=int, default=6,
                   help="attribution rows to print with --diff "
                        "(default: 6)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full payload as JSON "
                        "('-' for stdout)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "bench",
        help="bench-ledger reports (BENCH_ledger.jsonl)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser(
        "report",
        help="judge the newest ledger entry against the trailing window",
        description=(
            "Read the append-only bench ledger and compare the newest "
            "entry's watched metrics against the best of the trailing "
            "window. Exits non-zero when any metric regressed, with "
            "per-metric attribution (which ratio fell, which structure "
            "count dropped)."
        ),
    )
    from .obs.ledger import DEFAULT_WINDOW, default_ledger_path

    b.add_argument("--ledger", default=default_ledger_path(),
                   help="ledger path (default: ./BENCH_ledger.jsonl)")
    b.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help=f"trailing entries to judge against (default: "
                        f"{DEFAULT_WINDOW})")
    b.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as JSON ('-' for stdout)")
    b.set_defaults(func=cmd_bench_report)
    return parser


def _dispatch_args(parser, argv):
    """Parse ``argv`` and normalize post-parse derived fields."""
    args = parser.parse_args(argv)
    if hasattr(args, "n_opt"):
        _resolve_size(args, parser)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = _dispatch_args(parser, argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
