"""Counter-derived performance explanations ("why is A faster than B").

The paper's whole evaluation (Figures 7-10) argues through *attribution*:
a variant wins because it trades shared-memory traffic for shuffles,
because its atomics hit distinct addresses, because it diverges less.
``repro.obs`` records the raw material — per-launch event counters in
:class:`~repro.gpusim.events.StepProfile` — and this module derives the
paper's figure-of-merit metrics from them:

* **coalescing efficiency** — 128B transactions per warp-level global
  memory request (1.0 = perfectly coalesced);
* **divergence ratio** — divergent branch tests per warp instruction;
* **instruction mix** — the barrier / shuffle / shared / atomic blend;
* **atomic contention** — launch-wide same-address pressure (global)
  and per-block serialization (shared).

On top of the metrics sits an A/B **attribution**: the analytic timing
model's per-launch terms are decomposed into *exactly additive*
components (:func:`repro.gpusim.timing.plan_components`), so the
per-component deltas between two variants sum to the model's timing
delta to float round-off, and ranking them by magnitude names the
counters that account for the win.  ``python -m repro explain <variant>``
and ``repro explain --diff a b`` expose this; the autotuner and the
DySel selector attach the same attribution to their pruning decisions.

Everything here is a pure function of profiles already recorded, so
explanations are deterministic given a fixed trace (golden-tested in
``tests/obs/test_explain.py``).
"""

from __future__ import annotations

#: Version stamp on every explain JSON payload.
EXPLAIN_SCHEMA_VERSION = 1

#: The event counters that drive each timing-model component — the
#: "citation" attached to every attribution row (see
#: :func:`repro.gpusim.timing.kernel_components` for the component split).
COMPONENT_COUNTERS = {
    "compute.alu": ("inst.alu",),
    "compute.shfl": ("inst.shfl",),
    "compute.global_issue": ("inst.ld.global", "inst.st.global"),
    "compute.shared": ("inst.ld.shared", "inst.st.shared", "mem.shared.replays"),
    "compute.barrier": ("inst.bar",),
    "compute.atomic_issue": ("atom.global.ops", "atom.shared.warp_serial"),
    "memory.dram": (
        "mem.global.bytes", "mem.global.ld.trans", "mem.global.st.trans",
    ),
    "atomic.global_serial": ("atom.global.max_same_addr",),
    "atomic.shared_serial": ("atom.shared.block_max_same_addr",),
    "launch.overhead": (),
    "host.overhead": (),
}


def _ratio(num, den):
    return num / den if den else None


def launch_metrics(step) -> dict:
    """Figure-of-merit metrics of one kernel launch (scaled events)."""
    events = step.scaled()
    ld_req = events.get("inst.ld.global", 0)
    st_req = events.get("inst.st.global", 0)
    warp_insts = (
        events.get("inst.alu", 0)
        + events.get("inst.shfl", 0)
        + ld_req
        + st_req
        + events.get("inst.ld.shared", 0)
        + events.get("inst.st.shared", 0)
    )
    threads = events.get("threads", 0)
    blocks = events.get("blocks", 0) or step.grid
    atomics = events.get("atom.shared.ops", 0) + events.get(
        "atom.global.ops", 0
    )
    return {
        "kernel": step.kernel_name,
        "grid": step.grid,
        "block": step.block,
        "mode": step.meta.get("exec.mode"),
        "backend": step.meta.get("exec.backend"),
        "coalescing.ld_trans_per_req": _ratio(
            events.get("mem.global.ld.trans", 0), ld_req
        ),
        "coalescing.st_trans_per_req": _ratio(
            events.get("mem.global.st.trans", 0), st_req
        ),
        "divergence.per_warp_inst": _ratio(
            events.get("branch.divergent", 0), warp_insts
        ),
        "mix.shfl_frac": _ratio(events.get("inst.shfl", 0), warp_insts),
        "mix.shared_frac": _ratio(
            events.get("inst.ld.shared", 0) + events.get("inst.st.shared", 0),
            warp_insts,
        ),
        "mix.barriers_per_warp_slot": _ratio(
            events.get("inst.bar", 0) * step.warps_per_block,
            events.get("warps", 0),
        ),
        "mix.atomics_per_thread": _ratio(atomics, threads),
        "atomics.global_max_same_addr": events.get(
            "atom.global.max_same_addr", 0
        ),
        "atomics.shared_serial_per_block": _ratio(
            events.get("atom.shared.block_max_same_addr", 0), blocks
        ),
        "events": {key: float(value) for key, value in sorted(events.items())},
    }


def profile_metrics(profile) -> dict:
    """Launch metrics aggregated over every step of a plan profile."""
    totals = {}
    for step in profile.steps:
        for key, value in step.scaled().items():
            totals[key] = totals.get(key, 0) + value
    ld_req = totals.get("inst.ld.global", 0)
    warp_insts = sum(
        totals.get(key, 0)
        for key in (
            "inst.alu", "inst.shfl", "inst.ld.global", "inst.st.global",
            "inst.ld.shared", "inst.st.shared",
        )
    )
    return {
        "launches": len(profile.steps),
        "coalescing.ld_trans_per_req": _ratio(
            totals.get("mem.global.ld.trans", 0), ld_req
        ),
        "divergence.per_warp_inst": _ratio(
            totals.get("branch.divergent", 0), warp_insts
        ),
        "mix.shfl_frac": _ratio(totals.get("inst.shfl", 0), warp_insts),
        "mix.shared_frac": _ratio(
            totals.get("inst.ld.shared", 0) + totals.get("inst.st.shared", 0),
            warp_insts,
        ),
        "atomics.global_max_same_addr": totals.get(
            "atom.global.max_same_addr", 0
        ),
        "counters": {k: float(v) for k, v in sorted(totals.items())},
    }


def explain_profile(profile, num_memsets, arch, label=None) -> dict:
    """One variant's full explanation from an executed plan profile."""
    from ..gpusim.timing import plan_components, plan_time

    components = plan_components(profile, arch, num_memsets=num_memsets)
    model_total = plan_time(profile, arch, num_memsets=num_memsets)
    return {
        "schema": EXPLAIN_SCHEMA_VERSION,
        "variant": label if label is not None else profile.plan_name,
        "arch": arch.name,
        "model_total_s": model_total,
        "attributed_total_s": sum(components.values()),
        "components": {k: components[k] for k in sorted(components)},
        "metrics": profile_metrics(profile),
        "launches": [launch_metrics(step) for step in profile.steps],
    }


def explain_variant(framework, version, n: int, arch="pascal",
                    tunables=None) -> dict:
    """Explain one Figure-6 variant at size ``n`` on one architecture."""
    from ..gpusim import get_architecture

    arch = get_architecture(arch)
    resolved = framework.resolve(version)
    profile, num_memsets = framework.profile(resolved, n, tunables)
    label = version if isinstance(version, str) else resolved.identifier
    explanation = explain_profile(profile, num_memsets, arch, label=label)
    explanation["identifier"] = resolved.identifier
    explanation["n"] = int(n)
    return explanation


def diff_explanations(a: dict, b: dict) -> dict:
    """Rank which timing-model components (and the counters behind
    them) account for the delta between two explanations.

    The component deltas sum to ``b.model_total_s - a.model_total_s``
    to float round-off (see :func:`repro.gpusim.timing.kernel_components`),
    so the ranking *is* the timing model's own verdict, not a heuristic.
    """
    counters_a = a["metrics"]["counters"]
    counters_b = b["metrics"]["counters"]
    names = sorted(set(a["components"]) | set(b["components"]))
    ranking = []
    for name in names:
        a_s = a["components"].get(name, 0.0)
        b_s = b["components"].get(name, 0.0)
        cited = {}
        for key in COMPONENT_COUNTERS.get(name, ()):
            ca = counters_a.get(key, 0.0)
            cb = counters_b.get(key, 0.0)
            if ca or cb:
                cited[key] = {"a": ca, "b": cb, "delta": cb - ca}
        # A nonzero time delta whose cited counters did NOT move means
        # the dominant-term overlap weight flipped between the variants
        # (see kernel_components): real model time, but not evidence of
        # changed traffic — ranked below counter-backed rows.
        overlap_shift = bool(
            (b_s - a_s)
            and cited
            and all(info["delta"] == 0 for info in cited.values())
        )
        ranking.append({
            "component": name,
            "a_s": a_s,
            "b_s": b_s,
            "delta_s": b_s - a_s,
            "overlap_shift": overlap_shift,
            "counters": cited,
        })
    ranking.sort(
        key=lambda row: (
            row["overlap_shift"], -abs(row["delta_s"]), row["component"]
        )
    )
    model_delta = b["model_total_s"] - a["model_total_s"]
    attributed = sum(row["delta_s"] for row in ranking)
    return {
        "schema": EXPLAIN_SCHEMA_VERSION,
        "a": {"variant": a["variant"], "model_total_s": a["model_total_s"]},
        "b": {"variant": b["variant"], "model_total_s": b["model_total_s"]},
        "arch": a["arch"],
        "model_delta_s": model_delta,
        "attributed_delta_s": attributed,
        "attribution_error": (
            abs(attributed - model_delta) / abs(model_delta)
            if model_delta else 0.0
        ),
        "faster": (
            a["variant"] if a["model_total_s"] <= b["model_total_s"]
            else b["variant"]
        ),
        "ranking": ranking,
    }


def explain_diff(framework, version_a, version_b, n: int, arch="pascal",
                 tunables=None) -> dict:
    """A/B attribution between two variants (``repro explain --diff``)."""
    a = explain_variant(framework, version_a, n, arch, tunables)
    b = explain_variant(framework, version_b, n, arch, tunables)
    return diff_explanations(a, b)


# ---------------------------------------------------------------------
# text renderers (CLI)
# ---------------------------------------------------------------------


def _fmt_seconds(seconds) -> str:
    return f"{seconds * 1e6:.2f}us"


def format_explain(explanation: dict) -> list:
    """Human-readable lines for one variant's explanation."""
    lines = [
        f"variant ({explanation['variant']}) on {explanation['arch']}"
        + (f" at n={explanation['n']}" if "n" in explanation else "")
        + f": modelled {_fmt_seconds(explanation['model_total_s'])}"
    ]
    metrics = explanation["metrics"]
    lines.append(f"  launches: {metrics['launches']}")
    for key in (
        "coalescing.ld_trans_per_req", "divergence.per_warp_inst",
        "mix.shfl_frac", "mix.shared_frac",
    ):
        value = metrics.get(key)
        if value is not None:
            lines.append(f"  {key} = {value:.4f}")
    lines.append(
        f"  atomics.global_max_same_addr = "
        f"{metrics['atomics.global_max_same_addr']:.0f}"
    )
    lines.append("  timing components (additive):")
    components = explanation["components"]
    for name in sorted(components, key=lambda k: -components[k]):
        if components[name]:
            lines.append(
                f"    {name:<24} {_fmt_seconds(components[name]):>12}"
            )
    return lines


def format_diff(diff: dict, top: int = 6) -> list:
    """Human-readable lines for an A/B attribution."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"({a['variant']}) {_fmt_seconds(a['model_total_s'])}  vs  "
        f"({b['variant']}) {_fmt_seconds(b['model_total_s'])} on "
        f"{diff['arch']}  ->  ({diff['faster']}) faster by "
        f"{_fmt_seconds(abs(diff['model_delta_s']))}",
        f"attributed {_fmt_seconds(abs(diff['attributed_delta_s']))} "
        f"(error {diff['attribution_error']:.2%} of the model delta)",
        "top attributions (positive = costs (b) more):",
    ]
    for row in diff["ranking"][:top]:
        if not row["delta_s"]:
            continue
        cited = ", ".join(
            f"{key} {info['a']:.0f}->{info['b']:.0f}"
            for key, info in row["counters"].items()
        )
        tag = "   (overlap shift)" if row["overlap_shift"] else ""
        lines.append(
            f"  {row['component']:<24} {row['delta_s'] * 1e6:>+10.2f}us"
            + (f"   [{cited}]" if cited else "")
            + tag
        )
    return lines
