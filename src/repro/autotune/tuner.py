"""Autotuning of ``__tunable`` launch parameters (Section IV-C).

The paper tunes every code version's block and grid dimensions "with a
simple script that runs all versions with different tuning parameters"
— this module is that script. :func:`tune_version` sweeps a small
configuration grid for one version and returns the best
:class:`~repro.codegen.synthesize.Tunables`;
:func:`tune_all` does it for a set of versions on one architecture.

Because our timing is a model over cached, architecture-independent
event profiles, a full sweep takes seconds rather than the paper's ~20
minutes. Each public entry point first profiles its whole (version ×
tunables) grid with one ``framework.profile_many`` call — which fans
the missing points out over the :mod:`repro.perf.parallel` pool and
merges them into the shared profile cache deterministically — then
reads the analytic times back from cache hits, one per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.synthesize import Tunables

#: Default block-dimension sweep (powers of two, full warps).
DEFAULT_BLOCKS = (64, 128, 256, 512)

#: Default partition counts (grid) swept for compound versions.
#: ``None`` lets the synthesizer derive the grid from the input size.
DEFAULT_GRIDS = (None, 128, 256, 512, 1024)


@dataclass
class TuneResult:
    version_key: object
    tunables: Tunables
    time_s: float
    trials: list = field(default_factory=list)  # (Tunables, seconds)


def configurations(version, blocks=DEFAULT_BLOCKS, grids=DEFAULT_GRIDS):
    """The tuning grid for one version (coop versions ignore ``grid``)."""
    configs = []
    for block in blocks:
        if version.block_kind == "coop":
            configs.append(Tunables(block=block))
        else:
            for grid in grids:
                configs.append(Tunables(block=block, grid=grid))
    return configs


def sweep_specs(
    framework,
    sizes,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
):
    """The full ``(version, n, tunables)`` grid a tuning sweep profiles.

    One canonical enumeration — sorted sizes × catalog order ×
    :func:`configurations` — shared by :func:`tune_all` and
    :meth:`~repro.autotune.selector.DynamicSelector.build`.
    """
    candidates = (
        candidates if candidates is not None else list(framework.catalog)
    )
    resolved = [framework.resolve(key) for key in candidates]
    return [
        (version, int(n), tunables)
        for n in sorted(int(size) for size in sizes)
        for version in resolved
        for tunables in configurations(version, blocks, grids)
    ]


def _time_configs(framework, key, version, n, arch, configs) -> TuneResult:
    """Time one version's ``configs`` at size ``n``, reading each profile
    from the cache the caller filled with ``framework.profile_many``."""
    trials = [
        (tunables, framework.time(n, version, arch, tunables))
        for tunables in configs
    ]
    tunables, seconds = min(trials, key=lambda trial: trial[1])
    return TuneResult(
        version_key=key, tunables=tunables, time_s=seconds, trials=trials
    )


def _tune_versions(framework, n, arch, candidates, blocks, grids) -> dict:
    """``{key: TuneResult}`` of every candidate at size ``n``, timed from
    a cache the caller filled."""
    results = {}
    for key in candidates:
        version = framework.resolve(key)
        configs = configurations(version, blocks, grids)
        results[key] = _time_configs(framework, key, version, n, arch, configs)
    return results


def _best(results) -> tuple:
    """``(version key, Tunables, seconds)`` of the fastest result."""
    key = min(results, key=lambda k: results[k].time_s)
    return key, results[key].tunables, results[key].time_s


def tune_version(
    framework,
    version,
    n: int,
    arch,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
) -> TuneResult:
    """Sweep tuning parameters for one version at input size ``n``."""
    resolved = framework.resolve(version)
    configs = configurations(resolved, blocks, grids)
    framework.profile_many(
        [(resolved, n, tunables) for tunables in configs],
        max_workers=max_workers,
    )
    return _time_configs(framework, version, resolved, n, arch, configs)


def tune_all(
    framework,
    n: int,
    arch,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
) -> dict:
    """Tune every candidate version; returns ``{key: TuneResult}``.

    This reproduces the paper's tuning run ("for the biggest problem
    size"); pass the sweep's largest ``n``. The whole candidate × config
    grid is profiled up front in one parallel batch.
    """
    candidates = candidates if candidates is not None else list(framework.catalog)
    framework.profile_many(
        sweep_specs(framework, [n], candidates, blocks, grids),
        max_workers=max_workers,
    )
    return _tune_versions(framework, n, arch, candidates, blocks, grids)


def best_tuned_version(
    framework,
    n: int,
    arch,
    candidates=None,
    blocks=DEFAULT_BLOCKS,
    grids=DEFAULT_GRIDS,
    max_workers=None,
):
    """Best (version key, Tunables, seconds) across candidates at size n."""
    return _best(tune_all(
        framework, n, arch, candidates, blocks, grids, max_workers=max_workers
    ))


def explain_pruning(framework, results, n: int, arch, top: int = 3) -> dict:
    """Counter-cited justification for a tuning verdict.

    ``results`` is :func:`tune_all`'s ``{key: TuneResult}``. The
    runner-up is diffed against the winner through
    :func:`repro.obs.explain.diff_explanations` (each under its own
    tuned launch parameters), so the pruning decision cites the same
    component/counter attribution ``repro explain --diff`` prints —
    the timing model's own additive verdict, not a heuristic. The
    returned ``cited`` rows are the top nonzero component deltas,
    each carrying its counter citations.
    """
    from ..obs.explain import diff_explanations, explain_variant

    if len(results) < 2:
        raise ValueError("explain_pruning needs at least two candidates")
    order = sorted(results, key=lambda key: results[key].time_s)
    winner_key, runner_key = order[0], order[1]
    winner, runner = results[winner_key], results[runner_key]
    runner_expl = explain_variant(
        framework, runner_key, n, arch, runner.tunables
    )
    winner_expl = explain_variant(
        framework, winner_key, n, arch, winner.tunables
    )
    diff = diff_explanations(runner_expl, winner_expl)
    return {
        "winner": winner_expl["identifier"],
        "runner_up": runner_expl["identifier"],
        "margin_s": runner.time_s - winner.time_s,
        "cited": [row for row in diff["ranking"] if row["delta_s"]][:top],
        "diff": diff,
    }
