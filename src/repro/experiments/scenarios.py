"""Per-figure/table scenario builders (the experiment index of DESIGN.md §4).

Each scenario describes one paper figure/table as a ``{label: config}``
grid — one :class:`ExperimentConfig` per curve — built by
:func:`scenario_configs`.  :func:`run_scenario` runs every curve serially
and returns ``{label: SimulationResult}``; the campaign layer
(:mod:`repro.experiments.campaign`) runs the same grids cell-by-cell in
parallel with persistence.  Scale presets shrink the population/horizon
but keep the per-node load regime, preserving the qualitative shapes the
paper reports (who wins, where the crossovers are).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.core.protocol import PIDCANParams
from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.runner import SimulationResult, SOCSimulation

__all__ = [
    "run_protocol",
    "run_scenario",
    "scenario_configs",
    "SCENARIOS",
    "SCENARIO_CONFIGS",
    "FIG4_PROTOCOLS",
    "FIG567_PROTOCOLS",
    "BURST_PROTOCOLS",
    "CHURN_DEGREES",
    "CHURN_SWEEP_PROTOCOLS",
    "CHURN_SWEEP_DEGREES",
    "HOTRANGE_POLICIES",
    "MEGA_POPULATIONS",
    "MEGA_DURATIONS",
    "MEGA2_POPULATIONS",
    "scalability_populations",
]

#: Fig. 4 compares the unstructured, replication and diffusion families.
FIG4_PROTOCOLS = ("newscast", "sid-can", "khdn-can")

#: Figs. 5-7 compare the six §IV-B variants.
FIG567_PROTOCOLS = (
    "sid-can",
    "hid-can",
    "sid-can+sos",
    "hid-can+sos",
    "sid-can+vd",
    "newscast",
)

#: Fig. 8 dynamic degrees (fraction of nodes churning per 3000 s lifetime).
CHURN_DEGREES = (0.0, 0.25, 0.50, 0.75, 0.95)

#: The burst (high-throughput) scenario compares the main diffusion
#: variants against the replication and unstructured families under a
#: many-concurrent-queries regime.
BURST_PROTOCOLS = ("hid-can", "sid-can", "khdn-can", "newscast")

#: The churn comparison grid runs the full protocol axis — one
#: representative of every family, including the previously timeout-less
#: baselines (randomwalk/khdn/mercury) — under Fig. 8-style dynamic
#: membership.  Only possible because every protocol now shares the
#: requester-side query lifecycle (``repro.core.lifecycle``): a chain
#: lost to churn resolves as an explicit timeout failure instead of
#: hanging batched submission.
CHURN_SWEEP_PROTOCOLS = (
    "hid-can",
    "sid-can",
    "newscast",
    "khdn-can",
    "randomwalk-can",
    "mercury",
    "inscan-rq",
)

#: Dynamic degrees of the churn comparison grid (moderate + extreme).
CHURN_SWEEP_DEGREES = (0.25, 0.75)

#: Eviction policies swept by the hotrange scenario (docs/caching.md).
HOTRANGE_POLICIES = ("ttl", "lru", "lfu", "adaptive")

#: Population per scale of the ``mega`` tier.  Unlike the figure
#: scenarios (which use :data:`~repro.experiments.config.SCALES`), mega
#: exists to exercise cohort ticking and quantized deliveries at
#: populations continuous per-node phases cannot reach — 10^5 nodes at
#: ``paper``.
MEGA_POPULATIONS: dict[str, int] = {
    "paper": 100_000,
    "small": 20_000,
    "tiny": 4_000,
}

#: Horizon per scale of the ``mega`` and ``mega2`` tiers: short (tens of
#: state rounds), because the point is round throughput at scale, not
#: day-long series.
MEGA_DURATIONS: dict[str, float] = {
    "paper": 1800.0,
    "small": 1500.0,
    "tiny": 1200.0,
}

#: Population per scale of the ``mega2`` tier: the next rung toward 10^6
#: nodes under mega's levers and horizons — 3x10^5 nodes at ``paper``.
MEGA2_POPULATIONS: dict[str, int] = {
    "paper": 300_000,
    "small": 40_000,
    "tiny": 8_000,
}


def scalability_populations(scale: str, base_n: int | None = None) -> list[int]:
    """Table III population sweep, scaled: the paper uses 2000..12000.

    ``base_n`` overrides the sweep's base population (default: the named
    scale's) while keeping the 1x..6x shape.
    """
    base = base_n if base_n is not None else SCALES[scale][0]
    return [base * m for m in (1, 2, 3, 4, 5, 6)]


def run_protocol(
    protocol: str,
    scale: str = "small",
    demand_ratio: float = 1.0,
    seed: int = 42,
    **overrides: Any,
) -> SimulationResult:
    """Run a single protocol curve and return its result."""
    config = ExperimentConfig.at_scale(
        scale, protocol=protocol, demand_ratio=demand_ratio, seed=seed, **overrides
    )
    return SOCSimulation(config).run()


# ----------------------------------------------------------------------
# config grids (one ExperimentConfig per figure curve)
# ----------------------------------------------------------------------
def _protocol_grid(
    protocols: tuple[str, ...],
    scale: str,
    default_demand_ratio: float,
    seed: int,
    **overrides: Any,
) -> dict[str, ExperimentConfig]:
    # Overrides win over the scenario's default regime (demand-ratio
    # ablations) but never over what the grid itself sweeps (protocol)
    # or the per-cell seed.
    params = {"demand_ratio": default_demand_ratio, **overrides}
    params.pop("protocol", None)
    params.pop("seed", None)
    return {
        p: ExperimentConfig.at_scale(scale, protocol=p, seed=seed, **params)
        for p in protocols
    }


def fig4a_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """T-Ratio over a day at demand ratio 0.84 (wide demands)."""
    return _protocol_grid(FIG4_PROTOCOLS, scale, 0.84, seed, **overrides)


def fig4b_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Same at demand ratio 0.25 — the Newscast/SID-CAN crossover."""
    return _protocol_grid(FIG4_PROTOCOLS, scale, 0.25, seed, **overrides)


def fig5_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Six protocols at λ=1 (T-Ratio, F-Ratio, fairness series)."""
    return _protocol_grid(FIG567_PROTOCOLS, scale, 1.0, seed, **overrides)


def fig6_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Six protocols at λ=0.5."""
    return _protocol_grid(FIG567_PROTOCOLS, scale, 0.5, seed, **overrides)


def fig7_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Six protocols at λ=0.25 (HID's near-zero failed tasks)."""
    return _protocol_grid(FIG567_PROTOCOLS, scale, 0.25, seed, **overrides)


def fig8_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """HID-CAN under churn, λ=0.5 (dynamic degree sweep)."""
    if "churn_degree" in overrides:
        raise ValueError(
            "fig8 sweeps churn_degree; drop the override or exclude fig8"
        )
    params = {"protocol": "hid-can", "demand_ratio": 0.5, **overrides}
    params.pop("seed", None)
    out: dict[str, ExperimentConfig] = {}
    for degree in CHURN_DEGREES:
        label = "static" if degree == 0 else f"dynamic {degree:.0%}"
        out[label] = ExperimentConfig.at_scale(
            scale, seed=seed, churn_degree=degree, **params
        )
    return out


def churn_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Churn-hardened protocol comparison (λ=0.5): the full protocol axis
    × dynamic degree, one cell per (protocol, degree).

    Beyond Fig. 8 (which sweeps churn for HID-CAN only): every baseline
    runs under the same dynamic membership, and their failsafe-timeout
    failures are compared through the ``query_timeouts`` metric.
    """
    if "churn_degree" in overrides:
        raise ValueError(
            "churn sweeps churn_degree; drop the override or exclude churn"
        )
    params = {"demand_ratio": 0.5, **overrides}
    params.pop("protocol", None)
    params.pop("seed", None)
    out: dict[str, ExperimentConfig] = {}
    for degree in CHURN_SWEEP_DEGREES:
        for protocol in CHURN_SWEEP_PROTOCOLS:
            out[f"{protocol} @ {degree:.0%}"] = ExperimentConfig.at_scale(
                scale, protocol=protocol, seed=seed, churn_degree=degree,
                **params,
            )
    return out


def burst_configs(
    scale: str = "small",
    seed: int = 42,
    burst_factor: float = 8.0,
    **overrides: Any,
) -> dict[str, ExperimentConfig]:
    """High-throughput stress: every node submits ``burst_factor`` times
    more often than the Table II regime (λ=0.5), so many query chains are
    in flight concurrently and duty-node caches are scanned at production
    rates.  Not a paper figure — a scale scenario for the vectorized
    cache and the query engine's concurrency behaviour."""
    return _protocol_grid(
        BURST_PROTOCOLS, scale, 0.5, seed, burst_factor=burst_factor, **overrides
    )


def hotrange_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """Hot-range caching grid (docs/caching.md): HID-CAN under
    Zipf-skewed demand (s=1, λ=0.5, burst ×8 so caches warm within the
    horizon), one cell per eviction policy × replication on/off, plus the
    cache-off control every cell is compared against.

    The sweep's own axes (``cache_policy``, ``cache_replication``) cannot
    be overridden; everything else (``zipf_s`` for the skew ablation,
    ``n_nodes``/``duration`` for smokes) applies verbatim.
    """
    params: dict[str, Any] = {
        "protocol": "hid-can",
        "demand_ratio": 0.5,
        "burst_factor": 8.0,
        "zipf_s": 1.0,
        "cache_ttl": 2400.0,
        **overrides,
    }
    for swept in ("cache_policy", "cache_replication", "seed"):
        params.pop(swept, None)
    out: dict[str, ExperimentConfig] = {
        "off": ExperimentConfig.at_scale(scale, seed=seed, **params)
    }
    for policy in HOTRANGE_POLICIES:
        out[policy] = ExperimentConfig.at_scale(
            scale, seed=seed, cache_policy=policy, **params
        )
        out[f"{policy}+repl"] = ExperimentConfig.at_scale(
            scale, seed=seed, cache_policy=policy, cache_replication=True,
            **params,
        )
    return out


def table3_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """HID-CAN scalability sweep (λ=0.5): four metrics vs population.

    An ``n_nodes`` override rebases the sweep (1x..6x of the override)
    instead of being applied verbatim — shrunk campaigns shrink the whole
    sweep rather than silently ignoring the override.
    """
    params = {"protocol": "hid-can", "demand_ratio": 0.5, **overrides}
    base_n = params.pop("n_nodes", None)
    params.pop("seed", None)
    base = ExperimentConfig.at_scale(scale, seed=seed, **params)
    return {
        str(n): replace(base, n_nodes=n)
        for n in scalability_populations(scale, base_n)
    }


def mega_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """The coalesced 10^5-node tier (docs/coalescing.md): HID-CAN at
    λ=0.5 with cohort ticking, quantized (hence batched) arrivals and a
    0.1 s delivery quantum — every batching lever on at once.

    Populations/horizons come from :data:`MEGA_POPULATIONS` /
    :data:`MEGA_DURATIONS` rather than the figure scales: ``paper`` is
    100 000 nodes over a short horizon.  Overrides (``n_nodes``,
    ``duration``, ...) apply verbatim, so smokes can shrink a cell.
    """
    if scale not in MEGA_POPULATIONS:
        raise ValueError(
            f"unknown scale {scale!r}; expected {sorted(MEGA_POPULATIONS)}"
        )
    params: dict[str, Any] = {
        "n_nodes": MEGA_POPULATIONS[scale],
        "duration": MEGA_DURATIONS[scale],
        "protocol": "hid-can",
        "demand_ratio": 0.5,
        "pidcan": PIDCANParams(phase_buckets=16),
        "arrival_quantum": 1.0,
        "delivery_quantum": 0.1,
        "sample_period": 300.0,
        **overrides,
    }
    params.pop("seed", None)
    return {"hid-can": ExperimentConfig(seed=seed, **params)}


def mega2_configs(
    scale: str = "small", seed: int = 42, **overrides: Any
) -> dict[str, ExperimentConfig]:
    """The 3x10^5-node tier: the :func:`mega_configs` cell — same levers,
    same short horizons — over :data:`MEGA2_POPULATIONS`, three times the
    population on the way to 10^6 nodes.  Overrides apply verbatim, so
    smokes can shrink a cell.
    """
    if scale not in MEGA2_POPULATIONS:
        raise ValueError(
            f"unknown scale {scale!r}; expected {sorted(MEGA2_POPULATIONS)}"
        )
    return mega_configs(
        scale, seed=seed, **{"n_nodes": MEGA2_POPULATIONS[scale], **overrides}
    )


#: Scenario name → config-grid builder (labels follow the paper's curves).
SCENARIO_CONFIGS: dict[str, Callable[..., dict[str, ExperimentConfig]]] = {
    "fig4a": fig4a_configs,
    "fig4b": fig4b_configs,
    "fig5": fig5_configs,
    "fig6": fig6_configs,
    "fig7": fig7_configs,
    "fig8": fig8_configs,
    "churn": churn_configs,
    "burst": burst_configs,
    "hotrange": hotrange_configs,
    "table3": table3_configs,
    "mega": mega_configs,
    "mega2": mega2_configs,
}


def scenario_configs(
    name: str, scale: str = "small", seed: int = 42, **kwargs: Any
) -> dict[str, ExperimentConfig]:
    """The ``{label: config}`` grid of one scenario, without running it.

    Extra keyword arguments become config overrides (``burst_factor`` for
    the burst scenario, anything :class:`ExperimentConfig` accepts for the
    rest) — the hook campaigns use to shrink cells.
    """
    try:
        builder = SCENARIO_CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIO_CONFIGS)}"
        ) from None
    return builder(scale=scale, seed=seed, **kwargs)


# ----------------------------------------------------------------------
# serial scenario runner (the `python -m repro <scenario>` path)
# ----------------------------------------------------------------------
#: Every scenario name, in experiment-index order.
SCENARIOS: tuple[str, ...] = tuple(SCENARIO_CONFIGS)


def run_scenario(
    name: str, scale: str = "small", seed: int = 42, **kwargs: Any
) -> dict[str, SimulationResult]:
    """Run one scenario's grid serially, by its paper figure/table id:
    ``{label: SimulationResult}``.  Extra keyword arguments are the
    config overrides :func:`scenario_configs` takes (``burst_factor``,
    ``n_nodes``/``duration`` for smokes, ``zipf_s`` for ablations)."""
    configs = scenario_configs(name, scale=scale, seed=seed, **kwargs)
    return {label: SOCSimulation(cfg).run() for label, cfg in configs.items()}
