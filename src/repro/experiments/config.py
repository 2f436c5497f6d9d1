"""Experiment configuration and scale presets.

``paper`` matches §IV-A (2000 nodes, one simulated day); ``small`` and
``tiny`` shrink the population and horizon while keeping the *per-node*
load regime identical (same arrival process, same demand distributions),
which preserves protocol orderings and crossovers — the properties the
benchmarks assert.  Select with ``ExperimentConfig.at_scale``; the
benchmarks read theirs from ``REPRO_SCALE`` (``benchmarks/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.protocol import PIDCANParams
from repro.sim.network import NetworkParams

__all__ = [
    "ExperimentConfig",
    "SCALES",
    "config_to_dict",
    "config_from_dict",
]


#: (n_nodes, duration_seconds) per named scale.
SCALES: dict[str, tuple[int, float]] = {
    "paper": (2000, 86400.0),
    "small": (400, 21600.0),
    "tiny": (120, 7200.0),
}


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """The experiment-level knobs of one SOC simulation run: population,
    workload, scheduling policy, churn, coalescing quanta, path caching
    and environment.  Protocol-level knobs live on ``pidcan``
    (:class:`~repro.core.protocol.PIDCANParams`) and network ones on
    ``network`` — every knob is declared on exactly one of the three."""

    # population / horizon ---------------------------------------------
    n_nodes: int = 400
    duration: float = 21600.0
    seed: int = 42

    # workload (§IV-A / Table II) --------------------------------------
    demand_ratio: float = 1.0
    mean_interarrival: float = 3000.0
    mean_nominal_time: float = 3000.0
    #: Arrival-rate multiplier for high-throughput burst scenarios: every
    #: node submits ``burst_factor`` times more often than the Table II
    #: regime (the per-node Poisson process keeps its shape, only its rate
    #: scales), stressing concurrent query chains and duty-cache scans.
    burst_factor: float = 1.0

    # protocol ----------------------------------------------------------
    protocol: str = "hid-can"
    pidcan: PIDCANParams = field(default_factory=PIDCANParams)
    protocol_kwargs: dict[str, Any] = field(default_factory=dict)

    # scheduling policy (DESIGN.md §5) -----------------------------------
    admission: str = "none"  # "none" | "strict"
    local_first: bool = False
    selection_policy: str = "best-fit"

    # churn (Fig. 8) -----------------------------------------------------
    churn_degree: float = 0.0  # fraction of nodes churning per lifetime
    churn_lifetime: float = 3000.0
    #: The paper's churn disconnects nodes from the *overlay* (discovery
    #: state is lost) while resident tasks run to completion — Fig. 8's
    #: near-flat T-Ratio at 25-50% churn is impossible otherwise, and
    #: execution fault tolerance is explicitly future work (§VI).  Set
    #: True to also kill resident tasks (ablation).
    churn_kills_tasks: bool = False
    #: §VI future work: checkpoint/restart on top of the discovery
    #: protocol.  Only meaningful with ``churn_kills_tasks=True``: killed
    #: tasks roll back to their last snapshot and re-run the query.
    checkpoint_enabled: bool = False
    checkpoint_period: float = 600.0

    # event coalescing (docs/coalescing.md) ------------------------------
    #: Round task arrival times *up* onto this grid (0 = exact).  The
    #: exponential draws are untouched — only the fire instants snap — so
    #: many arrivals share an instant; the runner hands each instant's
    #: queries to the protocol as one ``submit_bulk`` batch
    #: (event-identical to one-by-one submission at the same instants).
    arrival_quantum: float = 0.0
    #: Round message delivery instants *up* onto this grid (0 = exact) so
    #: independent messages collide into real batches in the
    #: :class:`repro.sim.delivery.DeliveryCalendar` every message goes
    #: through.  At 0 only genuinely same-instant deliveries share a heap
    #: event and the run is bit-identical to per-message scheduling; > 0
    #: stays deterministic but adds bounded latency per message — the
    #: delivery-side twin of ``arrival_quantum``.
    delivery_quantum: float = 0.0

    # hot-range path caching + replication (docs/caching.md) -------------
    #: None = cache off (bit-identical to the pre-cache protocol, pinned
    #: by equivalence tests); else one of
    #: :data:`repro.core.cache.CACHE_POLICIES` ("ttl", "lru", "lfu",
    #: "adaptive").  The runner builds the protocol's
    #: :class:`~repro.core.cache.PathCacheIndex` from these six fields.
    cache_policy: str | None = None
    cache_size: int = 128
    cache_ttl: float = 1200.0
    #: Diffuse a hot duty node's record partition to adjacent zones when
    #: its windowed service count crosses ``replication_threshold``.
    cache_replication: bool = False
    replication_threshold: int = 8
    replication_window: float = 400.0

    # skewed query workload (docs/caching.md) ----------------------------
    #: 0 = the Table II uniform demand sampler, byte-for-byte.  > 0 draws
    #: each task's demand near one of ``hot_ranges`` prototype ranges with
    #: Zipf(s)-distributed popularity and bounded-Pareto range widths.
    zipf_s: float = 0.0
    hot_ranges: int = 64

    # environment ---------------------------------------------------------
    network: NetworkParams = field(default_factory=NetworkParams)
    cmax_mode: str = "exact"  # "exact" | "gossip"
    sample_period: float = 3600.0
    #: Emit one TraceEvent per task lifecycle transition (repro.sim.tracing).
    trace_tasks: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.pidcan, PIDCANParams):
            raise TypeError(f"pidcan must be PIDCANParams, got {type(self.pidcan).__name__}")
        if not isinstance(self.network, NetworkParams):
            raise TypeError(f"network must be NetworkParams, got {type(self.network).__name__}")
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 0.0 < self.duration < math.inf:  # (also rejects NaN)
            raise ValueError(f"duration must be finite and positive, got {self.duration!r}")
        for name in ("sample_period", "churn_lifetime", "mean_nominal_time", "checkpoint_period"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.admission not in ("none", "strict"):
            raise ValueError(f"admission must be none|strict, got {self.admission}")
        if self.cmax_mode not in ("exact", "gossip"):
            raise ValueError(f"cmax_mode must be exact|gossip, got {self.cmax_mode}")
        if not 0.0 <= self.churn_degree < 1.0:
            raise ValueError("churn_degree must be in [0, 1)")
        # ``not x > 0``-style comparisons, so that NaN is refused too.
        if not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")
        if not self.burst_factor >= 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not self.arrival_quantum >= 0.0:
            raise ValueError("arrival_quantum must be >= 0")
        if not self.delivery_quantum >= 0.0:
            raise ValueError("delivery_quantum must be >= 0")
        if self.cache_policy is not None:
            from repro.core.cache import CACHE_POLICIES

            if self.cache_policy not in CACHE_POLICIES:
                raise ValueError(
                    f"cache_policy must be None or one of {CACHE_POLICIES}, "
                    f"got {self.cache_policy!r}"
                )
        if not self.cache_ttl > 0:
            raise ValueError("cache_ttl must be positive")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if self.replication_threshold < 1:
            raise ValueError("replication_threshold must be >= 1")
        if not self.replication_window > 0:
            raise ValueError("replication_window must be positive")
        if not self.zipf_s >= 0:
            raise ValueError("zipf_s must be >= 0")
        if self.hot_ranges < 1:
            raise ValueError("hot_ranges must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def at_scale(cls, scale: str = "small", **overrides: Any) -> "ExperimentConfig":
        """A config at a named scale with field overrides applied."""
        try:
            n_nodes, duration = SCALES[scale]
        except KeyError:
            raise ValueError(f"unknown scale {scale!r}; expected {sorted(SCALES)}") from None
        base = cls(n_nodes=n_nodes, duration=duration)
        return replace(base, **overrides) if overrides else base

    @property
    def effective_interarrival(self) -> float:
        """Per-node mean inter-arrival after the burst multiplier."""
        return self.mean_interarrival / self.burst_factor

    def describe(self) -> str:
        return (
            f"{self.protocol} n={self.n_nodes} λ={self.demand_ratio} "
            f"T={self.duration / 3600:.0f}h seed={self.seed}"
            + (f" churn={self.churn_degree:.0%}" if self.churn_degree else "")
            + (f" burst={self.burst_factor:g}x" if self.burst_factor != 1.0 else "")
        )


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """A JSON-ready dict for ``config`` (nested params become dicts).

    The inverse of :func:`config_from_dict`:
    ``config_from_dict(config_to_dict(c)) == c`` for any JSON-representable
    configuration — the property campaign persistence and the result store
    rely on.
    """
    doc = dataclasses.asdict(config)
    # Coerce any non-JSON scalar (e.g. numpy numbers in protocol_kwargs)
    # to its closest JSON type so the document survives a disk round-trip.
    return json.loads(json.dumps(doc, default=float))


def _migrate_retired_fields(data: dict[str, Any]) -> None:
    """Read documents written before fields left the config surface.

    ``coalesce_arrivals`` and ``pidcan.tick_mode`` selected between
    result-identical paths and are dropped.  ``coalesce_deliveries=False``
    meant per-message scheduling, which the calendar reproduces exactly
    only at quantum 0 — so a stored quantum that was never in effect is
    zeroed rather than switched on.

    The knobs retired by measurement (docs/coalescing.md) each became one
    fixed value: a document storing exactly that value still describes the
    same run and the key is dropped; any other value names a run this code
    can no longer reproduce and raises.  The memory sweep never changed a
    result at any setting, so its two keys are dropped whatever they hold.
    """
    data.pop("coalesce_arrivals", None)
    if not data.pop("coalesce_deliveries", True):
        data["delivery_quantum"] = 0.0
    data.pop("memory_budget_mb", None)
    data.pop("memory_sweep_period", None)
    became = {
        "compact_dtypes": False,
        "query_failsafe_timeout": 180.0,
        "placement_retries": 2,
        "range_width_alpha": 1.5,
    }
    pidcan_became = {
        "compact_dtypes": False,
        "cache_policy": None,
        "cache_size": 128,
        "cache_ttl": 1200.0,
        "cache_replication": False,
        "replication_threshold": 8,
        "replication_window": 400.0,
    }
    sections = [("", data, became)]
    pidcan = data.get("pidcan")
    if isinstance(pidcan, Mapping):
        pidcan = data["pidcan"] = dict(pidcan)
        pidcan.pop("tick_mode", None)
        sections.append(("pidcan.", pidcan, pidcan_became))
    for prefix, section, retired in sections:
        for name, value in retired.items():
            if name in section and section.pop(name) != value:
                raise ValueError(
                    f"config field {prefix}{name} was retired as the fixed "
                    f"value {value!r}; the stored value cannot be honoured"
                )


def config_from_dict(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict`
    output (e.g. the ``config`` section of a stored result document).
    Documents stored before fields were retired still load (see
    :func:`_migrate_retired_fields`); any other unknown key raises."""
    data = dict(doc)
    _migrate_retired_fields(data)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if isinstance(data.get("pidcan"), Mapping):
        data["pidcan"] = PIDCANParams(**data["pidcan"])
    if isinstance(data.get("network"), Mapping):
        data["network"] = NetworkParams(**data["network"])
    return ExperimentConfig(**data)
