"""Per-node protocol assembly for PID-CAN and the variant factory.

``PIDCANProtocol`` owns the INSCAN overlay, per-node state caches γ,
PILists and index-pointer tables, and drives three periodic activities per
node (they stop when the node churns out):

- **state update** (cycle 400 s, TTL 600 s — §IV-A): availability ``a_i``
  is measured and routed over INSCAN to its duty node;
- **index diffusion** (Algorithm 1): when the local cache γ is non-empty,
  diffuse the node's identifier backwards (SID or HID);
- **pointer-table refresh**: rebuild the 2^k directional pointers (also
  repairing churn damage), charged as maintenance traffic.

The factory :func:`make_protocol` builds every protocol evaluated in §IV:
``sid``, ``hid``, ``sid+sos``, ``hid+sos``, ``sid+vd``, plus the baselines
(``newscast``, ``khdn-can``, ``randomwalk-can``, ``mercury``,
``inscan-rq``) from :mod:`repro.baselines` — see ``docs/baselines.md``.

:class:`DutyStateProtocol` is the one home of the overlay + duty-cache
substrate and the periodic-activity plumbing (phase draws, cohort timers,
the state-update action and round) that PID-CAN and the duty-cache
baselines (:mod:`repro.baselines.can_base`) share.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.can.inscan import (
    IndexPointerTable, inscan_path, inscan_paths, max_pointer_exponent,
)
from repro.can.overlay import CANOverlay
from repro.can.routing import RoutingError
from repro.core.cache import PathCacheIndex
from repro.core.context import ProtocolContext
from repro.core.diffusion import DiffusionEngine
from repro.core.lifecycle import QueryLifecycle
from repro.core.pilist import PIList
from repro.core.query import QueryEngine, QueryParams
from repro.core.state import StateCache, StateRecord
from repro.sim.rng import bulk_index_draw

__all__ = [
    "DiscoveryProtocol",
    "DutyStateProtocol",
    "PIDCANParams",
    "PIDCANProtocol",
    "make_protocol",
    "PROTOCOL_NAMES",
    "quantize_phase",
]


def quantize_phase(u: np.ndarray, period: np.ndarray, buckets: int) -> np.ndarray:
    """Snap uniform phase draws ``u ~ U(0, period)`` down onto the
    ``buckets``-point grid ``{0, period/buckets, ...}`` of their period,
    elementwise.

    Quantization is what makes nodes share tick instants at all: with
    continuous phases every cohort would hold one node.  The draw itself
    is kept (and only then snapped) so the RNG stream position is
    identical across bucket counts.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets!r}")
    b = np.minimum((u / period * buckets).astype(np.int64), buckets - 1)
    return b * (period / buckets)


class DiscoveryProtocol(abc.ABC):
    """What the SOC runner needs from a resource-discovery protocol.

    Every concrete protocol owns a :class:`~repro.core.lifecycle.
    QueryLifecycle` (assigned to ``self.lifecycle`` in its constructor)
    and routes all ``submit_query`` / ``submit_bulk`` work through it, so
    queries resolve exactly once even when churn swallows a chain — the
    invariant batched submission and the churn campaigns rely on.
    """

    name: str = "abstract"
    #: The shared requester-side query machinery; concrete protocols
    #: assign it in their constructor.
    lifecycle: QueryLifecycle

    @abc.abstractmethod
    def bootstrap(self, node_ids: list[int]) -> None:
        """Build initial protocol state for the starting population."""

    @abc.abstractmethod
    def on_join(self, node_id: int) -> None:
        """A node churned in."""

    @abc.abstractmethod
    def on_leave(self, node_id: int) -> None:
        """A node churned out (state it held is gone)."""

    @abc.abstractmethod
    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        """Find up to δ nodes whose availability dominates ``demand``; call
        ``callback(records, n_messages)`` exactly once."""

    def submit_bulk(
        self,
        items: Sequence[
            tuple[np.ndarray, int, Callable[[list[StateRecord], int], None]]
        ],
    ) -> None:
        """Submit same-instant queries from possibly-different requesters
        (the runner's arrival coalescing).  Each item's callback fires
        exactly once, independently.  The default fans out to
        :meth:`submit_query` in arrival order — behaviourally identical to
        uncoalesced submission for every protocol; PID-CAN overrides this
        with a natively batched routing pass."""
        for demand, requester, callback in items:
            self.submit_query(demand, requester, callback)


@dataclass(frozen=True, slots=True)
class PIDCANParams:
    """The protocol-level PID-CAN knobs; defaults follow §IV-A and
    DESIGN.md §5.  Experiment-level knobs (path caching, quanta, churn,
    workload) live on ``ExperimentConfig`` only — no name is declared on
    both (``tests/experiments/test_config.py`` checks)."""

    diffusion_method: str = "hid"  # "hid" | "sid"
    sos: bool = False
    vd: bool = False
    resource_dims: int = 5
    L: int = 2
    delta: int = 3
    jump_list_size: int = 5
    check_duty_cache: bool = True
    state_ttl: float = 600.0
    state_period: float = 400.0
    diffusion_period: float = 400.0
    pilist_ttl: float = 1200.0
    pilist_max: int = 64
    table_refresh_period: float = 3600.0
    query_timeout: float = 60.0
    sos_bias: float = 1.0
    #: 0 = the seed's continuous phases: every node ticks at its own
    #: instants through one self-chaining timer per activity.  >= 1
    #: quantizes phase draws onto a shared grid of that many instants per
    #: period, and one CohortTimer per (activity, phase) delivers each
    #: instant's members to a batched round (docs/coalescing.md).
    phase_buckets: int = 0

    def __post_init__(self) -> None:
        for name in ("state_ttl", "state_period", "diffusion_period", "pilist_ttl",
                     "table_refresh_period", "query_timeout"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # (also rejects NaN)
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("L", "delta", "jump_list_size", "pilist_max"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.phase_buckets < 0:
            raise ValueError(f"phase_buckets must be >= 0, got {self.phase_buckets!r}")

    @property
    def overlay_dims(self) -> int:
        return self.resource_dims + (1 if self.vd else 0)

    def query_params(self) -> QueryParams:
        return QueryParams(
            delta=self.delta,
            jump_list_size=self.jump_list_size,
            check_duty_cache=self.check_duty_cache,
            sos=self.sos,
            sos_bias=self.sos_bias,
            vd=self.vd,
            timeout=self.query_timeout,
        )


class DutyStateProtocol(DiscoveryProtocol):
    """CAN overlay + per-node duty caches γ + INSCAN pointer tables + the
    §IV-A periodic state updates routed to duty nodes: the substrate
    PID-CAN and the duty-cache baselines share.

    It is also the one home of the periodic-activity plumbing.
    Subclasses list their activities in :meth:`_periodic_kinds`;
    ``params.phase_buckets`` alone selects how they tick — continuous
    per-node phases through ``ctx.start_periodic_many`` (scalar actions), or
    quantized phases through one cohort timer per (activity, phase)
    (batched rounds).  Two hooks specialize the state update:
    :meth:`_virtual_coordinates` (PID-CAN's VD variants) and
    :meth:`_on_state_stored` (KHDN's K-hop replication).

    This constructor is the one place every CAN protocol gets its
    :class:`CANOverlay`; a whole-experiment cross-check swaps this
    module's ``CANOverlay`` for the scalar
    :class:`tests.oracles.ReferenceCANOverlay`
    (:func:`tests.oracles.assert_oracle_equivalent`).
    """

    def __init__(
        self, ctx: ProtocolContext, params: PIDCANParams, overlay_dims: int
    ):
        self.ctx = ctx
        self.params = params
        self.overlay = CANOverlay(overlay_dims, ctx.rng)
        self.caches: dict[int, StateCache] = {}
        self.tables: dict[int, IndexPointerTable] = {}
        #: (activity kind, phase) -> shared CohortTimer (phase_buckets >= 1):
        #: at most ``phase_buckets`` per activity, so a departing node is
        #: discarded from each of them instead of from a list of its own.
        self._cohorts: dict[tuple[str, float], "object"] = {}

    # ------------------------------------------------------------------
    # periodic activities (they die with the node)
    # ------------------------------------------------------------------
    def _periodic_kinds(self) -> tuple:
        """``(kind, period, round_fn, action)`` per periodic activity, in
        arming order: ``action(node_id)`` is the scalar tick,
        ``round_fn(members)`` its batched cohort twin."""
        return (
            ("state", self.params.state_period, self._state_round,
             self._state_update),
        )

    def _arm_all(self, node_ids: Sequence[int]) -> None:
        """Arm every periodic activity for a set of nodes.

        With ``phase_buckets == 0`` this is the seed's path: continuous
        per-node phases make every cohort a singleton, so each node gets
        one self-chaining timer per activity running the scalar action.
        Either way every phase is drawn in one call, the values of
        ``uniform(0, period)`` (see
        :meth:`~repro.core.context.ProtocolContext.start_periodic_many`),
        in **node-major** order (the seed's RNG stream order: one draw
        per activity, node by node).  With buckets the draws are snapped by
        :func:`quantize_phase`, and cohort
        membership is filled **kind-major** — all state ticks, then all
        diffusion ticks, then all table refreshes — the delivery order
        the per-member reference scheduler reproduces event for event
        (see ``docs/coalescing.md``).
        """
        kinds = self._periodic_kinds()
        buckets = self.params.phase_buckets
        if buckets == 0:
            self.ctx.start_periodic_many(
                node_ids, [(period, action) for _, period, _, action in kinds],
                self._ticking,
            )
            return
        periods = np.array([period for _, period, _, _ in kinds] * len(node_ids))
        draws = periods * self.ctx.rng.random(len(periods))  # (uniform(0, period)'s values)
        phases = quantize_phase(draws, periods, buckets).reshape(-1, len(kinds)).tolist()
        for i, (kind, period, round_fn, _) in enumerate(kinds):
            for node_id, node_phases in zip(node_ids, phases):
                key = (kind, node_phases[i])
                timer = self._cohorts.get(key)
                if timer is None:
                    timer = self._cohorts[key] = self.ctx.sim.periodic_cohort(
                        period, round_fn, epoch=node_phases[i]
                    )
                timer.add(node_id)

    def _disarm(self, node_id: int) -> None:
        """Drop ``node_id`` from every cohort timer (and cancel its
        pending straggler): a discard is a no-op where it is no member."""
        for timer in self._cohorts.values():
            timer.discard(node_id)

    def _ticking(self, node_id: int) -> bool:
        return self.ctx.is_alive(node_id) and node_id in self.overlay

    def _live_members(self, members: Sequence[int]) -> list[int]:
        """A cohort batch filtered by the liveness predicate the
        self-chaining timers use; ``_disarm`` also discards members
        eagerly, so this is a belt-and-braces guard."""
        return [m for m in members if self._ticking(m)]

    # ------------------------------------------------------------------
    # state updates: the scalar action and the batched round
    # ------------------------------------------------------------------
    def _virtual_coordinates(self, n: int) -> Optional[np.ndarray]:
        """Hook: ``n`` fresh coordinates for an extra (virtual) overlay
        dimension, drawn in member order, or None when the overlay has
        only the resource dimensions."""
        return None

    def _on_state_stored(self, duty: int, record: StateRecord) -> None:
        """Hook invoked after a state record lands in ``duty``'s cache
        (KHDN replicates it to the negative K-hop frontier here)."""

    def _state_update(self, node_id: int) -> None:
        availability = self.ctx.availability_of(node_id)
        record = StateRecord(node_id, availability.copy(), self.ctx.sim.now)
        point = self.ctx.normalize(availability)
        extra = self._virtual_coordinates(1)
        if extra is not None:
            point = np.append(point, extra)
        try:
            path = inscan_path(self.overlay, self.tables, node_id, point)
        except (RoutingError, KeyError):
            return  # overlay mid-repair; next cycle retries
        self.ctx.send_path(
            "state-update", path, self._deliver_state, path[-1], record
        )

    def _state_round(self, members: Sequence[int]) -> None:
        """One state-update cycle for a whole cohort: per-member records
        and query points are built in member order (virtual coordinates
        included, so the protocol RNG stream matches member-by-member
        ticking), every route is computed in one batched
        :func:`inscan_paths` pass, and the sends go out in the same
        member order."""
        live = self._live_members(members)
        if not live:
            return
        now = self.ctx.sim.now
        # One SoA gather + one rowwise normalize; rows are bitwise-equal
        # to the per-member ``availability_of`` / ``normalize`` sequence.
        avail = self.ctx.availability_matrix(live)
        records = [
            StateRecord(node_id, avail[i].copy(), now)
            for i, node_id in enumerate(live)
        ]
        points = self.ctx.normalize(avail)
        extra = self._virtual_coordinates(len(live))
        if extra is not None:
            points = np.concatenate([points, extra[:, None]], axis=1)
        paths = inscan_paths(
            self.overlay, self.tables, live, points, on_error="none",
        )
        routed = [
            (record, path) for record, path in zip(records, paths)
            if path is not None  # overlay mid-repair; next round retries
        ]
        if routed:
            self.ctx.send_path_batch(
                "state-update",
                [path for _, path in routed],
                self._deliver_state,
                [(path[-1], record) for record, path in routed],
            )

    def _deliver_state(self, duty: int, record: StateRecord) -> None:
        cache = self.caches.get(duty)
        if cache is not None:
            cache.put(record)
            self._on_state_stored(duty, record)

    # ------------------------------------------------------------------
    # pointer tables
    # ------------------------------------------------------------------
    def _build_tables(self, node_ids: Sequence[int], charge: bool) -> None:
        """Build the pointer tables of ``node_ids`` in order, every walk
        drawing in one :func:`~repro.sim.rng.bulk_index_draw` scope on the
        ctx stream (the draws of one ``build_index_table`` call per node;
        about one per walk is expected)."""
        walks = 2 * self.overlay.dims * len(node_ids)
        with bulk_index_draw(self.ctx.rng, walks) as below:
            for node_id in node_ids:
                self._store_table(node_id, below, charge)

    def _refresh_table(self, node_id: int, charge: bool) -> None:
        self._store_table(node_id, self.ctx.below, charge)

    def _store_table(
        self, node_id: int, below: Callable[[int], int], charge: bool
    ) -> None:
        overlay = self.overlay
        hops = 1 << max_pointer_exponent(len(overlay), overlay.dims)
        table = IndexPointerTable(node_id, *overlay.pointer_walks(node_id, hops, below))
        self.tables[node_id] = table
        if charge:
            self.ctx.charge_local("maintenance", node_id, table.build_messages)


class PIDCANProtocol(DutyStateProtocol):
    """Proactive Index-Diffusion CAN (§III)."""

    def __init__(
        self,
        ctx: ProtocolContext,
        params: PIDCANParams,
        path_cache: Optional[PathCacheIndex] = None,
    ):
        super().__init__(ctx, params, params.overlay_dims)
        self.name = _variant_name(params)
        self.pilists: dict[int, PIList] = {}
        self.diffusion = DiffusionEngine(
            ctx, self.tables, self.pilists, params.overlay_dims, params.L
        )
        #: Hot-range path cache (docs/caching.md), built by the caller;
        #: None — and every code path below a ``path_cache is None`` guard
        #: stays dead — when caching is off.
        self.path_cache = path_cache
        self.queries = QueryEngine(
            ctx, self.overlay, self.tables, self.caches, self.pilists,
            params.query_params(), cache=self.path_cache,
        )
        self.lifecycle = self.queries.lifecycle

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def bootstrap(self, node_ids: list[int]) -> None:
        self.overlay.bootstrap(node_ids)
        for node_id in node_ids:
            self._init_node_state(node_id)
        # Tables are built after the full overlay exists, then kept fresh
        # by the periodic refresh.
        self._build_tables(node_ids, charge=False)
        self._arm_all(node_ids)

    def on_join(self, node_id: int) -> None:
        self.overlay.join(node_id)
        self._init_node_state(node_id)
        self._build_tables([node_id], charge=True)
        self._arm_all([node_id])

    def on_leave(self, node_id: int) -> None:
        if node_id in self.overlay:
            self.overlay.leave(node_id)
        self.caches.pop(node_id, None)
        self.pilists.pop(node_id, None)
        self.tables.pop(node_id, None)
        if self.path_cache is not None:
            self.path_cache.drop_node(node_id)
        self._disarm(node_id)

    def _init_node_state(self, node_id: int) -> None:
        self.caches[node_id] = StateCache(self.params.state_ttl)
        self.pilists[node_id] = PIList(self.params.pilist_ttl, self.params.pilist_max)
        if self.path_cache is not None:
            self.path_cache.add_node(node_id, self.params.overlay_dims)

    # ------------------------------------------------------------------
    # periodic activities: state update (inherited), diffusion, tables
    # ------------------------------------------------------------------
    def _periodic_kinds(self) -> tuple:
        p = self.params
        return super()._periodic_kinds() + (
            ("diffusion", p.diffusion_period, self._diffusion_round,
             self._diffusion_tick),
            ("table", p.table_refresh_period, self._table_round,
             self._table_tick),
        )

    def _virtual_coordinates(self, n: int) -> Optional[np.ndarray]:
        return self.ctx.rng.uniform(size=n) if self.params.vd else None

    def _diffusion_tick(self, node_id: int) -> None:
        cache = self.caches.get(node_id)
        if cache is not None and cache.non_empty(self.ctx.sim.now):
            self.diffusion.diffuse(node_id, self.params.diffusion_method)
        self._maybe_replicate(node_id)

    def _diffusion_round(self, members: Sequence[int]) -> None:
        now = self.ctx.sim.now
        live = self._live_members(members)
        origins = []
        for node_id in live:
            cache = self.caches.get(node_id)
            if cache is not None and cache.non_empty(now):
                origins.append(node_id)
        if origins:
            self.diffusion.diffuse_round(origins, self.params.diffusion_method)
        for node_id in live:
            self._maybe_replicate(node_id)

    def _maybe_replicate(self, node_id: int) -> None:
        """Hot-partition replica diffusion (docs/caching.md), piggybacked
        on the diffusion tick: a duty node whose windowed service count
        crossed the threshold gathers the hot partition's records from
        its PIList pool and pushes the merged partition to its adjacent
        zones."""
        path_cache = self.path_cache
        if path_cache is None or not path_cache.replication:
            return
        if path_cache.take_hot(node_id, self.ctx.sim.now):
            node = self.overlay.nodes.get(node_id)
            neighbors = sorted(node.directions) if node is not None else ()
            sent = self.diffusion.replicate(
                node_id, self.caches, neighbors=neighbors
            )
            if sent:
                path_cache.stats.replications += 1
                path_cache.stats.replica_messages += sent

    def _table_tick(self, node_id: int) -> None:
        self._refresh_table(node_id, charge=True)

    def _table_round(self, members: Sequence[int]) -> None:
        for node_id in self._live_members(members):
            self._table_tick(node_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        self.queries.submit(demand, requester, callback)

    def submit_bulk(
        self,
        items: Sequence[
            tuple[np.ndarray, int, Callable[[list[StateRecord], int], None]]
        ],
    ) -> None:
        self.queries.submit_burst(items)


def _variant_name(params: PIDCANParams) -> str:
    name = f"{params.diffusion_method}-can"
    if params.sos:
        name += "+sos"
    if params.vd:
        name += "+vd"
    return name


#: Every protocol name accepted by :func:`make_protocol` (the six §IV
#: variants plus extra baselines/ablations).
PROTOCOL_NAMES = (
    "hid-can",
    "sid-can",
    "hid-can+sos",
    "sid-can+sos",
    "sid-can+vd",
    "hid-can+vd",
    "newscast",
    "khdn-can",
    "randomwalk-can",
    "mercury",
    "inscan-rq",
)


def make_protocol(
    name: str,
    ctx: ProtocolContext,
    params: PIDCANParams | None = None,
    path_cache: Optional[PathCacheIndex] = None,
    **baseline_kwargs,
) -> DiscoveryProtocol:
    """Build any evaluated protocol by its paper name.

    ``params`` seeds the PID-CAN knobs (variant flags are overridden by the
    name); baselines receive shared knobs (delta, timeout, periods) from
    ``params`` and accept protocol-specific overrides via kwargs.  Every
    CAN-routing protocol builds its overlay in
    :class:`DutyStateProtocol`.  ``path_cache`` is the hot-range
    :class:`PathCacheIndex` (docs/caching.md) the PID-CAN variants route
    through; the baselines have no path cache and ignore it.
    """
    base = params or PIDCANParams()
    key = name.lower()
    if key in ("hid-can", "sid-can", "hid-can+sos", "sid-can+sos",
               "sid-can+vd", "hid-can+vd"):
        method = "hid" if key.startswith("hid") else "sid"
        return PIDCANProtocol(
            ctx,
            replace(base, diffusion_method=method,
                    sos="+sos" in key, vd="+vd" in key),
            path_cache=path_cache,
        )
    if key == "newscast":
        from repro.baselines.newscast import NewscastProtocol

        return NewscastProtocol(ctx, base, **baseline_kwargs)
    if key == "khdn-can":
        from repro.baselines.khdn import KHDNProtocol

        return KHDNProtocol(ctx, base, **baseline_kwargs)
    if key == "randomwalk-can":
        from repro.baselines.randomwalk import RandomWalkProtocol

        return RandomWalkProtocol(ctx, base, **baseline_kwargs)
    if key == "mercury":
        from repro.baselines.mercury import MercuryProtocol

        return MercuryProtocol(ctx, base, **baseline_kwargs)
    if key == "inscan-rq":
        from repro.baselines.inscan_rq import InscanRQProtocol

        return InscanRQProtocol(ctx, base, **baseline_kwargs)
    raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}")
