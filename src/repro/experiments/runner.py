"""The full Self-Organizing Cloud simulation (§IV-A's experimental setup).

Wires together every substrate:

- hosts with Table-I machines on the shared vectorized PSM host engine
  (:mod:`repro.cloud`),
- the LAN/WAN network model and discrete-event engine (:mod:`repro.sim`),
- a pluggable discovery protocol (:mod:`repro.core` / :mod:`repro.baselines`),
- Poisson task arrivals (Table II),
- node churn (Fig. 8), and
- the §IV metrics (T-Ratio, F-Ratio, Jain fairness, traffic).

Task lifecycle: generated at its origin → multi-dimensional range query via
the protocol → best-fit selection among returned records → placement message
to the chosen host → PSM execution (shares re-computed at every scheduling
point) → completion ack to the origin.  Under the default ``admission=
"none"`` policy a selected host always accepts, so analogous queries that
pick the same host *contend*: every resident task's share drops below its
expectation and completion times stretch — exactly the §I failure mode that
T-Ratio measures.  ``admission="strict"`` (re-check Inequality 2 at
placement) is the ablation alternative.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cloud.checkpoint import CheckpointStore
from repro.cloud.engine import HostEngine
from repro.cloud.machine import (
    CMAX,
    MachineConfig,
    capacity_matrix,
    sample_machine,
    sample_machines,
)
from repro.cloud.resources import dominates
from repro.cloud.tasks import N_WORK_DIMS, Task, TaskFactory
from repro.cloud.workload import PoissonWorkload, SkewedTaskFactory
from repro.core.aggregation import gossip_aggregate
from repro.core.cache import PathCacheIndex
from repro.core.context import ProtocolContext
from repro.core.protocol import make_protocol
from repro.core.selection import select_record
from repro.core.state import StateRecord
from repro.experiments.config import ExperimentConfig
from repro.metrics.balance import BalanceReport, PlacementBalance
from repro.metrics.fairness import EfficiencyAccumulator
from repro.metrics.latency import LatencyReport, QueryLatency
from repro.metrics.collector import MetricsCollector
from repro.metrics.ratios import RatioTracker
from repro.metrics.traffic import TrafficMeter
from repro.sim.delivery import DeliveryCalendar
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import NetworkModel
from repro.sim.rng import RngRegistry
from repro.sim.stats import TimeSeries
from repro.sim.tracing import Tracer

__all__ = ["SOCSimulation", "SimulationResult", "HostNode", "run_config"]

#: Task dispatch ships input data, not just control traffic (64 KB).
PLACEMENT_MSG_BITS = 8 * 64 * 1024

#: How many further candidates a task tries after its chosen host turns
#: the placement down (dead, or full under ``admission="strict"``).
PLACEMENT_RETRIES = 2


@dataclass(slots=True)
class HostNode:
    """One participating host.  Execution state (resident tasks, shares,
    availability, predicted completion) lives in the shared
    :class:`~repro.cloud.engine.HostEngine`, keyed by ``node_id``."""

    node_id: int
    machine: MachineConfig


@dataclass
class SimulationResult:
    """Everything the benchmarks and reports consume."""

    config: ExperimentConfig
    series: dict[str, TimeSeries]
    generated: int
    finished: int
    failed: int
    placed: int
    evicted: int
    recovered: int
    traffic_by_kind: dict[str, int]
    traffic_total: int
    per_node_msg_cost: float
    peak_population: int
    balance: BalanceReport
    query_latency: LatencyReport
    efficiencies: list[float] = field(repr=False, default_factory=list)
    wall_clock_s: float = 0.0
    #: Queries resolved by the requester-side failsafe timeout (chains
    #: lost to churn) — the explicit-failure path that keeps every
    #: protocol's ``submit_many`` from hanging.
    query_timeouts: int = 0
    #: Hot-range path-cache counters (docs/caching.md); all zero when the
    #: cache is off or the protocol has none.
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale_hits: int = 0
    cache_relay_hits: int = 0
    replications: int = 0

    @property
    def t_ratio(self) -> float:
        return self.finished / self.generated if self.generated else 0.0

    @property
    def f_ratio(self) -> float:
        return self.failed / self.generated if self.generated else 0.0

    @property
    def fairness(self) -> float:
        from repro.metrics.fairness import jain_index

        return jain_index(self.efficiencies)

    @property
    def messages_per_query(self) -> float:
        """Mean protocol messages per resolved query (the Fig. 6/7 cost
        axis; NaN when no query resolved)."""
        return self.query_latency.mean_messages

    @property
    def cache_hit_ratio(self) -> float:
        """Served lookups (requester + relay) over requester consults;
        NaN when the cache never ran."""
        if not self.cache_lookups:
            return float("nan")
        return (self.cache_hits + self.cache_relay_hits) / self.cache_lookups

    @property
    def cache_regret(self) -> float:
        """Staleness-induced best-fit regret: the fraction of served
        lookups whose cached duty disagreed with the ground-truth owner
        of the query point.  NaN when nothing was served."""
        served = self.cache_hits + self.cache_relay_hits
        if not served:
            return float("nan")
        return self.cache_stale_hits / served

    def summary(self) -> dict[str, float]:
        return {
            "t_ratio": self.t_ratio,
            "f_ratio": self.f_ratio,
            "fairness": self.fairness,
            "per_node_msg_cost": self.per_node_msg_cost,
            "generated": float(self.generated),
            "finished": float(self.finished),
            "failed": float(self.failed),
            "query_timeouts": float(self.query_timeouts),
            "messages_per_query": self.messages_per_query,
            "cache_hit_ratio": self.cache_hit_ratio,
            "cache_regret": self.cache_regret,
            "cache_hits": float(self.cache_hits),
        }


def run_config(config: ExperimentConfig) -> SimulationResult:
    """Build and run one simulation for ``config``.

    A module-level function (unlike ``SOCSimulation(config).run()``) so it
    can cross a ``ProcessPoolExecutor`` boundary — campaign workers import
    and call it by reference.
    """
    return SOCSimulation(config).run()


class SOCSimulation:
    """Builds and runs one configured SOC experiment.

    ``engine`` defaults to the vectorized :class:`HostEngine`; tests pass
    :class:`repro.testing.ReferenceHostEngine` to cross-check the scalar
    execution substrate under the identical driver.  ``overlay_cls``
    likewise swaps the CAN overlay substrate on every CAN-routing
    protocol: the vectorized default or
    :class:`repro.testing.ReferenceCANOverlay` for the scalar
    cross-check.
    """

    def __init__(self, config: ExperimentConfig, engine=None, overlay_cls=None):
        """Construct the whole cell with the cyclic collector paused:
        building allocates hundreds of thousands of objects and frees
        none, so every automatic pass would walk a heap that holds no
        garbage.  The collector's state is restored as found, also when
        construction raises; one explicit young-generation collection
        then promotes the new objects here, in set-up, instead of
        leaving that to the first passes of the run."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._build(config, engine, overlay_cls)
        finally:
            if collecting:
                gc.enable()
        gc.collect(1)

    def _build(self, config: ExperimentConfig, engine, overlay_cls) -> None:
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.sim = Simulator()
        self.network = NetworkModel(config.network, self.rngs.stream("network"))
        self.traffic = TrafficMeter()
        self.ratios = RatioTracker()
        self.balance = PlacementBalance()
        self.latency = QueryLatency()
        self.tracer = Tracer(enabled=config.trace_tasks)
        self.engine = HostEngine() if engine is None else engine
        #: Every message (protocol traffic and task placements) reaches
        #: its handler through this calendar: one heap event per delivery
        #: instant, exact at quantum 0 (docs/coalescing.md).
        self.delivery = DeliveryCalendar(self.sim, quantum=config.delivery_quantum)
        self.hosts: dict[int, HostNode] = {}
        #: The live membership, and the one record of it: the protocol
        #: and the workload test ids against this set directly.
        self._alive: set[int] = set()
        self._next_node_id = 0
        self._peak_population = 0
        self._tasks: list[Task] = []
        #: The single simulator event backing the engine's completion
        #: calendar, plus the head it was scheduled for.
        self._completion_handle: Optional[EventHandle] = None
        self._completion_key: Optional[tuple[float, int, int]] = None

        # --- hosts (batch-sampled, batch-registered) -------------------
        machine_rng = self.rngs.stream("machines")
        self._machine_rng = machine_rng
        node_ids = list(range(config.n_nodes))
        self._next_node_id = config.n_nodes
        for node_id in node_ids:
            self.network.add_node(node_id)
        machines = sample_machines(
            machine_rng, [self.network.node_bandwidth_mbps(i) for i in node_ids]
        )
        capacities = capacity_matrix(machines)
        self.engine.add_hosts(node_ids, capacities)
        for node_id, machine in zip(node_ids, machines):
            self.hosts[node_id] = HostNode(node_id, machine)
            self._alive.add(node_id)
        self._peak_population = len(self._alive)

        # --- capacity statistics --------------------------------------
        self.mean_capacity = capacities.mean(axis=0)
        self.efficiency = EfficiencyAccumulator(self.mean_capacity[:N_WORK_DIMS])
        self.cmax = self._resolve_cmax()

        # --- protocol --------------------------------------------------
        self.ctx = ProtocolContext(
            sim=self.sim,
            network=self.network,
            traffic=self.traffic,
            rng=self.rngs.stream("protocol"),
            cmax=self.cmax,
            availability_of=self._availability_of,
            is_alive=self._alive.__contains__,
            availability_matrix_of=self._availability_matrix_of,
            delivery=self.delivery,
        )
        path_cache = None
        if config.cache_policy is not None:
            path_cache = PathCacheIndex(
                config.cache_policy,
                size=config.cache_size,
                ttl=config.cache_ttl,
                replication=config.cache_replication,
                replication_threshold=config.replication_threshold,
                replication_window=config.replication_window,
            )
        self.protocol = make_protocol(
            config.protocol, self.ctx, config.pidcan, overlay_cls=overlay_cls,
            path_cache=path_cache, **config.protocol_kwargs
        )
        lifecycle = getattr(self.protocol, "lifecycle", None)
        if lifecycle is None:
            # The lifecycle's timeout is the only thing that resolves a
            # query whose chain churn swallowed; without one tasks leak.
            raise TypeError(
                f"protocol {config.protocol!r} owns no QueryLifecycle"
            )
        # Timeout-failure accounting: each query resolved by the
        # lifecycle's timeout (chain lost to churn) counts exactly once.
        lifecycle.on_expire = lambda rt: self.ratios.on_query_timeout()
        self.protocol.bootstrap(sorted(self._alive))

        # --- workload ---------------------------------------------------
        if config.zipf_s > 0:
            # Zipf-skewed hot-range demand (docs/caching.md); zipf_s=0
            # keeps the Table-II uniform sampler and its RNG stream
            # byte-for-byte.
            self.factory: TaskFactory = SkewedTaskFactory(
                config.demand_ratio,
                self.rngs.stream("tasks"),
                config.mean_nominal_time,
                zipf_s=config.zipf_s,
                hot_ranges=config.hot_ranges,
            )
        else:
            self.factory = TaskFactory(
                config.demand_ratio,
                self.rngs.stream("tasks"),
                config.mean_nominal_time,
            )
        self.workload = PoissonWorkload(
            self.factory, self.rngs.stream("arrivals"), config.effective_interarrival
        )
        for node_id in sorted(self._alive):
            self.workload.start_node(
                node_id, self.sim, self._submit_task, self._alive.__contains__,
                quantum=config.arrival_quantum,
            )
        #: Same-instant arrival buffer (``arrival_quantum > 0``): the first
        #: enqueue schedules a zero-delay flush, which runs after every
        #: arrival event of the instant and hands the protocol one batch.
        self._arrival_buffer: list[tuple[Task, object]] = []

        # --- churn --------------------------------------------------------
        if config.churn_degree > 0:
            self._churn_rng = self.rngs.stream("churn")
            rate = config.churn_degree * config.n_nodes / config.churn_lifetime
            self._churn_interval = 1.0 / rate
            self.sim.schedule(
                self._churn_rng.exponential(self._churn_interval), self._churn_event
            )

        # --- checkpointing (§VI future work) -------------------------------
        self.checkpoints: Optional[CheckpointStore] = None
        self.recovered_tasks = 0
        if config.checkpoint_enabled:
            self.checkpoints = CheckpointStore()
            self.sim.periodic(config.checkpoint_period, self._checkpoint_tick)

        # --- metrics ---------------------------------------------------------
        self.collector = MetricsCollector(
            self.sim, self.ratios, self.efficiency.values, config.sample_period,
            utilization_source=getattr(self.engine, "mean_utilization", None),
        )
        self.collector.start()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _create_host(self, machine_rng: np.random.Generator) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        self.network.add_node(node_id)
        machine = sample_machine(machine_rng, self.network.node_bandwidth_mbps(node_id))
        self.engine.add_host(node_id, machine.capacity.values)
        self.hosts[node_id] = HostNode(node_id, machine)
        self._alive.add(node_id)
        self._peak_population = max(self._peak_population, len(self._alive))
        return node_id

    def is_alive(self, node_id: int) -> bool:
        return node_id in self._alive

    def _availability_of(self, node_id: int) -> np.ndarray:
        # An array-row view of the engine's cached availability matrix:
        # availability only changes at a host's own scheduling points, so
        # no progress integration happens on the query path.
        if not self.is_alive(node_id):
            return np.zeros_like(CMAX)
        return self.engine.availability(node_id)

    def _availability_matrix_of(self, node_ids) -> np.ndarray:
        # Batched twin of _availability_of: one SoA gather for the whole
        # cohort, rows bitwise-equal to the scalar lookups (dead nodes,
        # if any slip through, read as zero availability just the same).
        ids = list(node_ids)
        alive = [self.is_alive(n) for n in ids]
        if all(alive):
            return self.engine.availability_matrix(ids)
        rows = np.zeros((len(ids),) + np.shape(CMAX))
        live_idx = [i for i, ok in enumerate(alive) if ok]
        if live_idx:
            rows[live_idx] = self.engine.availability_matrix(
                [ids[i] for i in live_idx]
            )
        return rows

    def _resolve_cmax(self) -> np.ndarray:
        if self.config.cmax_mode == "exact":
            return CMAX.copy()
        # Gossip estimation (reference [23]); messages are charged evenly.
        values = {
            h.node_id: h.machine.capacity.values for h in self.hosts.values()
        }
        result = gossip_aggregate(values, "max", self.rngs.stream("aggregation"))
        ids = sorted(values)
        for i in range(result.messages):
            self.traffic.charge("aggregation", ids[i % len(ids)])
        return result.consensus()

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _dispatch_query(self, task: Task, on_records) -> None:
        """Run ``task``'s range query (first submission and checkpoint
        recovery alike).

        There is one requester-side timeout and it lives in the
        protocol's :class:`~repro.core.lifecycle.QueryLifecycle`: a chain
        lost to churn resolves there with an empty result, exactly once,
        so ``on_records`` needs no second timer here.

        With quantized arrivals (``arrival_quantum > 0``) many queries
        share an instant, so the query is buffered instead and every query
        of the instant goes to the protocol as one ``submit_bulk`` batch —
        same submission instant, same per-query callbacks, so results are
        event-identical to direct dispatch.  Un-quantized Poisson arrivals
        never share an instant and dispatch directly.
        """
        if self.config.arrival_quantum > 0:
            self._enqueue_query(task, on_records)
            return
        self.protocol.submit_query(task.expectation, task.origin, on_records)

    def _enqueue_query(self, task: Task, on_records) -> None:
        if not self._arrival_buffer:
            # Zero-delay => higher heap sequence than every arrival event
            # already queued for this instant, so the flush runs once all
            # of them have buffered.
            self.sim.schedule(0.0, self._flush_arrivals)
        self._arrival_buffer.append((task, on_records))

    def _flush_arrivals(self) -> None:
        batch, self._arrival_buffer = self._arrival_buffer, []
        self.protocol.submit_bulk([
            (task.expectation, task.origin, on_records)
            for task, on_records in batch
        ])

    def _submit_task(self, task: Task) -> None:
        self.ratios.on_generated()
        self._tasks.append(task)
        self.tracer.emit(self.sim.now, "generated", task.task_id, task.origin)

        if self.config.local_first:
            if self.is_alive(task.origin) and dominates(
                self.engine.availability(task.origin), task.expectation
            ):
                self._admit(task, task.origin)
                return

        submitted_at = self.sim.now

        def on_records(records: list[StateRecord], messages: int) -> None:
            task.query_messages = messages
            self.latency.observe(self.sim.now - submitted_at, messages)
            self._on_query_result(task, records)

        self._dispatch_query(task, on_records)

    def _on_query_result(self, task: Task, records: list[StateRecord]) -> None:
        if not records:
            task.failed = True
            self.ratios.on_failed()
            self.tracer.emit(self.sim.now, "query-failed", task.task_id)
            return
        self.tracer.emit(
            self.sim.now, "query-ok", task.task_id,
            candidates=len({r.owner for r in records}),
            messages=task.query_messages,
        )
        self._try_place(task, list(records), PLACEMENT_RETRIES)

    def _try_place(
        self, task: Task, records: list[StateRecord], retries_left: int
    ) -> None:
        pick = select_record(
            records,
            task.expectation,
            self.cmax,
            self.rngs.stream("selection"),
            self.config.selection_policy,
        )
        if pick is None:
            task.failed = True
            self.ratios.on_failed()
            self.tracer.emit(self.sim.now, "rejected", task.task_id)
            return
        remaining = [r for r in records if r.owner != pick.owner]
        delay = self.network.delay(task.origin, pick.owner, PLACEMENT_MSG_BITS)
        self.traffic.charge("placement", task.origin)
        self.delivery.deliver(
            delay, self._arrive_placement, task, pick.owner, remaining,
            retries_left,
        )

    def _arrive_placement(
        self,
        task: Task,
        target: int,
        remaining: list[StateRecord],
        retries_left: int,
    ) -> None:
        accept = self.is_alive(target)
        if accept and self.config.admission == "strict":
            accept = dominates(
                self.engine.availability(target), task.expectation
            )
        if not accept:
            if remaining and retries_left > 0:
                self._try_place(task, remaining, retries_left - 1)
            else:
                task.failed = True
                self.ratios.on_failed()
                self.tracer.emit(self.sim.now, "rejected", task.task_id, target)
            return
        self._admit(task, target)

    def _admit(self, task: Task, target: int) -> None:
        self.engine.place(target, task, self.sim.now)
        task.placed_node = target
        self.ratios.on_placed()
        self.balance.on_place(target)
        self.tracer.emit(self.sim.now, "admitted", task.task_id, target)
        self._sync_completions()

    # ------------------------------------------------------------------
    # execution events (the engine's global completion calendar)
    # ------------------------------------------------------------------
    def _sync_completions(self) -> None:
        """Keep exactly one simulator event armed for the calendar head.

        Any scheduling point on any host may move the globally-earliest
        completion; re-arming only when the head actually changed keeps
        simulator-heap churn far below the seed's one-cancel-plus-push per
        host mutation.
        """
        head = self.engine.peek()
        if head == self._completion_key and self._completion_handle is not None:
            return
        if self._completion_handle is not None:
            self._completion_handle.cancel()
            self._completion_handle = None
        self._completion_key = head
        if head is None:
            return
        when, _host_id, _task_id = head
        self._completion_handle = self.sim.schedule_at(
            max(when, self.sim.now), self._fire_completion
        )

    def _fire_completion(self) -> None:
        self._completion_handle = None
        self._completion_key = None
        head = self.engine.peek()
        if head is None:
            return
        when, node_id, task_id = head
        if when > self.sim.now:
            # The head moved later without a scheduling point in between —
            # cannot happen today, but re-arming is always safe.
            self._sync_completions()
            return
        task = self.engine.complete(node_id, task_id, self.sim.now)
        self.ratios.on_finished()
        self.balance.on_remove(node_id)
        self.tracer.emit(self.sim.now, "completed", task.task_id, node_id)
        self.efficiency.observe(task.work, task.submit_time, task.finish_time)
        if self.checkpoints is not None:
            self.checkpoints.forget(task_id)
        if task.origin != node_id:
            # completion ack back to the origin (charged, no handler needed)
            self.traffic.charge("completion-ack", node_id)
        self._sync_completions()

    # ------------------------------------------------------------------
    # checkpoint/restart (§VI future work)
    # ------------------------------------------------------------------
    def _checkpoint_tick(self) -> None:
        """Snapshot every running task to its origin's checkpoint archive;
        one checkpoint transfer message is charged per task.  One
        vectorized progress integration covers the whole population."""
        assert self.checkpoints is not None
        now = self.sim.now
        self.engine.advance_all(now)
        for node_id in list(self.engine.busy_host_ids()):
            # Dead hosts keep executing but no longer checkpoint (the seed
            # convention: the archive lives on the discovery overlay).
            if not self.is_alive(node_id):
                continue
            tasks = self.engine.running_tasks(node_id)
            for task in tasks:
                self.checkpoints.take(task, now)
            self.traffic.charge("checkpoint", node_id, n=len(tasks))

    def _recover(self, task: Task) -> None:
        """Roll a killed task back to its snapshot and re-run discovery."""
        assert self.checkpoints is not None
        self.checkpoints.restore(task)
        self.recovered_tasks += 1
        self.tracer.emit(self.sim.now, "recovered", task.task_id, task.origin)

        def on_records(records: list[StateRecord], messages: int) -> None:
            task.query_messages += messages
            self._on_query_result(task, records)

        self._dispatch_query(task, on_records)

    # ------------------------------------------------------------------
    # churn (Fig. 8)
    # ------------------------------------------------------------------
    def _churn_event(self) -> None:
        # One node departs abruptly and a fresh node joins, keeping the
        # population constant as in the paper's dynamic-degree setup.
        victim_id = self._pick_churn_victim()
        if victim_id is not None:
            self._depart(victim_id)
            newcomer = self._create_host(self._machine_rng)
            self.protocol.on_join(newcomer)
            self.workload.start_node(
                newcomer, self.sim, self._submit_task, self._alive.__contains__,
                quantum=self.config.arrival_quantum,
            )
        self.sim.schedule(
            self._churn_rng.exponential(self._churn_interval), self._churn_event
        )

    def _pick_churn_victim(self) -> Optional[int]:
        alive = sorted(self._alive)
        if len(alive) <= 2:
            return None
        return alive[int(self._churn_rng.integers(len(alive)))]

    def _depart(self, node_id: int) -> None:
        self._alive.remove(node_id)
        if self.config.churn_kills_tasks:
            evicted = self.engine.evict_all(node_id, self.sim.now)
            self.balance.on_remove_many(node_id, len(evicted))
            for task in evicted:
                self.ratios.on_evicted()
                self.tracer.emit(self.sim.now, "evicted", task.task_id, node_id)
                if self.checkpoints is not None and self.is_alive(task.origin):
                    self._recover(task)
            if evicted:
                self._sync_completions()
        # else: the node drops off the overlay but its resident tasks run
        # to completion (the paper's churn model; see config docstring).
        self.protocol.on_leave(node_id)
        self.network.remove_node(node_id)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        started = time.perf_counter()
        self.sim.run(until=self.config.duration)
        wall = time.perf_counter() - started
        path_cache = getattr(self.protocol, "path_cache", None)
        cache_stats = path_cache.stats if path_cache is not None else None
        return SimulationResult(
            config=self.config,
            series=self.collector.series(),
            generated=self.ratios.generated,
            finished=self.ratios.finished,
            failed=self.ratios.failed,
            placed=self.ratios.placed,
            evicted=self.ratios.evicted,
            recovered=self.recovered_tasks,
            traffic_by_kind=self.traffic.kind_snapshot(),
            traffic_total=self.traffic.total(),
            per_node_msg_cost=self.traffic.per_node_cost(self._peak_population),
            peak_population=self._peak_population,
            balance=self.balance.report(self._peak_population),
            query_latency=self.latency.report(),
            efficiencies=self.efficiency.values().tolist(),
            wall_clock_s=wall,
            query_timeouts=self.ratios.query_timeouts,
            cache_lookups=cache_stats.lookups if cache_stats else 0,
            cache_hits=cache_stats.hits if cache_stats else 0,
            cache_misses=cache_stats.misses if cache_stats else 0,
            cache_stale_hits=cache_stats.stale_hits if cache_stats else 0,
            cache_relay_hits=cache_stats.relay_hits if cache_stats else 0,
            replications=cache_stats.replications if cache_stats else 0,
        )
