"""Sandbox harness and behavioural oracles for the vectorized hot paths.

:class:`ProtocolSandbox` wires a bootstrapped INSCAN overlay to a live
:class:`~repro.core.context.ProtocolContext` — simulator, network model,
traffic meter, controllable availability and membership — without the full
SOC runner.  It is what the unit tests, the examples and interactive
exploration use to drive Algorithms 1-5 one step at a time::

    sandbox = ProtocolSandbox(n=64, dims=2, seed=7)
    sandbox.plant_record(holder, owner=99, availability=[0.8, 0.9])
    engine = QueryEngine(sandbox.ctx, sandbox.overlay, sandbox.tables,
                         sandbox.caches, sandbox.pilists, QueryParams())

The module also keeps the seed's scalar implementations of the
vectorized hot paths, verbatim, as equivalence oracles:

- :class:`ReferenceStateCache` — the dict-of-records duty-node cache γ,
  against :class:`repro.core.state.StateCache`;
- :class:`ReferenceNodeExecutor` / :class:`ReferenceHostEngine` — the
  per-host dict-of-tasks PSM executor (and a thin engine-API shim over a
  fleet of them), against :class:`repro.cloud.engine.HostEngine`;
- :func:`reference_adjacency_direction` / :class:`ReferenceCANOverlay` /
  :func:`reference_greedy_path` — the scalar CAN predicates over a
  zone's tuple mirrors, per-call adjacency recomputation
  (joins and leaves rebound geometrically, pointer tables walked one
  call per hop) and per-candidate greedy routing loop, against the structural
  rewiring and the batched routing over the overlay's bounds array (see
  ``docs/can_geometry.md``; :func:`assert_overlays_equivalent` drives
  randomized join/leave/route/diffuse schedules against both);
- :class:`ReferenceDiffusionEngine` — HID as the recursion of
  Algorithms 1-2 and the seed's NINode pool filter, against the loop-form
  :class:`repro.core.diffusion.DiffusionEngine`;
- :class:`ReferencePIList` — the dict-of-stamps positive index list,
  against the SoA :class:`repro.core.cache.RangeCache` TTL policy that
  now backs :class:`repro.core.pilist.PIList`
  (:func:`assert_cache_off_equivalent` swaps it into whole cache-off
  experiments);
- :class:`ReferenceNetworkModel` — the scan over every LAN for the
  least-populated one, against the heap behind
  :meth:`repro.sim.network.NetworkModel.add_node`.

:func:`construction_digest` fingerprints everything a cell's set-up
builds (zones, adjacency, pointer tables, LANs, machines), so a change
that reorders one set-up RNG draw fails a test in seconds;
:func:`run_digest` does the same for what a finished run *produced*, so
a host-only change that moves one message or one event fails one too.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.can.inscan import build_index_table
from repro.can.overlay import CANOverlay
from repro.can.routing import RoutingError, greedy_path, greedy_paths
from repro.cloud.psm import DEFAULT_OVERHEAD, VMOverhead, effective_capacity
from repro.cloud.tasks import N_WORK_DIMS, Task
from repro.core.context import ProtocolContext
from repro.core.diffusion import DiffusionEngine
from repro.core.pilist import PIList
from repro.core.state import StateCache, StateRecord
from repro.metrics.traffic import TrafficMeter
from repro.sim.engine import Simulator, next_grid_index
from repro.sim.network import NetworkModel, NetworkParams

__all__ = [
    "ProtocolSandbox",
    "ReferenceStateCache",
    "ReferenceNodeExecutor",
    "ReferenceHostEngine",
    "ReferenceCANOverlay",
    "ReferenceDiffusionEngine",
    "ReferenceCohortScheduler",
    "ReferenceNetworkModel",
    "RunningTask",
    "assert_engines_equivalent",
    "assert_overlays_equivalent",
    "reference_adjacency_direction",
    "reference_distance_to_point",
    "reference_greedy_path",
    "reference_inscan_path",
    "assert_tick_modes_equivalent",
    "ReferenceDeliveryCalendar",
    "ReferencePIList",
    "assert_results_identical",
    "assert_delivery_modes_equivalent",
    "assert_cache_off_equivalent",
    "construction_digest",
    "run_digest",
]

#: Work below this is treated as done (guards float round-off at completion).
_WORK_EPS = 1e-6


@dataclass(slots=True)
class RunningTask:
    """A resident task plus its current progress rates on the work dims."""

    task: Task
    rates: np.ndarray  # (3,) work units per second


class ReferenceNodeExecutor:
    """The seed's event-driven proportional-share executor for one host
    (the emulated credit scheduler of §IV-A), kept verbatim as the
    behavioural oracle for the vectorized
    :class:`~repro.cloud.engine.HostEngine` — mirroring how
    :class:`ReferenceStateCache` anchors the vectorized state cache.

    Shares are piecewise constant between *scheduling points* (a task
    placement or completion on the node).  The executor integrates work
    progress between points, recomputes PSM shares after every change, and
    predicts the next completion time.
    """

    def __init__(self, capacity: np.ndarray, overhead: VMOverhead = DEFAULT_OVERHEAD):
        self.capacity = np.asarray(capacity, dtype=np.float64)
        self.overhead = overhead
        self._running: dict[int, RunningTask] = {}
        self._last_update = 0.0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_running(self) -> int:
        return len(self._running)

    def running_tasks(self) -> list[Task]:
        return [rt.task for rt in self._running.values()]

    def load(self) -> np.ndarray:
        """``l_i`` — aggregated expectation of resident tasks (§II)."""
        if not self._running:
            return np.zeros_like(self.capacity)
        return np.sum([rt.task.expectation for rt in self._running.values()], axis=0)

    def effective_capacity(self) -> np.ndarray:
        return effective_capacity(self.capacity, len(self._running), self.overhead)

    def availability(self, now: float) -> np.ndarray:
        """``a_i = c_i − l_i`` clipped at zero, with capacity first reduced
        by the VM maintenance overhead of the resident instances."""
        self.advance(now)
        avail = self.effective_capacity() - self.load()
        return np.maximum(avail, 0.0)

    def is_overloaded(self) -> bool:
        """True when some dimension is over-subscribed (shares < demand)."""
        if not self._running:
            return False
        load = self.load()
        eff = self.effective_capacity()
        return bool(np.any(load > eff + 1e-12))

    # ------------------------------------------------------------------
    # progress integration
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate all running tasks' progress up to ``now``."""
        dt = now - self._last_update
        if dt < 0:
            raise ValueError(f"time went backwards: {now} < {self._last_update}")
        if dt > 0:
            for rt in self._running.values():
                rt.task.remaining_work -= rt.rates * dt
                np.maximum(rt.task.remaining_work, 0.0, out=rt.task.remaining_work)
        self._last_update = now

    def _reshare(self) -> None:
        """Recompute PSM shares and per-task progress rates (Eq. 1)."""
        if not self._running:
            return
        eff = self.effective_capacity()
        load = self.load()
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(load > 0, eff / load, 0.0)[:N_WORK_DIMS]
        for rt in self._running.values():
            rt.rates = rt.task.expectation[:N_WORK_DIMS] * scale

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, task: Task, now: float) -> None:
        """Admit ``task``; all resident shares are re-computed."""
        if task.task_id in self._running:
            raise ValueError(f"task {task.task_id} already running here")
        self.advance(now)
        task.start_time = now
        self._running[task.task_id] = RunningTask(task, np.zeros(N_WORK_DIMS))
        self._reshare()

    def remove(self, task_id: int, now: float) -> Task:
        """Evict a task (e.g. node churned out); returns it unfinished."""
        self.advance(now)
        rt = self._running.pop(task_id)
        self._reshare()
        return rt.task

    def complete(self, task_id: int, now: float) -> Task:
        """Finish a task whose predicted completion time has arrived."""
        self.advance(now)
        rt = self._running.pop(task_id)
        if float(rt.task.remaining_work.max()) > 1e-3:
            raise RuntimeError(
                f"task {task_id} completed with work left: {rt.task.remaining_work}"
            )
        rt.task.remaining_work[:] = 0.0
        rt.task.finish_time = now
        self._reshare()
        return rt.task

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def next_completion(self) -> Optional[tuple[float, Task]]:
        """``(time, task)`` of the earliest finishing resident task under the
        *current* shares, or ``None``.  Must be re-queried after any
        place/remove/complete since shares shift at every scheduling point.
        """
        best: Optional[tuple[float, Task]] = None
        for rt in self._running.values():
            t = self._time_to_finish(rt)
            if t is None:
                continue
            when = self._last_update + t
            if best is None or when < best[0]:
                best = (when, rt.task)
        return best

    @staticmethod
    def _time_to_finish(rt: RunningTask) -> Optional[float]:
        remaining = rt.task.remaining_work
        rates = rt.rates
        # A dimension with leftover work but zero rate stalls the task.
        stalled = (remaining > _WORK_EPS) & (rates <= 0)
        if bool(stalled.any()):
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            per_dim = np.where(remaining > _WORK_EPS, remaining / rates, 0.0)
        return float(per_dim.max())


class ReferenceHostEngine:
    """Scalar oracle for :class:`repro.cloud.engine.HostEngine`: the same
    public API, backed by one :class:`ReferenceNodeExecutor` per host and
    an independently-implemented completion calendar with the identical
    lazy-heap discipline (one generation-stamped entry per host, exactly
    one re-prediction per scheduling point), so equivalence tests and the
    benchmark can swap the two engines under the same driver."""

    def __init__(self, overhead: VMOverhead = DEFAULT_OVERHEAD):
        self.overhead = overhead
        self._exec: dict[int, ReferenceNodeExecutor] = {}
        self._order: list[int] = []
        self._heap: list[tuple[float, int, int]] = []  # (when, gen, host_id)
        self._gen: dict[int, int] = {}
        self._next: dict[int, Optional[tuple[float, Task]]] = {}
        self._gen_counter = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_host(self, host_id: int, capacity: np.ndarray) -> None:
        if host_id in self._exec:
            raise ValueError(f"host {host_id} already registered")
        self._exec[host_id] = ReferenceNodeExecutor(
            np.asarray(capacity, dtype=np.float64), self.overhead
        )
        self._order.append(host_id)
        self._gen[host_id] = 0
        self._next[host_id] = None

    def add_hosts(self, host_ids: list[int], capacities: np.ndarray) -> None:
        for host_id, cap in zip(host_ids, np.asarray(capacities, dtype=np.float64)):
            self.add_host(host_id, cap)

    @property
    def n_hosts(self) -> int:
        return len(self._exec)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def n_running(self, host_id: int) -> int:
        return self._exec[host_id].n_running

    def running_tasks(self, host_id: int) -> list[Task]:
        return self._exec[host_id].running_tasks()

    def load(self, host_id: int) -> np.ndarray:
        return self._exec[host_id].load()

    def effective_capacity(self, host_id: int) -> np.ndarray:
        return self._exec[host_id].effective_capacity()

    def availability(self, host_id: int) -> np.ndarray:
        # Availability never depends on task progress (load is a sum of
        # expectations), so no advance — the same contract as HostEngine.
        ex = self._exec[host_id]
        return np.maximum(ex.effective_capacity() - ex.load(), 0.0)

    def availability_matrix(self, host_ids: list[int]) -> np.ndarray:
        return np.stack([self.availability(h) for h in host_ids])

    def is_overloaded(self, host_id: int) -> bool:
        return self._exec[host_id].is_overloaded()

    def busy_host_ids(self):
        for host_id in self._order:
            if self._exec[host_id].n_running:
                yield host_id

    def mean_utilization(self) -> float:
        """Scalar twin of :meth:`repro.cloud.engine.HostEngine.
        mean_utilization`: per-host/per-dimension load over effective
        capacity, clipped to [0, 1] and averaged."""
        if not self._order:
            return 0.0
        total = 0.0
        dims = 0
        for host_id in self._order:
            ex = self._exec[host_id]
            eff = ex.effective_capacity()
            load = ex.load()
            util = np.where(eff > 0.0, load / np.where(eff > 0.0, eff, 1.0), 0.0)
            total += float(np.clip(util, 0.0, 1.0).sum())
            dims += util.size
        return total / dims

    # ------------------------------------------------------------------
    # progress integration
    # ------------------------------------------------------------------
    def advance_all(self, now: float) -> None:
        for host_id in self._order:
            self._exec[host_id].advance(now)

    # ------------------------------------------------------------------
    # completion calendar
    # ------------------------------------------------------------------
    def _predict(self, host_id: int) -> None:
        self._gen_counter += 1
        self._gen[host_id] = self._gen_counter
        nxt = self._exec[host_id].next_completion()
        self._next[host_id] = nxt
        if nxt is not None:
            heapq.heappush(self._heap, (nxt[0], self._gen_counter, host_id))

    def next_completion(self, host_id: int) -> Optional[tuple[float, Task]]:
        return self._next[host_id]

    def peek(self) -> Optional[tuple[float, int, int]]:
        while self._heap:
            when, gen, host_id = self._heap[0]
            if gen != self._gen[host_id]:
                heapq.heappop(self._heap)
                continue
            return when, host_id, self._next[host_id][1].task_id
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, host_id: int, task: Task, now: float) -> None:
        self._exec[host_id].place(task, now)
        self._predict(host_id)

    def remove(self, host_id: int, task_id: int, now: float) -> Task:
        task = self._exec[host_id].remove(task_id, now)
        self._predict(host_id)
        return task

    def evict_all(self, host_id: int, now: float) -> list[Task]:
        ex = self._exec[host_id]
        out = []
        for task in ex.running_tasks():
            out.append(ex.remove(task.task_id, now))
        self._predict(host_id)
        return out

    def complete(self, host_id: int, task_id: int, now: float) -> Task:
        task = self._exec[host_id].complete(task_id, now)
        self._predict(host_id)
        return task


class ReferenceStateCache:
    """The original scalar dict-of-records implementation of the duty-node
    cache γ, kept verbatim as the behavioural oracle for the vectorized
    :class:`~repro.core.state.StateCache` (equivalence tests and the
    old-vs-new microbenchmark compare against it)."""

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = float(ttl)
        self._records: dict[int, StateRecord] = {}

    def put(self, record: StateRecord) -> None:
        existing = self._records.get(record.owner)
        if existing is None or existing.timestamp <= record.timestamp:
            self._records[record.owner] = record

    def evict_owner(self, owner: int) -> None:
        self._records.pop(owner, None)

    def purge(self, now: float) -> None:
        cutoff = now - self.ttl
        stale = [o for o, r in self._records.items() if r.timestamp < cutoff]
        for o in stale:
            del self._records[o]

    def non_empty(self, now: float) -> bool:
        self.purge(now)
        return bool(self._records)

    def records(self, now: float) -> list[StateRecord]:
        self.purge(now)
        return list(self._records.values())

    def qualified(self, demand, now, limit=None, exclude=None) -> list[StateRecord]:
        self.purge(now)
        skip = set(exclude) if exclude is not None else ()
        out: list[StateRecord] = []
        for rec in self._records.values():
            if rec.owner in skip:
                continue
            if rec.qualifies(demand):
                out.append(rec)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def __len__(self) -> int:
        return len(self._records)


def assert_engines_equivalent(
    seed: int,
    n_hosts: int = 16,
    steps: int = 300,
    atol: float = 1e-9,
    churn: bool = True,
) -> dict:
    """Drive :class:`repro.cloud.engine.HostEngine` and
    :class:`ReferenceHostEngine` through one randomized schedule of
    place / remove / complete / evict-all / join / advance-all operations
    and assert they stay indistinguishable: identical completion order
    (host and task ids exact, times within ``atol``) and identical
    availabilities (within ``atol``).

    Raises ``AssertionError`` on the first divergence; returns summary
    counters (used by the equivalence tests and the pre-commit smoke).
    """
    from repro.cloud.engine import HostEngine
    from repro.cloud.machine import capacity_matrix, sample_machines
    from repro.cloud.tasks import TaskFactory

    rng = np.random.default_rng(seed)
    vec = HostEngine()
    ref = ReferenceHostEngine()
    # Identically-seeded factories give each engine its own (mutable) copy
    # of every task.
    fac_vec = TaskFactory(0.5, np.random.default_rng(seed + 1))
    fac_ref = TaskFactory(0.5, np.random.default_rng(seed + 1))

    machine_rng = np.random.default_rng(seed + 2)
    bandwidths = machine_rng.uniform(5.0, 10.0, n_hosts).tolist()
    machines = sample_machines(machine_rng, bandwidths)
    host_ids = list(range(n_hosts))
    caps = capacity_matrix(machines)
    vec.add_hosts(host_ids, caps)
    ref.add_hosts(host_ids, caps)

    now = 0.0
    next_host_id = n_hosts
    resident: dict[int, int] = {}  # task_id -> host_id
    stats = {"placed": 0, "completed": 0, "removed": 0, "evicted": 0, "joined": 0}

    def check_host(host_id: int) -> None:
        a = vec.availability(host_id)
        b = ref.availability(host_id)
        assert np.allclose(a, b, atol=atol, rtol=0.0), (
            f"availability diverged on host {host_id}: {a} vs {b}"
        )
        assert vec.n_running(host_id) == ref.n_running(host_id)
        assert vec.is_overloaded(host_id) == ref.is_overloaded(host_id)

    for _ in range(steps):
        now += float(rng.exponential(50.0))
        op = rng.random()
        if op < 0.45:  # place a fresh task on a random host
            host_id = host_ids[int(rng.integers(len(host_ids)))]
            task_vec = fac_vec.create(host_id, now)
            task_ref = fac_ref.create(host_id, now)
            vec.place(host_id, task_vec, now)
            ref.place(host_id, task_ref, now)
            resident[task_vec.task_id] = host_id
            stats["placed"] += 1
        elif op < 0.80:  # drain the globally-earliest completion
            head_vec = vec.peek()
            head_ref = ref.peek()
            if head_vec is None or head_ref is None:
                assert head_vec == head_ref, (
                    f"calendar heads diverged: {head_vec} vs {head_ref}"
                )
                continue
            assert head_vec[1:] == head_ref[1:], (
                f"calendar heads diverged: {head_vec} vs {head_ref}"
            )
            assert abs(head_vec[0] - head_ref[0]) <= atol
            when, host_id, task_id = head_vec
            now = max(now, when)
            done_vec = vec.complete(host_id, task_id, now)
            done_ref = ref.complete(host_id, task_id, now)
            assert done_vec.finish_time == done_ref.finish_time == now
            del resident[task_id]
            stats["completed"] += 1
        elif op < 0.88 and resident:  # evict one random resident task
            task_id = sorted(resident)[int(rng.integers(len(resident)))]
            host_id = resident.pop(task_id)
            out_vec = vec.remove(host_id, task_id, now)
            out_ref = ref.remove(host_id, task_id, now)
            assert np.allclose(
                out_vec.remaining_work, out_ref.remaining_work, atol=atol, rtol=0.0
            ), "evicted task progress diverged"
            stats["removed"] += 1
        elif op < 0.94 and churn:  # a host crashes out, losing every task
            host_id = host_ids[int(rng.integers(len(host_ids)))]
            out_vec = vec.evict_all(host_id, now)
            out_ref = ref.evict_all(host_id, now)
            assert [t.task_id for t in out_vec] == [t.task_id for t in out_ref]
            for task in out_vec:
                del resident[task.task_id]
            stats["evicted"] += len(out_vec)
        elif op < 0.97 and churn:  # a fresh host joins mid-run
            machine = sample_machines(machine_rng, [7.5])[0]
            vec.add_host(next_host_id, machine.capacity.values)
            ref.add_host(next_host_id, machine.capacity.values)
            host_ids.append(next_host_id)
            next_host_id += 1
            stats["joined"] += 1
        else:  # the checkpoint tick's bulk progress integration
            vec.advance_all(now)
            ref.advance_all(now)

        for host_id in rng.choice(host_ids, size=min(4, len(host_ids)), replace=False):
            check_host(int(host_id))

    # final drain: every remaining completion must agree in order and time
    while True:
        head_vec = vec.peek()
        head_ref = ref.peek()
        if head_vec is None or head_ref is None:
            assert head_vec == head_ref
            break
        assert head_vec[1:] == head_ref[1:]
        assert abs(head_vec[0] - head_ref[0]) <= atol
        when, host_id, task_id = head_vec
        now = max(now, when)
        vec.complete(host_id, task_id, now)
        ref.complete(host_id, task_id, now)
        del resident[task_id]
        stats["completed"] += 1

    for host_id in host_ids:
        check_host(host_id)
    return stats


# ----------------------------------------------------------------------
# scalar CAN geometry / routing oracles (the seed implementations,
# preserved verbatim)
# ----------------------------------------------------------------------
def reference_distance_to_point(zone, point) -> float:
    """The seed's scalar box distance over the zone's ``_lo``/``_hi``
    tuple mirrors."""
    lo, hi = zone._lo, zone._hi
    acc = 0.0
    for k in range(len(lo)):
        v = point[k]
        if v < lo[k]:
            gap = lo[k] - v
        elif v > hi[k]:
            gap = v - hi[k]
        else:
            continue
        acc += gap * gap
    return acc ** 0.5


def reference_adjacency_direction(a, b) -> Optional[tuple[int, int]]:
    """The seed's scalar CAN-neighborship test, verbatim."""
    a_lo, a_hi = a._lo, a._hi
    b_lo, b_hi = b._lo, b._hi
    abut_dim: Optional[tuple[int, int]] = None
    for k in range(len(a_lo)):
        if a_hi[k] == b_lo[k]:
            sign = +1
        elif b_hi[k] == a_lo[k]:
            sign = -1
        else:
            # must openly overlap on this dimension
            if a_lo[k] < b_hi[k] and b_lo[k] < a_hi[k]:
                continue
            return None
        if abut_dim is not None:
            return None  # abuts on two dimensions: corner contact only
        abut_dim = (k, sign)
    return abut_dim


class ReferenceCANOverlay(CANOverlay):
    """Scalar oracle overlay: identical membership/tree mechanics, but
    adjacency is recomputed per call and per candidate with the verbatim
    scalar predicate — no batched geometry, no cached edge directions,
    hence no structural split or takeover and no bucket-reading table
    walk either.
    Routed with :func:`reference_greedy_path` it reproduces the seed's
    behaviour end to end; the lockstep equivalence suites drive it next
    to the vectorized :class:`~repro.can.overlay.CANOverlay`."""

    _caches_directions = False

    def directional_neighbors(
        self, node_id: int, dim: int, sign: int
    ) -> tuple[int, ...]:
        node = self.nodes[node_id]
        out = []
        for m in node.neighbors:
            d = reference_adjacency_direction(node.zone, self.nodes[m].zone)
            if d is not None and d == (dim, sign):
                out.append(m)
        return tuple(sorted(out))

    def pointer_walks(self, node_id, max_hops, rng):
        """The seed's table walk, verbatim: one :func:`_step_directional`
        call (and one ``directional_neighbors`` under it) per hop."""
        links: dict[tuple[int, int], list[int]] = {}
        build_messages = 0
        for dim in range(self.dims):
            for sign in (+1, -1):
                chain: list[int] = []
                current = node_id
                hop = 0
                while hop < max_hops:
                    nxt = _step_directional(self, current, dim, sign, rng)
                    if nxt is None:
                        break  # reached the edge of the CAN space
                    hop += 1
                    build_messages += 1
                    current = nxt
                    if hop == (1 << len(chain)):
                        chain.append(current)
                if chain:
                    links[(dim, sign)] = chain
        return links, build_messages

    def _split_neighbors(self, owner, joiner) -> None:
        """No cached directions to classify a split by: rebind both halves
        over {owner, joiner} ∪ the previous neighborhood geometrically."""
        old = set(owner.neighbors)
        self._rebind_neighbors(
            (owner.node_id, old | {joiner.node_id}),
            (joiner.node_id, old | {owner.node_id}),
        )

    def _takeover(self, departed, absorber, mover) -> None:
        """Likewise for a leave: rebind the absorber — and the mover —
        over the old neighborhoods of every zone that changed hands."""
        if mover is None:
            self._rebind_neighbors(
                (absorber.node_id, absorber.neighbors | departed.neighbors)
            )
        else:
            self._rebind_neighbors(
                (absorber.node_id, absorber.neighbors | mover.neighbors),
                (mover.node_id,
                 departed.neighbors | mover.neighbors | {absorber.node_id}),
            )

    def _rebind_neighbors(self, *rebinds: tuple[int, set[int]]) -> None:
        """Every node examined gets its edge stamp bumped, changed or not
        — the oracle may refill a routing block too often, never too
        rarely."""
        for node_id, candidates in rebinds:
            node = self.nodes[node_id]
            node.edge_stamp += 1
            for cand_id in candidates:
                if cand_id == node_id:
                    continue
                cand = self.nodes.get(cand_id)
                if cand is None:
                    continue
                cand.edge_stamp += 1
                if reference_adjacency_direction(node.zone, cand.zone) is not None:
                    node.neighbors.add(cand_id)
                    cand.neighbors.add(node_id)
                else:
                    node.neighbors.discard(cand_id)
                    cand.neighbors.discard(node_id)


def _step_directional(
    overlay: CANOverlay,
    node_id: int,
    dim: int,
    sign: int,
    rng: np.random.Generator,
) -> Optional[int]:
    """One randomized hop across the ``(dim, sign)`` face, or None at the
    space edge (the seed's per-step form of the pointer-table walk,
    verbatim)."""
    candidates = overlay.directional_neighbors(node_id, dim, sign)
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    return int(candidates[int(rng.integers(len(candidates)))])


def reference_greedy_path(
    overlay: CANOverlay,
    start_id: int,
    point: np.ndarray,
    max_hops: Optional[int] = None,
    extra_links: Optional[Callable[[int], list[int]]] = None,
) -> list[int]:
    """The seed's per-candidate greedy forwarding loop, verbatim: one
    scalar ``distance_to_point`` per candidate per hop, lowest-id
    tie-break, scalar perimeter walk.  Runs against either overlay class
    (it only reads zones and neighbor sets)."""
    # Plain floats: the per-hop distance predicates index the point
    # element-wise, where np.float64 boxing costs more than the math.
    p = tuple(float(x) for x in np.asarray(point, dtype=np.float64))
    if max_hops is None:
        max_hops = 4 * (len(overlay) + 1)

    current = overlay.nodes[start_id]
    path = [start_id]
    current_dist = reference_distance_to_point(current.zone, p)

    while not current.zone.contains(p):
        if current_dist == 0.0:
            # p sits on the boundary of the current zone: finish with a
            # perimeter walk across the zero-distance cluster.
            path.extend(_reference_perimeter_hops(overlay, current.node_id, p))
            return path
        candidates = list(current.neighbors)
        if extra_links is not None:
            candidates.extend(extra_links(current.node_id))
        best_id = -1
        best_dist = np.inf
        for cand_id in candidates:
            cand = overlay.nodes.get(cand_id)
            if cand is None:
                continue  # stale long link (churn); skip
            d = reference_distance_to_point(cand.zone, p)
            if d < best_dist or (d == best_dist and cand_id < best_id):
                best_dist = d
                best_id = cand_id
        if best_id < 0 or best_dist >= current_dist:
            raise RoutingError(
                f"no progress at node {current.node_id} toward {p} "
                f"(dist {current_dist}, best neighbor {best_dist})"
            )
        current = overlay.nodes[best_id]
        current_dist = best_dist
        path.append(best_id)
        if len(path) > max_hops:
            raise RoutingError(f"exceeded {max_hops} hops toward {p}")
    return path


def _reference_perimeter_hops(
    overlay: CANOverlay, start_id: int, point
) -> list[int]:
    """The seed's scalar boundary walk, verbatim."""
    owner_id = overlay.owner_of(point)
    if owner_id == start_id:
        return []
    seen = {start_id}
    queue: deque[tuple[int, list[int]]] = deque([(start_id, [])])
    budget = 4 ** overlay.dims  # generous cap on the incident cluster size
    while queue and budget > 0:
        node_id, hops = queue.popleft()
        for m in sorted(overlay.nodes[node_id].neighbors):
            if m in seen:
                continue
            zone = overlay.nodes[m].zone
            if reference_distance_to_point(zone, point) != 0.0:
                continue
            seen.add(m)
            budget -= 1
            if m == owner_id:
                return hops + [m]
            queue.append((m, hops + [m]))
    # Backstop: jump straight to the owner (counts as one hop).
    return [owner_id]


def reference_inscan_path(
    overlay: CANOverlay,
    tables: dict,
    start_id: int,
    point: np.ndarray,
    max_hops: Optional[int] = None,
) -> list[int]:
    """The seed's INSCAN routing, verbatim: greedy over neighbors ∪ the
    per-node pointer-table links supplied through the callback form."""

    def extra(node_id: int) -> list[int]:
        table = tables.get(node_id)
        return table.all_links() if table is not None else []

    return reference_greedy_path(
        overlay, start_id, point, max_hops=max_hops, extra_links=extra
    )


class ReferenceDiffusionEngine(DiffusionEngine):
    """Scalar oracle for the diffusion engine: HID as the seed's recursion
    (Algorithms 1-2, one ``charge_local`` per message) and its
    list-comprehension NINode pool filter, verbatim (same RNG draw
    discipline, so identically-seeded engines stay stream-compatible
    with the loop-form production path)."""

    def _hid(self, origin: int, result) -> None:
        self._relay(origin, origin, 0, self.L, result, depth=1)

    def _relay(self, node, origin, dim, q, result, depth) -> None:
        """``node`` sends to one NINode along the first dimension >=
        ``dim`` that has one; the receiver stores the index, continues
        the chain while the TTL lasts, then opens the next dimension."""
        for dim in range(dim, self.dims):
            picks = self._pick_ninodes(node, dim, 1, origin)
            if picks:
                break
        else:
            return
        self.ctx.charge_local(self.kind, node)
        result.messages += 1
        pilist = self.pilists.get(picks[0])
        if pilist is not None:
            pilist.add(origin, self.ctx.sim.now)
        result.recipients.add(picks[0])
        result.max_depth = max(result.max_depth, depth)
        if q - 1 > 0:
            self._relay(picks[0], origin, dim, q - 1, result, depth + 1)
        self._relay(picks[0], origin, dim + 1, self.L, result, depth + 1)

    def _pick_ninodes(self, node: int, dim: int, k: int, exclude: int) -> list[int]:
        table = self.tables.get(node)
        if table is None:
            return []
        pool = [
            t
            for t in table.negative_index_nodes(dim)
            if t != exclude and t != node and self.ctx.is_alive(t)
        ]
        if not pool:
            return []
        if len(pool) <= k:
            return list(pool)
        idx = self.ctx.rng.choice(len(pool), size=k, replace=False)
        return [pool[i] for i in idx]


# ----------------------------------------------------------------------
# randomized overlay lockstep schedule
# ----------------------------------------------------------------------
def _diffusion_rig(overlay: CANOverlay, engine_cls, seed: int, dead: set[int]):
    """A DiffusionEngine over ``overlay``'s freshly-built tables with its
    own deterministic context (twin rigs share ``dead`` and seeds)."""
    sim = Simulator()
    ctx = ProtocolContext(
        sim=sim,
        network=NetworkModel(NetworkParams(), np.random.default_rng(seed + 1)),
        traffic=TrafficMeter(),
        rng=np.random.default_rng(seed + 2),
        cmax=np.ones(overlay.dims),
        availability_of=lambda i: np.zeros(overlay.dims),
        is_alive=lambda i: i not in dead,
    )
    tables = {
        i: build_index_table(overlay, i, np.random.default_rng(seed + 3 + i))
        for i in sorted(overlay.nodes)
    }
    pilists = {i: PIList(1200.0) for i in sorted(overlay.nodes)}
    return engine_cls(ctx, tables, pilists, overlay.dims, L=2), tables


def assert_overlays_equivalent(
    seed: int,
    n: int = 32,
    dims: int = 3,
    steps: int = 60,
    routes_per_check: int = 8,
) -> dict:
    """Drive the vectorized :class:`~repro.can.overlay.CANOverlay` and the
    scalar :class:`ReferenceCANOverlay` through one identically-seeded
    randomized schedule of joins, leaves, greedy/INSCAN routes (single and
    batched, including exact-boundary targets) and SID/HID diffusion
    triggers, asserting they stay indistinguishable: identical adjacency
    sets, directional neighbor lists, routing paths (hop for hop) and
    diffusion recipients/messages/depth.

    Raises ``AssertionError`` on the first divergence; returns summary
    counters (used by the equivalence tests and the pre-commit smoke).
    """
    rng = np.random.default_rng(seed)
    vec = CANOverlay(dims, np.random.default_rng(seed + 1))
    ref = ReferenceCANOverlay(dims, np.random.default_rng(seed + 1))
    vec.bootstrap(range(n))
    ref.bootstrap(range(n))
    next_id = n
    stats = {"joined": 0, "left": 0, "routes": 0, "boundary_routes": 0,
             "diffusions": 0}

    def check_structure() -> None:
        assert set(vec.nodes) == set(ref.nodes)
        for node_id in vec.nodes:
            assert vec.nodes[node_id].neighbors == ref.nodes[node_id].neighbors, (
                f"adjacency diverged at node {node_id}"
            )
            for dim in range(dims):
                for sign in (+1, -1):
                    assert (
                        vec.directional_neighbors(node_id, dim, sign)
                        == ref.directional_neighbors(node_id, dim, sign)
                    ), f"directional neighbors diverged at {node_id}"
        vec.check_invariants()

    def check_routes() -> None:
        ids = sorted(vec.nodes)
        starts = [ids[int(rng.integers(len(ids)))] for _ in range(routes_per_check)]
        points = rng.uniform(0, 1, (routes_per_check, dims))
        # a couple of exact-boundary targets to force perimeter walks
        for j in range(min(2, routes_per_check)):
            points[j] = np.round(points[j] * 4) / 4
            stats["boundary_routes"] += 1
        vec_tables = {
            i: build_index_table(vec, i, np.random.default_rng(seed + 7 + i))
            for i in ids
        }
        ref_tables = {
            i: build_index_table(ref, i, np.random.default_rng(seed + 7 + i))
            for i in ids
        }
        for s, p in zip(starts, points):
            got = greedy_path(vec, s, p)
            want = reference_greedy_path(ref, s, p)
            assert got == want, f"greedy path diverged from {s} to {p}"
            got = greedy_path(vec, s, p, link_tables=vec_tables)
            want = reference_inscan_path(ref, ref_tables, s, p)
            assert got == want, f"inscan path diverged from {s} to {p}"
            stats["routes"] += 2
        batch = greedy_paths(vec, starts, points, link_tables=vec_tables)
        singles = [
            greedy_path(vec, s, p, link_tables=vec_tables)
            for s, p in zip(starts, points)
        ]
        assert batch == singles, "batched routing diverged from single-route"

    def check_diffusion() -> None:
        dead: set[int] = set()
        ids = sorted(vec.nodes)
        if len(ids) > 4:
            dead.add(ids[int(rng.integers(len(ids)))])
        vec_engine, vec_tables = _diffusion_rig(
            vec, DiffusionEngine, seed + 11, dead
        )
        ref_engine, ref_tables = _diffusion_rig(
            ref, ReferenceDiffusionEngine, seed + 11, dead
        )
        for node_id in ids:
            assert (
                vec_tables[node_id].links == ref_tables[node_id].links
            ), f"pointer table diverged at {node_id}"
        for origin in ids[:: max(1, len(ids) // 6)]:
            for method in ("hid", "sid"):
                got = vec_engine.diffuse(origin, method)
                want = ref_engine.diffuse(origin, method)
                assert got.recipients == want.recipients, (
                    f"{method} recipients diverged from {origin}"
                )
                assert got.messages == want.messages
                assert got.max_depth == want.max_depth
                stats["diffusions"] += 1

    check_structure()
    for step in range(steps):
        op = rng.random()
        if op < 0.5 or len(vec) <= 2:
            point = rng.uniform(0, 1, dims)
            vec.join(next_id, point)
            ref.join(next_id, point)
            next_id += 1
            stats["joined"] += 1
        else:
            ids = sorted(vec.nodes)
            victim = ids[int(rng.integers(len(ids)))]
            vec.leave(victim)
            ref.leave(victim)
            stats["left"] += 1
        if step % 7 == 0:
            check_structure()
            check_routes()
    check_structure()
    check_routes()
    check_diffusion()
    return stats


class ReferenceNetworkModel(NetworkModel):
    """The seed's LAN assignment, verbatim: scan every LAN for the
    ``(member count, id)`` minimum on each added node — O(#LANs) per
    add, quadratic over a bootstrap.  Same RNG draws as the stock
    model, so identically-seeded twins must agree on every LAN and
    bandwidth under any add/remove interleaving."""

    def _pick_lan(self) -> int:
        n_lans = len(self._lan_members)
        if n_lans == 0:
            return 0
        lan, count = min(self._lan_members.items(), key=lambda kv: (kv[1], kv[0]))
        if count >= self.params.lan_size:
            return n_lans
        return lan


def construction_digest(sim) -> dict[str, str]:
    """Fingerprint what ``sim`` (a :class:`~repro.experiments.runner.
    SOCSimulation` on a CAN protocol) has constructed, one short hash per
    section: zone bounds, sorted neighbor sets, per-face directional
    neighbors (the content of ``directions``, read through the overlay's
    public lookup so the scalar reference overlay digests alike), every
    pointer table's links, each live host's LAN, the LAN bandwidths and
    every machine configuration.  Floats are hashed by ``repr``, so
    equal digests mean bit-equal construction."""
    overlay = sim.protocol.overlay
    ids = sorted(overlay.nodes)
    faces = [(dim, sign) for dim in range(overlay.dims) for sign in (+1, -1)]
    lans = {node_id: sim.network.lan_of(node_id) for node_id in sorted(sim._alive)}
    sections = {
        "zones": [
            (n, overlay.nodes[n].zone.lo.tolist(), overlay.nodes[n].zone.hi.tolist())
            for n in ids
        ],
        "neighbors": [(n, sorted(overlay.nodes[n].neighbors)) for n in ids],
        "directions": [
            (n, [list(overlay.directional_neighbors(n, d, s)) for d, s in faces])
            for n in ids
        ],
        "tables": [
            (n, sorted((list(k), v) for k, v in table.links.items()))
            for n, table in sorted(sim.protocol.tables.items())
        ],
        "lans": sorted(lans.items()),
        "lan_bandwidths": sorted(
            {lan: sim.network.node_bandwidth_mbps(n) for n, lan in lans.items()}.items()
        ),
        "machines": [
            (n, [getattr(host.machine, f) for f in host.machine.__slots__])
            for n, host in sorted(sim.hosts.items())
        ],
    }
    return {
        name: hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
        for name, value in sections.items()
    }


def run_digest(result, sim) -> dict:
    """What a finished run produced, as a JSON-ready document: task
    counts, per-kind traffic, failsafe timeouts, the engine's event
    units, the whole query-latency report and the path-cache counters of
    ``result`` (a :class:`~repro.experiments.runner.SimulationResult`)
    and ``sim`` (the :class:`~repro.experiments.runner.SOCSimulation`
    that produced it).  Floats are written by ``repr``, so equal digests
    mean a bit-equal model — which is what a change that only touches
    host-side cost (a cache, a faster heap entry) has to leave behind."""
    return {
        "generated": result.generated,
        "placed": result.placed,
        "finished": result.finished,
        "failed": result.failed,
        "query_timeouts": result.query_timeouts,
        "events_processed": sim.sim.events_processed,
        "traffic_by_kind": dict(sorted(result.traffic_by_kind.items())),
        "query_latency": {
            name: repr(value)
            for name, value in result.query_latency.as_dict().items()
        },
        "cache": {
            name: getattr(result, name)
            for name in (
                "cache_lookups", "cache_hits", "cache_misses",
                "cache_stale_hits", "cache_relay_hits", "replications",
            )
        },
    }


class ProtocolSandbox:
    """Overlay + context + per-node protocol state, minus the SOC runner."""

    def __init__(
        self,
        n: int = 32,
        dims: int = 2,
        seed: int = 0,
        cmax: np.ndarray | None = None,
        state_ttl: float = 600.0,
        pilist_ttl: float = 1200.0,
        overlay_cls: type | None = None,
    ):
        self.sim = Simulator()
        rng = np.random.default_rng(seed)
        self.network = NetworkModel(NetworkParams(), np.random.default_rng(seed + 1))
        self.traffic = TrafficMeter()
        self.dead: set[int] = set()
        self.availability: dict[int, np.ndarray] = {}
        self.cmax = np.ones(dims) if cmax is None else np.asarray(cmax, float)

        self.overlay = (overlay_cls or CANOverlay)(dims, rng)
        self.overlay.bootstrap(range(n))
        for node_id in range(n):
            self.network.add_node(node_id)
            self.availability[node_id] = np.zeros(dims)

        self.ctx = ProtocolContext(
            sim=self.sim,
            network=self.network,
            traffic=self.traffic,
            rng=np.random.default_rng(seed + 2),
            cmax=self.cmax,
            availability_of=lambda i: self.availability[i],
            is_alive=lambda i: i not in self.dead,
        )
        self.tables = {
            i: build_index_table(self.overlay, i, np.random.default_rng(seed + 3))
            for i in self.overlay.node_ids()
        }
        self.caches = {i: StateCache(state_ttl) for i in self.overlay.node_ids()}
        self.pilists = {i: PIList(pilist_ttl) for i in self.overlay.node_ids()}

    # ------------------------------------------------------------------
    def plant_record(
        self, holder: int, owner: int, availability, ts: float = 0.0
    ) -> StateRecord:
        """Put a state record for ``owner`` into ``holder``'s cache γ."""
        rec = StateRecord(owner, np.asarray(availability, float), ts)
        self.caches[holder].put(rec)
        return rec

    def duty_of(self, point) -> int:
        """The duty node whose zone encloses ``point``."""
        return self.overlay.owner_of(np.asarray(point, float))

    def kill(self, node_id: int) -> None:
        """Mark a node dead: messages to it are dropped from now on."""
        self.dead.add(node_id)


# ----------------------------------------------------------------------
# Cohort ticking oracle (docs/coalescing.md)
# ----------------------------------------------------------------------
class ReferenceCohortScheduler:
    """Per-member grid chains: the oracle :class:`repro.sim.engine.
    CohortTimer` must be delivery-identical to.

    Every member gets its own self-rechaining timer firing at
    ``epoch + k * interval`` (the same multiplicative grid the cohort
    timer uses, via :func:`repro.sim.engine.next_grid_index`), and the
    callback receives a one-member batch ``fn((member,))``.  Because
    members are armed in insertion order and the simulator heap breaks
    time ties by schedule sequence, the global ``(time, member)``
    delivery log of N per-member chains equals one cohort timer's — the
    contract the hypothesis machine in ``tests/sim`` drives.

    The one caveat is the measure-zero straggler edge: a member added
    *exactly* at a grid instant, in an event ordered after that
    instant's tick, first fires one period later here but at the pending
    instant under the cohort timer.  Drive comparisons with off-grid
    add times (e.g. half-integer advances) to stay out of it.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn,
        epoch: float | None = None,
        priority: int = 0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.epoch = sim.now if epoch is None else float(epoch)
        self.priority = priority
        # member -> chain generation.  A discard orphans the member's
        # pending chain event; a later re-add starts a *new* chain with a
        # fresh generation, and the orphan self-terminates on its
        # generation check — otherwise add/discard/add would leave two
        # live chains delivering the member twice per round.
        self._gen: dict[int, int] = {}
        self._next_gen = 0

    def __len__(self) -> int:
        return len(self._gen)

    def __contains__(self, member: int) -> bool:
        return member in self._gen

    def add(self, member: int) -> None:
        if member in self._gen:
            return
        gen = self._next_gen
        self._next_gen += 1
        self._gen[member] = gen
        self._arm(
            member, next_grid_index(self.epoch, self.interval, self.sim.now), gen
        )

    def discard(self, member: int) -> None:
        self._gen.pop(member, None)

    def cancel(self) -> None:
        self._gen.clear()

    def _arm(self, member: int, k: int, gen: int) -> None:
        self.sim.schedule_at(
            self.epoch + k * self.interval,
            self._tick,
            member,
            k,
            gen,
            priority=self.priority,
        )

    def _tick(self, member: int, k: int, gen: int) -> None:
        if self._gen.get(member) != gen:
            return
        self.fn((member,))
        self._arm(member, k + 1, gen)


def _run_with_oracle(config, module, name, oracle, abort_after):
    """Run ``config`` stock, then with ``module.<name>`` swapped for its
    ``oracle`` class, and assert the runs are metric- and series-
    identical.  Returns the ``(reference, stock)`` result pair."""
    from repro.experiments.runner import SOCSimulation

    def run():
        sim = SOCSimulation(config)
        if abort_after is not None:
            sim.sim.schedule(abort_after, sim.sim.stop)
        return sim.run()

    stock = run()
    original = getattr(module, name)
    setattr(module, name, oracle)
    try:
        reference = run()
    finally:
        setattr(module, name, original)
    assert_results_identical(reference, stock)
    return reference, stock


def assert_tick_modes_equivalent(config, *, abort_after: float | None = None):
    """Run ``config`` (quantized phases, ``phase_buckets >= 1``) with the
    stock cohort timers and with every ``Simulator.periodic_cohort``
    building a :class:`ReferenceCohortScheduler` (one grid chain per
    member, one-member rounds) instead.  Equality is exact — not approx —
    because cohort coalescing is a pure event-batching transform: same
    RNG streams, same instants, same delivery order.

    Returns the ``(per_node, cohort)`` result pair so callers can make
    further assertions (e.g. ``generated > 0``).
    """
    from repro.sim import engine

    if config.pidcan.phase_buckets < 1:
        raise ValueError("assert_tick_modes_equivalent needs phase_buckets >= 1")
    return _run_with_oracle(
        config, engine, "CohortTimer", ReferenceCohortScheduler, abort_after
    )


def assert_results_identical(a, b) -> None:
    """Assert two :class:`SimulationResult` runs are metric- and
    series-identical.  Equality is exact — not approx — because every
    coalescing lever (cohort ticking, arrival batching, delivery
    batching) is a pure event-batching transform: same RNG streams, same
    instants, same delivery order."""
    assert a.generated == b.generated
    assert a.finished == b.finished
    assert a.failed == b.failed
    assert a.placed == b.placed
    assert a.evicted == b.evicted
    assert a.recovered == b.recovered
    assert a.query_timeouts == b.query_timeouts
    assert a.peak_population == b.peak_population
    assert a.traffic_by_kind == b.traffic_by_kind
    assert a.traffic_total == b.traffic_total
    assert a.balance == b.balance
    assert a.query_latency == b.query_latency
    assert a.efficiencies == b.efficiencies
    assert set(a.series) == set(b.series)
    for name, series in a.series.items():
        other = b.series[name]
        assert series.times == other.times, f"{name} sample times diverge"
        # Exact equality, but NaN == NaN (early fairness samples are NaN
        # before any task finishes).
        assert np.array_equal(
            np.asarray(series.values), np.asarray(other.values), equal_nan=True
        ), f"{name} sample values diverge"


class ReferencePIList:
    """The seed's scalar PIList (§III-B), verbatim — dict of insertion
    stamps, ``min()``-scan eviction — kept as the behavioural oracle for
    the stamp-ordered :class:`repro.core.pilist.PIList` and for the
    :class:`repro.core.cache.RangeCache` TTL policy."""

    def __init__(self, ttl: float, max_size: int = 64):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = float(ttl)
        self.max_size = int(max_size)
        self._added_at: dict[int, float] = {}
        #: Latest simulation time this list has observed; ``__len__`` and
        #: ``__contains__`` expire against it so they agree with the most
        #: recent ``entries()``/``sample()`` view (sim time is monotonic).
        self._clock = 0.0

    def _observe(self, now: float) -> None:
        if now > self._clock:
            self._clock = now

    def add(self, node_id: int, now: float) -> None:
        """Insert or refresh an index; evict the stalest when full."""
        self._observe(now)
        self._added_at[node_id] = now
        if len(self._added_at) > self.max_size:
            oldest = min(self._added_at, key=lambda k: (self._added_at[k], k))
            del self._added_at[oldest]

    def discard(self, node_id: int) -> None:
        self._added_at.pop(node_id, None)

    def purge(self, now: float) -> None:
        self._observe(now)
        cutoff = now - self.ttl
        stale = [k for k, t in self._added_at.items() if t < cutoff]
        for k in stale:
            del self._added_at[k]

    def entries(self, now: float) -> list[int]:
        self.purge(now)
        return sorted(self._added_at)

    def sample(self, k: int, now: float, rng: np.random.Generator) -> list[int]:
        """Up to ``k`` distinct indexes, uniformly at random (Algorithm 4
        line 1)."""
        pool = self.entries(now)
        if len(pool) <= k:
            return pool
        picked = rng.choice(len(pool), size=k, replace=False)
        return [pool[i] for i in picked]

    def __len__(self) -> int:
        """Live entry count as of the latest observed time (stale entries
        are not reported, matching ``entries()``/``sample()``)."""
        self.purge(self._clock)
        return len(self._added_at)

    def __contains__(self, node_id: int) -> bool:
        added = self._added_at.get(node_id)
        return added is not None and added >= self._clock - self.ttl


def assert_cache_off_equivalent(config):
    """Run ``config`` (which must have the hot-range cache off) twice —
    once stock, once with every protocol PIList swapped for the scalar
    :class:`ReferencePIList` — and assert the runs are metric- and
    series-identical.

    This pins the cache-off contract of docs/caching.md from both ends:
    the stamp-ordered PIList is draw-for-draw the seed implementation,
    and with ``cache_policy=None`` no other cache code runs at all.
    Returns the ``(stock, reference)`` result pair.
    """
    from repro.core import protocol as protocol_mod

    if config.cache_policy is not None:
        raise ValueError("assert_cache_off_equivalent needs cache_policy=None")
    return _run_with_oracle(
        config, protocol_mod, "PIList", ReferencePIList, None
    )[::-1]


class ReferenceDeliveryCalendar:
    """Per-message scheduling behind the calendar API, kept as the
    behavioural oracle for :class:`repro.sim.delivery.DeliveryCalendar`:
    every ``deliver`` is its own heap event, exactly the pre-calendar
    discipline.  Counters mirror the calendar's (each delivery is its own
    flush) so accounting comparisons read symmetrically."""

    __slots__ = ("sim", "quantum", "deliveries", "flushes")

    def __init__(self, sim: Simulator, quantum: float = 0.0):
        if quantum < 0:
            raise ValueError("quantum must be >= 0")
        self.sim = sim
        self.quantum = float(quantum)
        self.deliveries = 0
        self.flushes = 0

    def deliver(self, delay: float, fn: Callable, *args) -> None:
        self.deliver_at(self.sim.now + delay, fn, *args)

    def deliver_at(self, when: float, fn: Callable, *args) -> None:
        if self.quantum > 0.0:
            when = math.ceil(when / self.quantum) * self.quantum
        self.deliveries += 1
        self.flushes += 1
        self.sim.schedule_at(when, fn, *args)


def assert_delivery_modes_equivalent(config, *, abort_after: float | None = None):
    """Run ``config`` at delivery quantum 0 with the stock calendar and
    with the runner building a :class:`ReferenceDeliveryCalendar` (one
    heap event per message) instead.  The calendar batches only genuinely
    same-instant deliveries and replays each batch in enqueue order, so
    the runs must match exactly.  Returns the ``(per_message, coalesced)``
    result pair so callers can make further assertions."""
    from dataclasses import replace

    from repro.experiments import runner

    return _run_with_oracle(
        replace(config, delivery_quantum=0.0), runner, "DeliveryCalendar",
        ReferenceDeliveryCalendar, abort_after,
    )
