"""Vectorized host-execution engine: one SoA PSM engine for every host.

The seed kept one :class:`NodeExecutor` object per host — a Python dict of
``RunningTask`` records, re-walked on every availability probe, placement,
completion and checkpoint tick.  At paper scale (2000 nodes, one simulated
day) the resident-task backlog makes those per-host Python loops the hot
path of the whole simulation.  This engine replaces the per-host object
graph with structure-of-arrays state shared by *all* hosts:

- **host arrays** — capacities, effective capacities, aggregated loads and
  availabilities in ``(H, d)`` float64 matrices, VM counts and progress
  timestamps in flat arrays;
- **task arrays** — remaining work, progress rates, expectation vectors,
  owning-host rows and a liveness bit in ``(M, ·)`` arrays with lazy
  compaction (completion/eviction only flips the bit; rows are squeezed out
  once dead rows outnumber the live ones, preserving insertion order — the
  same discipline as :class:`repro.core.state.StateCache`);
- a **global completion calendar** — a lazy binary heap holding at most one
  live entry per host, rebuilt per host from the vectorized next-completion
  prediction, so the simulation schedules exactly one event for the
  globally-earliest completion instead of juggling one handle per host.

Shares are piecewise constant between *scheduling points* (a placement,
eviction or completion on the node), so a host's arrays change only at its
own scheduling points — every mutation advances, re-shares (Eq. 1) and
re-predicts **only the dirty host**, as a handful of array ops over that
host's task rows.  Availability (``a_i = c_i − l_i`` clipped at zero, with
capacity first reduced by the per-VM maintenance overhead) does not depend
on task progress at all, so between scheduling points it is served straight
from the cached ``(H, d)`` matrix without integrating anything.

The arithmetic (operation order included) mirrors the scalar executor
exactly; :class:`repro.testing.ReferenceNodeExecutor` is kept verbatim as
the behavioural oracle and ``tests/cloud/test_engine_equivalence.py``
drives randomized schedules through both.

The engine is simulation-agnostic: callers drive it with absolute
timestamps and read back the calendar head.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

import numpy as np

from repro.cloud.psm import DEFAULT_OVERHEAD, VMOverhead, effective_capacity_batch
from repro.cloud.tasks import N_WORK_DIMS, Task

__all__ = ["HostEngine"]

#: Work below this is treated as done (guards float round-off at completion).
_WORK_EPS = 1e-6

#: Initial row capacity of the SoA arrays.
_MIN_CAPACITY = 8

#: Compact once dead task rows outnumber both this floor and the live rows.
_COMPACT_FLOOR = 64


class HostEngine:
    """Executes every host's resident tasks under PSM sharing.

    Usage pattern (driven by the simulation runner)::

        eng.add_host(node_id, capacity)
        eng.place(node_id, task, now)         # or eng.remove / eng.evict_all
        head = eng.peek()                     # (when, host_id, task_id)
        ... schedule one event at head.when ...
        done = eng.complete(host_id, task_id, when)
    """

    def __init__(self, overhead: VMOverhead = DEFAULT_OVERHEAD):
        self.overhead = overhead
        self._frac, self._flat = overhead.arrays()
        #: Resource dimensionality, fixed by the overhead model's vectors.
        dims = self.dims = int(self._frac.shape[0])

        # --- host SoA -------------------------------------------------
        self._host_row: dict[int, int] = {}
        self._host_ids: list[int] = []
        self._cap = np.empty((0, dims), dtype=np.float64)
        self._eff = np.empty((0, dims), dtype=np.float64)
        self._load = np.empty((0, dims), dtype=np.float64)
        self._avail = np.empty((0, dims), dtype=np.float64)
        self._nrun = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.float64)  # last progress integration
        self._host_tasks: list[list[int]] = []  # host row -> task rows, in order
        self._h_n = 0

        # --- task SoA -------------------------------------------------
        self._task_row: dict[int, int] = {}
        self._tasks: list[Optional[Task]] = []  # task row -> Task (None = dead)
        self._t_rem = np.empty((0, N_WORK_DIMS), dtype=np.float64)
        self._t_rates = np.empty((0, N_WORK_DIMS), dtype=np.float64)
        self._t_exp = np.empty((0, dims), dtype=np.float64)
        self._t_host = np.empty(0, dtype=np.int64)
        self._t_live = np.empty(0, dtype=bool)
        self._t_n = 0
        self._t_dead = 0

        # --- completion calendar -------------------------------------
        # One live heap entry per host; staleness is detected by comparing
        # the entry's generation stamp against the host's current one.
        self._heap: list[tuple[float, int, int]] = []  # (when, gen, host row)
        self._gen = np.empty(0, dtype=np.int64)
        self._next_when = np.empty(0, dtype=np.float64)
        self._next_row = np.empty(0, dtype=np.int64)  # predicted task row
        self._gen_counter = 0

    # ------------------------------------------------------------------
    # storage management
    # ------------------------------------------------------------------
    def _grow_hosts(self, need: int) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._h_n, need)
        n = self._h_n
        for name in ("_cap", "_eff", "_load", "_avail"):
            old = getattr(self, name)
            fresh = np.zeros((capacity, self.dims), dtype=np.float64)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        for name, dtype, fill in (
            ("_nrun", np.int64, 0),
            ("_last", np.float64, 0.0),
            ("_gen", np.int64, 0),
            ("_next_when", np.float64, np.inf),
            ("_next_row", np.int64, -1),
        ):
            old = getattr(self, name)
            fresh = np.full(capacity, fill, dtype=dtype)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)

    def _grow_tasks(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._t_n)
        n = self._t_n
        for name, shape in (
            ("_t_rem", (capacity, N_WORK_DIMS)),
            ("_t_rates", (capacity, N_WORK_DIMS)),
            ("_t_exp", (capacity, self.dims)),
        ):
            old = getattr(self, name)
            fresh = np.zeros(shape, dtype=np.float64)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        host = np.full(capacity, -1, dtype=np.int64)
        host[:n] = self._t_host[:n]
        self._t_host = host
        live = np.zeros(capacity, dtype=bool)
        live[:n] = self._t_live[:n]
        self._t_live = live

    def _compact_tasks(self) -> None:
        """Squeeze out dead task rows, preserving insertion order."""
        keep = np.flatnonzero(self._t_live[: self._t_n])
        m = int(keep.size)
        if m:
            self._t_rem[:m] = self._t_rem[keep]
            self._t_rates[:m] = self._t_rates[keep]
            self._t_exp[:m] = self._t_exp[keep]
            self._t_host[:m] = self._t_host[keep]
        self._t_live[:m] = True
        self._t_live[m : self._t_n] = False
        tasks = [self._tasks[row] for row in keep]
        self._tasks[:] = tasks
        self._task_row = {task.task_id: row for row, task in enumerate(tasks)}
        # Remap every host's row list and calendar prediction.
        new_row = np.full(self._t_n, -1, dtype=np.int64)
        new_row[keep] = np.arange(m)
        for h in range(self._h_n):
            lst = self._host_tasks[h]
            if lst:
                lst[:] = [int(new_row[r]) for r in lst]
            if self._next_row[h] >= 0:
                self._next_row[h] = new_row[self._next_row[h]]
        self._t_n = m
        self._t_dead = 0

    def _maybe_compact(self) -> None:
        if self._t_dead > _COMPACT_FLOOR and self._t_dead > self._t_n - self._t_dead:
            self._compact_tasks()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_host(self, host_id: int, capacity: np.ndarray) -> None:
        """Register one host with capacity vector ``c_i`` (§II)."""
        capacity = np.asarray(capacity, dtype=np.float64)
        self.add_hosts([host_id], capacity[None, :])

    def add_hosts(self, host_ids: list[int], capacities: np.ndarray) -> None:
        """Bulk host registration — one ``(k, d)`` capacity matrix in, all
        host rows initialized with vectorized array fills."""
        capacities = np.asarray(capacities, dtype=np.float64)
        k = len(host_ids)
        if capacities.shape != (k, self.dims):
            raise ValueError(
                f"expected a ({k}, {self.dims}) capacity matrix, "
                f"got {capacities.shape}"
            )
        if len(set(host_ids)) != k:
            raise ValueError("duplicate host ids in batch")
        for host_id in host_ids:
            if host_id in self._host_row:
                raise ValueError(f"host {host_id} already registered")
        if self._h_n + k > self._cap.shape[0]:
            self._grow_hosts(self._h_n + k)
        rows = slice(self._h_n, self._h_n + k)
        for offset, host_id in enumerate(host_ids):
            self._host_row[host_id] = self._h_n + offset
            self._host_ids.append(host_id)
            self._host_tasks.append([])
        self._cap[rows] = capacities
        self._eff[rows] = effective_capacity_batch(
            capacities, np.zeros(k), self.overhead
        )
        self._load[rows] = 0.0
        self._avail[rows] = self._eff[rows]
        self._nrun[rows] = 0
        self._last[rows] = 0.0
        self._next_when[rows] = np.inf
        self._next_row[rows] = -1
        self._h_n += k

    @property
    def n_hosts(self) -> int:
        return self._h_n

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _row(self, host_id: int) -> int:
        return self._host_row[host_id]

    def n_running(self, host_id: int) -> int:
        return int(self._nrun[self._row(host_id)])

    def running_tasks(self, host_id: int) -> list[Task]:
        """Resident tasks in placement order.  Each task's
        ``remaining_work`` array is synchronized from the engine state, so
        callers (e.g. checkpointing) see current progress."""
        rows = self._host_tasks[self._row(host_id)]
        out = []
        for row in rows:
            task = self._tasks[row]
            task.remaining_work[:] = self._t_rem[row]
            out.append(task)
        return out

    def load(self, host_id: int) -> np.ndarray:
        """``l_i`` — aggregated expectation of resident tasks (§II)."""
        return self._load[self._row(host_id)].copy()

    def effective_capacity(self, host_id: int) -> np.ndarray:
        return self._eff[self._row(host_id)].copy()

    def availability(self, host_id: int) -> np.ndarray:
        """``a_i = c_i − l_i`` clipped at zero, with capacity first reduced
        by the VM maintenance overhead of the resident instances.  Served
        from the cached matrix: availability only changes at the host's own
        scheduling points, never with mere time passage."""
        return self._avail[self._row(host_id)].copy()

    def availability_matrix(self, host_ids: list[int]) -> np.ndarray:
        """``(k, d)`` availabilities for many hosts in one gather."""
        rows = [self._host_row[h] for h in host_ids]
        return self._avail[rows]

    def is_overloaded(self, host_id: int) -> bool:
        """True when some dimension is over-subscribed (shares < demand)."""
        row = self._row(host_id)
        if not self._nrun[row]:
            return False
        return bool(np.any(self._load[row] > self._eff[row] + 1e-12))

    def busy_host_ids(self) -> Iterator[int]:
        """Host ids with at least one resident task."""
        for row in np.flatnonzero(self._nrun[: self._h_n] > 0).tolist():
            yield self._host_ids[row]

    def mean_utilization(self) -> float:
        """Mean fraction of effective capacity in use across all hosts and
        dimensions, in one vectorized pass over the cached SoA matrices —
        no per-host iteration, so it is safe on the metrics sampling path
        at 10^5 hosts."""
        n = self._h_n
        if not n:
            return 0.0
        eff = self._eff[:n]
        load = self._load[:n]
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(eff > 0.0, load / eff, 0.0)
        np.clip(util, 0.0, 1.0, out=util)
        return float(util.mean())

    # ------------------------------------------------------------------
    # memory footprint
    # ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        """Bytes held by the SoA arrays (the dominant storage; the Python
        task list and calendar heap are small by comparison)."""
        total = 0
        for name in (
            "_cap", "_eff", "_load", "_avail", "_nrun", "_last",
            "_gen", "_next_when", "_next_row",
            "_t_rem", "_t_rates", "_t_exp", "_t_host", "_t_live",
        ):
            total += getattr(self, name).nbytes
        return total

    def trim(self) -> int:
        """Release slack: compact dead task rows, shrink every SoA array to
        its live extent, and drop stale calendar entries.  Returns the
        number of bytes released.  Semantics-preserving — only spare
        capacity goes away, never live state."""
        before = self.footprint_bytes()
        if self._t_dead:
            self._compact_tasks()
        t_cap = max(_MIN_CAPACITY, self._t_n)
        if self._t_rem.shape[0] > t_cap:
            for name in ("_t_rem", "_t_rates", "_t_exp", "_t_host", "_t_live"):
                setattr(self, name, getattr(self, name)[:t_cap].copy())
        h_cap = max(_MIN_CAPACITY, self._h_n)
        if self._cap.shape[0] > h_cap:
            for name in (
                "_cap", "_eff", "_load", "_avail", "_nrun", "_last",
                "_gen", "_next_when", "_next_row",
            ):
                setattr(self, name, getattr(self, name)[:h_cap].copy())
        live = [(w, g, h) for (w, g, h) in self._heap if g == self._gen[h]]
        if len(live) < len(self._heap):
            heapq.heapify(live)
            self._heap = live
        return before - self.footprint_bytes()

    # ------------------------------------------------------------------
    # progress integration
    # ------------------------------------------------------------------
    def _advance_host(self, h: int, now: float) -> None:
        """Integrate one host's resident progress up to ``now``."""
        dt = now - self._last[h]
        if dt < 0:
            raise ValueError(f"time went backwards: {now} < {self._last[h]}")
        if dt > 0 and self._host_tasks[h]:
            rows = np.asarray(self._host_tasks[h])
            rem = self._t_rem[rows]
            rem -= self._t_rates[rows] * dt
            np.maximum(rem, 0.0, out=rem)
            self._t_rem[rows] = rem
        self._last[h] = now

    def advance_all(self, now: float) -> None:
        """Integrate every host's progress up to ``now`` in one pass
        (the checkpoint tick; absolute completion predictions are linear in
        time, so the calendar stays valid)."""
        n = self._h_n
        if not n:
            return
        dt = now - self._last[:n]
        if bool((dt < 0).any()):
            worst = float(self._last[:n].max())
            raise ValueError(f"time went backwards: {now} < {worst}")
        rows = np.flatnonzero(self._t_live[: self._t_n])
        if rows.size:
            task_dt = dt[self._t_host[rows]]
            rem = self._t_rem[rows]
            rem -= self._t_rates[rows] * task_dt[:, None]
            np.maximum(rem, 0.0, out=rem)
            self._t_rem[rows] = rem
        self._last[:n] = now

    def _reshare_host(self, h: int) -> None:
        """Recompute the host's PSM shares, load and availability (Eq. 1)."""
        lst = self._host_tasks[h]
        k = len(lst)
        self._nrun[h] = k
        # effective capacity with k VM instances resident (§IV-A overhead)
        eff = self._cap[h] * (1.0 - self._frac * k) - self._flat * k
        np.maximum(eff, 0.0, out=eff)
        if k:
            rows = np.asarray(lst)
            exp = self._t_exp[rows]
            load = exp.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(load > 0, eff / load, 0.0)[:N_WORK_DIMS]
            self._t_rates[rows] = exp[:, :N_WORK_DIMS] * scale
        else:
            load = np.zeros(self.dims)
        self._eff[h] = eff
        self._load[h] = load
        np.maximum(eff - load, 0.0, out=self._avail[h])

    # ------------------------------------------------------------------
    # completion calendar
    # ------------------------------------------------------------------
    def _predict_host(self, h: int) -> None:
        """Vectorized next-completion prediction for one host; refreshes
        the host's calendar entry."""
        self._gen_counter += 1
        self._gen[h] = self._gen_counter
        lst = self._host_tasks[h]
        if not lst:
            self._next_when[h] = np.inf
            self._next_row[h] = -1
            return
        rows = np.asarray(lst)
        rem = self._t_rem[rows]
        rates = self._t_rates[rows]
        # A dimension with leftover work but zero rate stalls the task.
        stalled = ((rem > _WORK_EPS) & (rates <= 0)).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_dim = np.where(rem > _WORK_EPS, rem / rates, 0.0)
        finish = per_dim.max(axis=1)
        finish[stalled] = np.inf
        # Pick the winner in *absolute* time: the scalar reference compares
        # ``last_update + t`` with a strict ``<`` (first-placed wins ties),
        # and absolute sums can tie at the float level where the relative
        # finish times still differ by an ulp.  ``lst`` is placement order,
        # so argmin's first-occurrence rule matches the reference exactly.
        whens = self._last[h] + finish
        i = int(np.argmin(whens))
        if not np.isfinite(whens[i]):
            self._next_when[h] = np.inf
            self._next_row[h] = -1
            return
        when = float(whens[i])
        self._next_when[h] = when
        self._next_row[h] = lst[i]
        heapq.heappush(self._heap, (when, self._gen_counter, h))

    def next_completion(self, host_id: int) -> Optional[tuple[float, Task]]:
        """``(time, task)`` of the host's earliest finishing resident task
        under the current shares, or ``None``."""
        h = self._row(host_id)
        if not np.isfinite(self._next_when[h]):
            return None
        return float(self._next_when[h]), self._tasks[int(self._next_row[h])]

    def peek(self) -> Optional[tuple[float, int, int]]:
        """``(when, host_id, task_id)`` of the globally-earliest predicted
        completion, or ``None`` when no host can finish a task.  Stale heap
        entries (superseded predictions) are discarded lazily."""
        heap = self._heap
        while heap:
            when, gen, h = heap[0]
            if gen != self._gen[h]:
                heapq.heappop(heap)
                continue
            task = self._tasks[int(self._next_row[h])]
            return when, self._host_ids[h], task.task_id
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _new_task_row(self, task: Task) -> int:
        if self._t_n >= self._t_rem.shape[0]:
            self._grow_tasks()
        row = self._t_n
        self._t_rem[row] = task.remaining_work
        self._t_rates[row] = 0.0
        self._t_exp[row] = task.expectation
        self._t_live[row] = True
        self._tasks.append(task)
        self._task_row[task.task_id] = row
        self._t_n += 1
        return row

    def _free_task_row(self, row: int, h: int) -> Task:
        task = self._tasks[row]
        self._tasks[row] = None
        del self._task_row[task.task_id]
        self._t_live[row] = False
        self._t_host[row] = -1
        self._t_dead += 1
        self._host_tasks[h].remove(row)
        return task

    def place(self, host_id: int, task: Task, now: float) -> None:
        """Admit ``task`` on ``host_id``; the host's shares are re-computed
        and its calendar entry refreshed."""
        if task.task_id in self._task_row:
            raise ValueError(f"task {task.task_id} already running here")
        h = self._row(host_id)
        self._advance_host(h, now)
        task.start_time = now
        row = self._new_task_row(task)
        self._t_host[row] = h
        self._host_tasks[h].append(row)
        self._reshare_host(h)
        self._predict_host(h)

    def remove(self, host_id: int, task_id: int, now: float) -> Task:
        """Evict a task (e.g. node churned out); returns it unfinished with
        its ``remaining_work`` synchronized."""
        h = self._row(host_id)
        row = self._task_row[task_id]
        if self._t_host[row] != h:
            raise KeyError(f"task {task_id} is not resident on host {host_id}")
        self._advance_host(h, now)
        task = self._free_task_row(row, h)
        task.remaining_work[:] = self._t_rem[row]
        self._reshare_host(h)
        self._predict_host(h)
        self._maybe_compact()
        return task

    def evict_all(self, host_id: int, now: float) -> list[Task]:
        """Evict every resident task (host crashed out), in placement
        order; one re-share instead of one per task."""
        h = self._row(host_id)
        self._advance_host(h, now)
        out = []
        for row in list(self._host_tasks[h]):
            task = self._free_task_row(row, h)
            task.remaining_work[:] = self._t_rem[row]
            out.append(task)
        self._reshare_host(h)
        self._predict_host(h)
        self._maybe_compact()
        return out

    def complete(self, host_id: int, task_id: int, now: float) -> Task:
        """Finish a task whose predicted completion time has arrived."""
        h = self._row(host_id)
        row = self._task_row[task_id]
        if self._t_host[row] != h:
            raise KeyError(f"task {task_id} is not resident on host {host_id}")
        self._advance_host(h, now)
        if float(self._t_rem[row].max()) > 1e-3:
            raise RuntimeError(
                f"task {task_id} completed with work left: {self._t_rem[row]}"
            )
        task = self._free_task_row(row, h)
        task.remaining_work[:] = 0.0
        task.finish_time = now
        self._reshare_host(h)
        self._predict_host(h)
        self._maybe_compact()
        return task
