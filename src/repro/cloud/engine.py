"""Vectorized host-execution engine: one SoA PSM engine for every host.

The seed kept one :class:`NodeExecutor` object per host — a Python dict of
``RunningTask`` records, re-walked on every availability probe, placement,
completion and checkpoint tick.  At paper scale (2000 nodes, one simulated
day) the resident-task backlog makes those per-host Python loops the hot
path of the whole simulation.  This engine replaces the per-host object
graph with structure-of-arrays state shared by *all* hosts:

- **host arrays** — capacities, effective capacities, aggregated loads and
  availabilities in ``(H, d)`` float64 matrices, the PSM share vector
  ``c / l`` of Eq. 1 on the three work dimensions in an ``(H, 3)`` one
  (a task's progress rate is its expectation times its host's share),
  VM counts and progress timestamps in flat arrays;
- **task arrays** — remaining work, expectation vectors, owning-host rows
  and a liveness bit in ``(M, ·)`` arrays with lazy compaction
  (completion/eviction only flips the bit; rows are squeezed out once dead
  rows outnumber the live ones, preserving insertion order — the engine
  is a :class:`repro.sim.rows.RowTable` over its task rows, like the
  caches);
- a **global completion calendar** — a lazy binary heap holding at most one
  live entry per host, rebuilt per host from the vectorized next-completion
  prediction, so the simulation schedules exactly one event for the
  globally-earliest completion instead of juggling one handle per host.

Shares are piecewise constant between *scheduling points* (a placement,
eviction or completion on the node), so a host's arrays change only at its
own scheduling points — every mutation advances, re-shares (Eq. 1) and
re-predicts **only the dirty host**, in one pass that gathers that host's
task rows once and scatters them back once (:meth:`HostEngine._reschedule`).
Availability (``a_i = c_i − l_i`` clipped at zero, with capacity first
reduced by the per-VM maintenance overhead) does not depend on task
progress at all, so between scheduling points it is served straight from
the cached ``(H, d)`` matrix without integrating anything.

The arithmetic (operation order included) mirrors the scalar executor
exactly; :class:`tests.oracles.ReferenceNodeExecutor` is kept verbatim as
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
from repro.sim.rows import MIN_CAPACITY, RowTable, grow_columns

__all__ = ["HostEngine"]

#: Work below this is treated as done (guards float round-off at completion).
_WORK_EPS = 1e-6

#: The host arrays, ``(H, ·)`` columns grown together.
_HOST_COLUMNS = (
    "_cap", "_eff", "_load", "_avail", "_share", "_nrun", "_last", "_gen",
    "_next_when", "_next_row",
)


class HostEngine(RowTable):
    """Executes every host's resident tasks under PSM sharing.

    Usage pattern (driven by the simulation runner)::

        eng.add_host(node_id, capacity)
        eng.place(node_id, task, now)         # or eng.remove / eng.evict_all
        head = eng.peek()                     # (when, host_id, task_id)
        ... schedule one event at head.when ...
        done = eng.complete(host_id, task_id, when)
    """

    #: Task rows (keyed by task id): remaining work, expectation vector
    #: and owning host row, beside the ``_tasks`` objects.
    _COLUMNS = ("_t_rem", "_t_exp", "_t_host")
    _OBJECTS = "_tasks"

    def __init__(self, overhead: VMOverhead = DEFAULT_OVERHEAD):
        super().__init__()
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
        # PSM share per work dimension (Eq. 1): a resident task progresses
        # at ``e_j[:3] · _share[h]`` until the host's next scheduling point.
        self._share = np.empty((0, N_WORK_DIMS), dtype=np.float64)
        self._nrun = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.float64)  # last progress integration
        self._host_tasks: list[list[int]] = []  # host row -> task rows, in order
        self._h_n = 0

        # --- task SoA -------------------------------------------------
        self._tasks: list[Optional[Task]] = []  # task row -> Task (None = dead)
        self._t_rem = np.empty((0, N_WORK_DIMS), dtype=np.float64)
        self._t_exp = np.empty((0, dims), dtype=np.float64)
        self._t_host = np.empty(0, dtype=np.int64)

        # --- completion calendar -------------------------------------
        # One live heap entry per host; staleness is detected by comparing
        # the entry's generation stamp against the host's current one.
        self._heap: list[tuple[float, int, int]] = []  # (when, gen, host row)
        self._gen = np.empty(0, dtype=np.int64)
        self._next_when = np.empty(0, dtype=np.float64)
        self._next_row = np.empty(0, dtype=np.int64)  # predicted task row
        self._gen_counter = 0

    def _compact(self) -> np.ndarray:
        """Squeeze out dead task rows, then remap every host's row list
        and calendar prediction."""
        n = self._n
        keep = super()._compact()
        new_row = np.full(n, -1, dtype=np.int64)
        new_row[keep] = np.arange(keep.size)
        for h in np.flatnonzero(self._nrun[: self._h_n]).tolist():
            rows = self._host_tasks[h]
            rows[:] = new_row[rows].tolist()
        predicted = self._next_row[: self._h_n]
        busy = predicted >= 0
        predicted[busy] = new_row[predicted[busy]]
        return keep

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
            grow_columns(self, _HOST_COLUMNS, self._h_n, self._h_n + k)
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
        self._share[rows] = 0.0
        self._nrun[rows] = 0
        self._last[rows] = 0.0
        self._gen[rows] = 0
        self._next_when[rows] = np.inf
        self._next_row[rows] = -1
        self._h_n += k

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
        return sum(
            getattr(self, name).nbytes
            for name in (*_HOST_COLUMNS, *self._columns())
        )

    def trim(self) -> int:
        """Release slack: compact dead task rows, shrink every SoA array to
        its live extent, and drop stale calendar entries.  Returns the
        number of bytes released.  Semantics-preserving — only spare
        capacity goes away, never live state."""
        before = self.footprint_bytes()
        if self._dead:
            self._compact()
        for names, n in ((self._columns(), self._n), (_HOST_COLUMNS, self._h_n)):
            capacity = max(MIN_CAPACITY, n)
            for name in names:
                col = getattr(self, name)
                if col.shape[0] > capacity:
                    setattr(self, name, col[:capacity].copy())
        live = [(w, g, h) for (w, g, h) in self._heap if g == self._gen[h]]
        if len(live) < len(self._heap):
            heapq.heapify(live)
            self._heap = live
        return before - self.footprint_bytes()

    # ------------------------------------------------------------------
    # progress integration
    # ------------------------------------------------------------------
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
        rows = np.flatnonzero(self._live[: self._n])
        if rows.size:
            hosts = self._t_host[rows]
            rem = self._t_rem[rows]
            rem -= self._t_exp[rows, :N_WORK_DIMS] * self._share[hosts] * dt[hosts, None]
            np.maximum(rem, 0.0, out=rem)
            self._t_rem[rows] = rem
        self._last[:n] = now

    # ------------------------------------------------------------------
    # scheduling points
    # ------------------------------------------------------------------
    def _reschedule(
        self,
        h: int,
        now: float,
        stay: list[int],
        leave: list[int],
        arriving: Optional[Task] = None,
        finishing: bool = False,
    ) -> list[Task]:
        """One scheduling point on host row ``h``, in one pass over its
        task rows: integrate progress up to ``now`` under the shares in
        force since the host's last point, re-share (Eq. 1), re-predict the
        next completion and scatter the remaining work back once.

        ``stay`` lists the rows resident after the point, in placement
        order; ``arriving`` is appended to it as a fresh row that has made
        no progress yet.  ``leave`` rows are integrated, then freed and
        returned as tasks with their ``remaining_work`` synchronized — or
        zeroed and stamped finished when ``finishing``, which first refuses
        a task with work left.  Nothing changes when a check raises.
        """
        dt = now - self._last[h]
        if dt < 0:
            raise ValueError(f"time went backwards: {now} < {self._last[h]}")
        if arriving is not None:
            row = self._append(arriving.task_id, arriving)
            self._t_rem[row] = arriving.remaining_work
            self._t_exp[row] = arriving.expectation
            self._t_host[row] = h
            stay.append(row)
        k = len(stay)
        block = stay + leave if leave else stay
        if block:
            rows = np.array(block)
            rem = self._t_rem[rows]
            exp = self._t_exp[rows]
            # The arrival (last row) has had no share yet; everyone else
            # progressed at ``e_j · share`` since the last point.
            moved = len(block) - (arriving is not None)
            if dt > 0 and moved:
                done = rem[:moved]
                done -= exp[:moved, :N_WORK_DIMS] * self._share[h] * dt
                np.maximum(done, 0.0, out=done)
                self._t_rem[rows] = rem
            if finishing and float(rem[k].max()) > 1e-3:
                task_id = self._tasks[leave[0]].task_id
                raise RuntimeError(
                    f"task {task_id} completed with work left: {rem[k]}"
                )
        self._last[h] = now

        # Eq. 1 with k VM instances resident (§IV-A overhead): every task
        # runs at ``e_j · share`` with ``share = eff / l`` on loaded dims.
        self._nrun[h] = k
        eff = self._cap[h] * (1.0 - self._frac * k) - self._flat * k
        np.maximum(eff, 0.0, out=eff)
        self._gen_counter += 1
        self._gen[h] = self._gen_counter
        when = np.inf
        if k:
            load = exp[:k].sum(axis=0)
            share = np.divide(eff, load, out=np.zeros(self.dims), where=load > 0)
            share = share[:N_WORK_DIMS]
            self._share[h] = share
            # Next completion: the latest-finishing work dimension per task;
            # a dimension with leftover work but zero rate stalls the task.
            left = rem[:k]
            rates = exp[:k, :N_WORK_DIMS] * share
            work = left > _WORK_EPS
            stalled = None
            if rates.min() <= 0.0:
                blocked = rates <= 0.0
                stalled = (work & blocked).any(axis=1)
                work &= ~blocked
            finish = np.divide(left, rates, out=np.zeros_like(left), where=work)
            finish = finish.max(axis=1)
            if stalled is not None:
                finish[stalled] = np.inf
            # Pick the winner in *absolute* time: the scalar reference
            # compares ``last_update + t`` with a strict ``<`` (first-placed
            # wins ties), and absolute sums can tie at the float level where
            # the relative finish times still differ by an ulp.  ``stay`` is
            # placement order, so argmin's first-occurrence rule matches the
            # reference exactly.
            finish += now
            i = int(finish.argmin())
            when = float(finish[i])
        else:
            load = np.zeros(self.dims)
            self._share[h] = 0.0
        if when < np.inf:
            self._next_when[h] = when
            self._next_row[h] = stay[i]
            heapq.heappush(self._heap, (when, self._gen_counter, h))
        else:
            self._next_when[h] = np.inf
            self._next_row[h] = -1
        self._eff[h] = eff
        self._load[h] = load
        np.maximum(eff - load, 0.0, out=self._avail[h])

        self._host_tasks[h] = stay
        if not leave:
            return []
        out = []
        for j, row in enumerate(leave, start=k):
            task = self._tasks[row]
            self._kill(row)
            if finishing:
                task.remaining_work[:] = 0.0
                task.finish_time = now
            else:
                task.remaining_work[:] = rem[j]
            out.append(task)
        self._maybe_compact()
        return out

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
    def _resident(self, host_id: int, task_id: int) -> tuple[int, list[int], int]:
        """Host row, host task rows and task row of a resident task."""
        h = self._row(host_id)
        row = self._row_of[task_id]
        if self._t_host[row] != h:
            raise KeyError(f"task {task_id} is not resident on host {host_id}")
        stay = self._host_tasks[h].copy()
        stay.remove(row)
        return h, stay, row

    def place(self, host_id: int, task: Task, now: float) -> None:
        """Admit ``task`` on ``host_id``; the host's shares are re-computed
        and its calendar entry refreshed."""
        if task.task_id in self._row_of:
            raise ValueError(f"task {task.task_id} already running here")
        h = self._row(host_id)
        task.start_time = now
        self._reschedule(h, now, self._host_tasks[h], [], arriving=task)

    def remove(self, host_id: int, task_id: int, now: float) -> Task:
        """Evict a task (e.g. node churned out); returns it unfinished with
        its ``remaining_work`` synchronized."""
        h, stay, row = self._resident(host_id, task_id)
        return self._reschedule(h, now, stay, [row])[0]

    def evict_all(self, host_id: int, now: float) -> list[Task]:
        """Evict every resident task (host crashed out), in placement
        order; one re-share instead of one per task."""
        h = self._row(host_id)
        return self._reschedule(h, now, [], self._host_tasks[h])

    def complete(self, host_id: int, task_id: int, now: float) -> Task:
        """Finish a task whose predicted completion time has arrived."""
        h, stay, row = self._resident(host_id, task_id)
        return self._reschedule(h, now, stay, [row], finishing=True)[0]
