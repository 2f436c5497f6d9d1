"""Requester-side query lifecycle shared by every discovery protocol.

Every protocol in the repository — PID-CAN's :class:`~repro.core.query.
QueryEngine` and all the baselines — answers a range query with a chain of
messages hopping node to node.  Under churn any hop can land on a node
that has already departed; the message is dropped (the crash model of
:meth:`repro.core.context.ProtocolContext.send`) and, without a failsafe,
the requester's callback never fires.  Batched submission then hangs
forever: the fan-in of :meth:`repro.core.query.QueryEngine.submit_many`
waits on a query that can no longer complete.

:class:`QueryLifecycle` centralizes the requester-side machinery that
used to be private to ``QueryEngine`` so every protocol shares identical
failure semantics:

- **per-query runtimes** (:class:`QueryRuntime`) holding the demand, the
  accumulated found-records, the message count and the exactly-once
  finalization flag;
- **failsafe timeouts** — every query schedules one at submission; a
  chain lost to churn resolves as an explicit *timeout failure* (empty or
  partial results) instead of a silent hang, and the expiry is counted so
  it can feed the success-ratio metrics;
- **message accounting hooks** — chains increment ``rt.messages`` as they
  send, and the count reaches the requester callback even on timeout.

A dead chain's stragglers (messages still in flight when the timeout
fires) find no live runtime via :meth:`QueryLifecycle.get` and fall on
the floor, so a query resolves **exactly once** — by chain completion or
by timeout, never both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.context import ProtocolContext
from repro.core.state import StateCache, StateRecord
from repro.sim.events import Event

__all__ = ["QueryLifecycle", "QueryRuntime"]


@dataclass
class QueryRuntime:
    """Requester-side bookkeeping for one task's query."""

    qid: int
    requester: int
    demand: np.ndarray  # original e(t)
    callback: Callable[[list[StateRecord], int], None]
    v: np.ndarray = None  # type: ignore[assignment]  # current query vector
    found: list[StateRecord] = field(default_factory=list)
    messages: int = 0
    finalized: bool = False
    timed_out: bool = False  # resolved by the failsafe, not the chain
    sos_attempted: bool = False
    timeout_handle: Optional[Event] = None

    def collect(self, cache: Optional[StateCache], now: float, delta: int) -> None:
        """Add ``cache``'s records qualified at ``now`` to ``found``, up
        to ``delta`` in all.  ``found`` holds one record per owner: each
        cache is owner-keyed and every scan excludes the owners already
        found."""
        if cache is not None and len(cache):
            need = delta - len(self.found)
            if need > 0:
                self.found.extend(
                    cache.qualified(
                        self.demand, now, limit=need,
                        exclude={r.owner for r in self.found},
                    )
                )


class QueryLifecycle:
    """Per-protocol registry of live queries with failsafe timeouts.

    ``on_timeout`` customizes what happens when a query's failsafe fires
    while it is still live: the default resolves it immediately via
    :meth:`expire`; ``QueryEngine`` installs a hook that may re-conduct
    the search once (Slack-on-Submission) before giving up.  ``on_expire``
    is an observer invoked once per expired query — the simulation runner
    uses it to feed timeout failures into the ratio metrics.
    """

    def __init__(
        self,
        ctx: ProtocolContext,
        timeout: float,
        on_timeout: Optional[Callable[[QueryRuntime], None]] = None,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        self.ctx = ctx
        self.timeout = float(timeout)
        self._on_timeout = on_timeout
        self.on_expire: Optional[Callable[[QueryRuntime], None]] = None
        self._active: dict[int, QueryRuntime] = {}
        self._next_qid = 0
        self.started = 0
        self.completed = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # query lifetime
    # ------------------------------------------------------------------
    def begin(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> QueryRuntime:
        """Register a query and arm its failsafe timeout.

        ``callback(records, messages)`` is guaranteed to fire exactly once
        — when the protocol finalizes the runtime, or when the failsafe
        expires it, whichever comes first.
        """
        rt = QueryRuntime(
            qid=self._next_qid,
            requester=requester,
            demand=np.asarray(demand, dtype=np.float64),
            callback=callback,
        )
        rt.v = rt.demand
        self._next_qid += 1
        self._active[rt.qid] = rt
        self.started += 1
        rt.timeout_handle = self.ctx.sim.schedule(
            self.timeout, self._fire_timeout, rt.qid
        )
        return rt

    def get(self, qid: int) -> Optional[QueryRuntime]:
        """The live runtime for ``qid``, or ``None`` once it resolved —
        chain handlers bail out on ``None`` so stragglers of a timed-out
        query cannot double-fire the callback."""
        rt = self._active.get(qid)
        if rt is None or rt.finalized:
            return None
        return rt

    def active_queries(self) -> int:
        return len(self._active)

    def restart_timeout(self, rt: QueryRuntime) -> None:
        """Re-arm the failsafe from now (retry paths, e.g. the SoS
        re-submission re-conducts the whole chain)."""
        if rt.timeout_handle is not None:
            rt.timeout_handle.cancel()
        rt.timeout_handle = self.ctx.sim.schedule(
            self.timeout, self._fire_timeout, rt.qid
        )

    # ------------------------------------------------------------------
    # resolution (exactly one of finalize/expire per query)
    # ------------------------------------------------------------------
    def finalize(self, rt: QueryRuntime) -> None:
        """Resolve a query through its own chain (normal completion)."""
        if rt.finalized:
            return
        self.completed += 1
        self._finish(rt)

    def expire(self, rt: QueryRuntime) -> None:
        """Resolve a query whose chain died (churn): the callback fires
        with whatever was found so far, and the expiry is counted exactly
        once toward the timeout-failure metrics."""
        if rt.finalized:
            return
        rt.timed_out = True
        self.timeouts += 1
        if self.on_expire is not None:
            self.on_expire(rt)
        self._finish(rt)

    def _finish(self, rt: QueryRuntime) -> None:
        rt.finalized = True
        if rt.timeout_handle is not None:
            rt.timeout_handle.cancel()
            rt.timeout_handle = None
        self._active.pop(rt.qid, None)
        rt.callback(rt.found, rt.messages)

    def _fire_timeout(self, qid: int) -> None:
        # A resolved query's timeout never fires: _finish cancels it, and
        # restart_timeout cancels the one it replaces.
        rt = self._active[qid]
        if self._on_timeout is not None:
            self._on_timeout(rt)
        else:
            self.expire(rt)
