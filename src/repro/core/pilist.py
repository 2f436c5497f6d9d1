"""PIList — the Positive Index List of §III-B.

Nodes receiving a diffused index store the originator's identifier here.
Entries expire (diffusion is periodic, so liveness is re-established every
sender cycle) and the list is size-capped with oldest-first eviction.

A list holds a handful of entries (eight on average on the paper cell,
64 at most), so it is one ``dict[key -> stamp]`` **kept in stamp order**:
every caller stamps with the simulation clock, which never runs
backwards, and a refresh is delete + reinsert, so the oldest entries
lead — eviction reads only the leading run of equal stamps, expiry pops
from the front.  Eviction order, purge boundary and
``sample`` RNG consumption are the seed's, kept verbatim as
:class:`tests.oracles.ReferencePIList` and pinned by
``tests/core/test_pilist_lockstep.py``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import distinct_draw

__all__ = ["PIList"]


class PIList:
    """Expiring, capped set of positively-located index-node identifiers."""

    __slots__ = ("ttl", "max_size", "_stamps")

    def __init__(self, ttl: float, max_size: int = 64):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.ttl = float(ttl)
        self.max_size = int(max_size)
        #: key -> insertion stamp, in nondecreasing stamp order.
        self._stamps: dict[int, float] = {}

    def add(self, key: int, now: float) -> None:
        """Insert or refresh an index; evict the stalest when full —
        ``min()`` over ``(stamp, key)``, stale-but-unpurged entries
        included.

        ``now`` must not be earlier than any stamp already held: every
        caller passes ``sim.now``, so the appended entry keeps the dict
        in stamp order."""
        stamps = self._stamps
        stamps.pop(key, None)
        stamps[key] = now
        if len(stamps) > self.max_size:
            run = iter(stamps.items())
            victim, oldest = next(run)
            for k, stamp in run:
                if stamp != oldest:
                    break
                if k < victim:
                    victim = k
            del stamps[victim]

    def purge(self, now: float) -> None:
        """Drop entries stored strictly longer than ``ttl`` ago."""
        cutoff = now - self.ttl
        stamps = self._stamps
        stale = []
        for key, stamp in stamps.items():
            if stamp >= cutoff:
                break
            stale.append(key)
        for key in stale:
            del stamps[key]

    def entries(self, now: float) -> list[int]:
        self.purge(now)
        return sorted(self._stamps)

    def sample(self, k: int, now: float, rng: np.random.Generator) -> list[int]:
        """Up to ``k`` distinct indexes, uniformly at random (Algorithm 4
        line 1)."""
        pool = self.entries(now)
        if len(pool) <= k:
            return pool
        return [pool[i] for i in distinct_draw(rng, len(pool), k)]
