"""Lockstep of the stamp-ordered dict ``PIList`` against the seed's scalar
``ReferencePIList``.

``PIList`` keeps its ``key -> stamp`` dict in stamp order so eviction
reads only the leading run of equal oldest stamps and expiry pops from
the front; the oracle scans everything with ``min((stamp, key))``.  The
drives below aim at the places where an ordered structure can go wrong:
many adds at one instant (equal-stamp ties, smallest key evicted), a
refresh of the oldest entry, a stale-but-unpurged victim, the inclusive
purge boundary, ``len``/``in`` with no purge in between, and one stamp
behind the clock.  After every step the two hold the same stamps and
answer every query alike, and ``sample`` leaves cloned generators in the
same state.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.pilist import PIList
from repro.testing import ReferencePIList

TTL = 50.0
CAP = 6
KEYS = 16


class Pair:
    """A ``PIList`` and its oracle driven through the same calls."""

    def __init__(self, ttl: float = TTL, cap: int = CAP):
        self.new = PIList(ttl, cap)
        self.ref = ReferencePIList(ttl, cap)
        self.now = 0.0

    def add(self, key: int, now: float) -> None:
        self.new.add(key, now)
        self.ref.add(key, now)

    def refresh_oldest(self) -> None:
        stamps = self.ref._added_at
        if stamps:
            self.add(min(stamps, key=lambda k: (stamps[k], k)), self.now)

    def discard(self, key: int) -> None:
        self.new.discard(key)
        self.ref.discard(key)

    def purge(self, now: float) -> None:
        self.new.purge(now)
        self.ref.purge(now)

    def purge_at_boundary(self) -> None:
        """Purge at exactly ``stamp + ttl`` of the oldest entry: the
        boundary is inclusive, the entry survives."""
        stamps = self.ref._added_at
        if stamps:
            at = min(stamps.values()) + TTL
            if at >= self.now:
                self.now = at
                self.purge(at)

    def sample(self, k: int, seed: int) -> None:
        r_new, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert self.new.sample(k, self.now, r_new) == self.ref.sample(
            k, self.now, r_ref
        )
        assert r_new.bit_generator.state == r_ref.bit_generator.state

    def check(self) -> None:
        # len/in first: they must agree with no purge call in between.
        assert len(self.new) == len(self.ref)
        for key in range(KEYS):
            assert (key in self.new) == (key in self.ref)
        assert self.new._stamps == self.ref._added_at
        stamps = list(self.new._stamps.values())
        assert stamps == sorted(stamps)
        assert self.new._clock == self.ref._clock


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_lockstep_with_reference_pilist(seed):
    rng = np.random.default_rng(seed)
    pair = Pair()
    rewound = False
    for step in range(800):
        if rng.random() < 0.4:  # otherwise: another call at the same instant
            # Mostly short steps; now and then past the ttl, which leaves
            # stale entries for the next add's eviction to find unpurged.
            pair.now += float(rng.exponential(3.0 if rng.random() < 0.9 else 80.0))
        op = int(rng.integers(10))
        key = int(rng.integers(KEYS))
        if op <= 3:
            pair.add(key, pair.now)
        elif op == 4:
            pair.refresh_oldest()
        elif op == 5:
            pair.discard(key)
        elif op == 6:
            pair.purge(pair.now)
        elif op == 7:
            pair.purge_at_boundary()
        elif op == 8:
            pair.sample(int(rng.integers(1, 5)), int(rng.integers(1 << 30)))
        elif not rewound and step > 400:
            rewound = True  # one out-of-order stamp per drive
            pair.add(key, pair.now - float(rng.uniform(1.0, 30.0)))
        pair.check()
        if step % 5 == 0:
            assert pair.new.entries(pair.now) == pair.ref.entries(pair.now)
            pair.check()
    assert rewound


def test_equal_stamp_ties_evict_the_smallest_key():
    pair = Pair(cap=4)
    for key in (9, 3, 12, 5):
        pair.add(key, 10.0)
    pair.add(7, 10.0)  # every stamp equal: 3 goes, not the first inserted
    pair.check()
    assert pair.new.entries(10.0) == [5, 7, 9, 12]
    pair.add(1, 10.0)  # the newcomer itself is the smallest: it goes
    pair.check()
    assert 1 not in pair.new
    pair.add(20, 11.0)  # leading run is the four at 10.0, not 20
    pair.check()
    assert pair.new.entries(11.0) == [7, 9, 12, 20]


def test_stale_but_unpurged_entry_is_the_victim_and_refresh_reorders():
    pair = Pair(cap=3)
    pair.add(1, 0.0)
    pair.add(2, 1.0)
    pair.add(1, 2.0)  # refresh of the oldest: 2 is now the oldest
    pair.add(3, 500.0)  # 1 and 2 are stale but no purge has run
    pair.add(4, 500.0)  # over capacity: stale 2 evicted, stale 1 kept
    assert pair.new._stamps == pair.ref._added_at == {1: 2.0, 3: 500.0, 4: 500.0}
    pair.check()  # len() purges against the clock: 1 goes too
    assert pair.new.entries(500.0) == [3, 4]


def test_out_of_order_stamp_restores_the_order_once():
    pair = Pair(cap=3)
    pair.add(1, 10.0)
    pair.add(2, 20.0)
    pair.add(3, 5.0)  # behind the clock: must sort in front
    pair.check()
    pair.add(4, 20.0)  # evicts 3 (stamp 5.0), the true oldest
    pair.check()
    assert pair.new.entries(20.0) == [1, 2, 4]


class PIListLockstepMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pair = Pair()

    keys = st.integers(min_value=0, max_value=KEYS - 1)

    @rule(key=keys, dt=st.sampled_from([0.0, 0.0, 0.5, 7.0, TTL, 3 * TTL]))
    def add(self, key, dt):
        self.pair.now += dt
        self.pair.add(key, self.pair.now)

    @rule(key=keys, back=st.floats(min_value=0.5, max_value=2 * TTL))
    def add_behind_the_clock(self, key, back):
        self.pair.add(key, self.pair.now - back)

    @rule()
    def refresh_oldest(self):
        self.pair.refresh_oldest()

    @rule(key=keys)
    def discard(self, key):
        self.pair.discard(key)

    @rule(dt=st.sampled_from([0.0, 1.0, TTL]))
    def purge(self, dt):
        self.pair.now += dt
        self.pair.purge(self.pair.now)

    @rule()
    def purge_at_boundary(self):
        self.pair.purge_at_boundary()

    @rule(k=st.integers(min_value=1, max_value=CAP), seed=st.integers(0, 1 << 30))
    def sample(self, k, seed):
        self.pair.sample(k, seed)

    @invariant()
    def same_state(self):
        self.pair.check()


TestPIListLockstep = PIListLockstepMachine.TestCase
TestPIListLockstep.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
