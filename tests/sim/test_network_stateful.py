"""Stateful lockstep property test of LAN assignment: arbitrary
add/remove interleavings drive the heap-backed
:class:`~repro.sim.network.NetworkModel` next to the scan-based
:class:`~tests.oracles.ReferenceNetworkModel` — every node must land in
the same LAN with the same bandwidths, and the heap must stay bounded.
Paths over live, departed and unknown ids are priced three ways —
``path_delay``'s one loop over the model's dicts, the reference's
``delay`` per hop, and ``path_delays``, ``path_delay`` over a batch —
which must agree to the bit."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.sim.network import CONTROL_MSG_BITS, STATE_MSG_BITS, NetworkModel, NetworkParams
from tests.oracles import ReferenceNetworkModel


class LanPickLockstepMachine(RuleBasedStateMachine):
    @initialize(lan_size=st.integers(min_value=1, max_value=5))
    def setup(self, lan_size) -> None:
        params = NetworkParams(lan_size=lan_size)
        self.net = NetworkModel(params, np.random.default_rng(0))
        self.ref = ReferenceNetworkModel(params, np.random.default_rng(0))
        self.live: list[int] = []
        self.next_id = 0

    @rule(count=st.integers(min_value=1, max_value=12))
    def add(self, count):
        for _ in range(count):
            node = self.next_id
            self.next_id += 1
            self.net.add_node(node)
            self.ref.add_node(node)
            self.live.append(node)
            assert self.net.lan_of(node) == self.ref.lan_of(node)
            assert self.net.node_bandwidth_mbps(node) == (
                self.ref.node_bandwidth_mbps(node)
            )

    @rule(picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=8))
    def remove(self, picks):
        for pick in picks:
            if not self.live:
                return
            node = self.live.pop(pick % len(self.live))
            self.net.remove_node(node)
            self.ref.remove_node(node)

    @rule()
    def remove_absent_and_readd_live(self):
        self.net.remove_node(-7)
        self.ref.remove_node(-7)
        if self.live:
            self.net.add_node(self.live[0])  # already registered: no-op
            self.ref.add_node(self.live[0])

    @rule(
        picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=7),
        size_bits=st.sampled_from([CONTROL_MSG_BITS, STATE_MSG_BITS, 1.5e6]),
    )
    def price_a_path(self, picks, size_bits):
        """Hops between two departed nodes (WAN fallback), self-loops and
        the empty path included; the sum starts from ``0.0`` and runs left
        to right, so the three agree in type as well as in value."""
        if self.next_id == 0:
            return
        path = [pick % (self.next_id + 1) for pick in picks]  # next_id: never added
        want = sum(
            (self.ref.delay(a, b, size_bits) for a, b in zip(path[:-1], path[1:])), 0.0
        )
        got = self.net.path_delay(path, size_bits)
        assert (type(got), got) == (type(want), want)
        assert self.net.path_delays([path, path[:2]], size_bits) == [
            got, self.net.path_delay(path[:2], size_bits)
        ]

    @invariant()
    def same_membership_and_bounded_heap(self):
        if not hasattr(self, "net"):
            return
        assert self.net._lan_of == self.ref._lan_of
        assert self.net._lan_members == self.ref._lan_members
        assert self.net._wan_bw == self.ref._wan_bw
        assert len(self.net._lan_heap) <= 2 * len(self.net._lan_members) + 17


TestLanPickLockstep = LanPickLockstepMachine.TestCase
TestLanPickLockstep.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


def test_heap_stays_bounded_under_sustained_churn():
    """One remove + one add per step for 50 lifetimes of the population:
    without the rebuild the heap would grow by an entry per step."""
    net = NetworkModel(NetworkParams(lan_size=4), np.random.default_rng(1))
    ref = ReferenceNetworkModel(NetworkParams(lan_size=4), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    live = list(range(40))
    for node in live:
        net.add_node(node)
        ref.add_node(node)
    for step in range(2000):
        victim = live.pop(int(rng.integers(len(live))))
        net.remove_node(victim)
        ref.remove_node(victim)
        newcomer = 40 + step
        net.add_node(newcomer)
        ref.add_node(newcomer)
        live.append(newcomer)
        assert net.lan_of(newcomer) == ref.lan_of(newcomer)
    assert len(net._lan_heap) <= 2 * len(net._lan_members) + 17
