"""Stateful lockstep property test: arbitrary join/leave/route/diffuse
interleavings drive the vectorized overlay and the scalar reference
overlay side by side (the pattern of ``tests/cloud/test_executor_stateful
.py``), asserting identical routing paths, adjacency sets, directional
neighbor lists and diffusion recipients at every step."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.can.inscan import build_index_table
from repro.can.overlay import CANOverlay
from repro.can.routing import greedy_path, greedy_paths
from repro.core.diffusion import DiffusionEngine
from repro.testing import (
    ReferenceCANOverlay,
    ReferenceDiffusionEngine,
    _diffusion_rig,
    reference_greedy_path,
    reference_inscan_path,
)

DIMS = 3
START_N = 6


class OverlayLockstepMachine(RuleBasedStateMachine):
    """Random interleavings of join/leave/route/diffuse on twin overlays."""

    @initialize()
    def setup(self) -> None:
        self.vec = CANOverlay(DIMS, np.random.default_rng(0))
        self.ref = ReferenceCANOverlay(DIMS, np.random.default_rng(0))
        self.vec.bootstrap(range(START_N))
        self.ref.bootstrap(range(START_N))
        self.next_id = START_N
        self.tables_epoch = -1
        self.vec_tables = {}
        self.ref_tables = {}

    # ------------------------------------------------------------------
    def _fresh_tables(self) -> None:
        """Rebuild twin pointer tables when the membership changed."""
        if self.tables_epoch == self.vec.epoch:
            return
        self.vec_tables = {
            i: build_index_table(self.vec, i, np.random.default_rng(50 + i))
            for i in sorted(self.vec.nodes)
        }
        self.ref_tables = {
            i: build_index_table(self.ref, i, np.random.default_rng(50 + i))
            for i in sorted(self.ref.nodes)
        }
        self.tables_epoch = self.vec.epoch

    # ------------------------------------------------------------------
    @rule(coords=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=DIMS, max_size=DIMS,
    ))
    def join(self, coords):
        point = np.asarray(coords)
        self.vec.join(self.next_id, point)
        self.ref.join(self.next_id, point)
        self.next_id += 1

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def leave(self, pick):
        if len(self.vec) <= 2:
            return
        ids = sorted(self.vec.nodes)
        victim = ids[pick % len(ids)]
        self.vec.leave(victim)
        self.ref.leave(victim)

    @rule(
        pick=st.integers(min_value=0, max_value=10_000),
        coords=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=DIMS, max_size=DIMS,
        ),
        quantize=st.booleans(),
    )
    def route(self, pick, coords, quantize):
        point = np.asarray(coords)
        if quantize:
            point = np.round(point * 4) / 4  # boundary-exact target
        ids = sorted(self.vec.nodes)
        start = ids[pick % len(ids)]
        got = greedy_path(self.vec, start, point)
        want = reference_greedy_path(self.ref, start, point)
        assert got == want
        # The oracle overlay under the production router: its scalar
        # rebind must stamp every node whose neighbor set it changes.
        assert greedy_path(self.ref, start, point) == want
        assert self.vec.nodes[got[-1]].zone.contains(
            tuple(float(x) for x in point)
        )

    @rule(
        pick=st.integers(min_value=0, max_value=10_000),
        coords=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=DIMS, max_size=DIMS,
        ),
    )
    def route_inscan(self, pick, coords):
        self._fresh_tables()
        point = np.asarray(coords)
        ids = sorted(self.vec.nodes)
        start = ids[pick % len(ids)]
        got = greedy_path(self.vec, start, point, link_tables=self.vec_tables)
        want = reference_inscan_path(self.ref, self.ref_tables, start, point)
        assert got == want
        batched = greedy_paths(
            self.vec, [start], point[None, :], link_tables=self.vec_tables
        )
        assert batched == [got]

    @rule(pick=st.integers(min_value=0, max_value=10_000),
          method=st.sampled_from(["hid", "sid"]))
    def diffuse(self, pick, method):
        ids = sorted(self.vec.nodes)
        origin = ids[pick % len(ids)]
        dead: set[int] = set()
        vec_engine, vec_tables = _diffusion_rig(
            self.vec, DiffusionEngine, 99, dead
        )
        ref_engine, ref_tables = _diffusion_rig(
            self.ref, ReferenceDiffusionEngine, 99, dead
        )
        got = vec_engine.diffuse(origin, method)
        want = ref_engine.diffuse(origin, method)
        assert got.recipients == want.recipients
        assert got.messages == want.messages
        assert got.max_depth == want.max_depth

    # ------------------------------------------------------------------
    @invariant()
    def memberships_and_adjacency_match(self):
        if not hasattr(self, "vec"):
            return
        assert set(self.vec.nodes) == set(self.ref.nodes)
        for node_id in self.vec.nodes:
            assert (
                self.vec.nodes[node_id].neighbors
                == self.ref.nodes[node_id].neighbors
            )

    @invariant()
    def directional_views_match(self):
        if not hasattr(self, "vec"):
            return
        for node_id, node in self.vec.nodes.items():
            for dim in range(DIMS):
                for sign in (+1, -1):
                    got = self.vec.directional_neighbors(node_id, dim, sign)
                    assert got == self.ref.directional_neighbors(
                        node_id, dim, sign
                    )
                    # The face bucket against the filter it replaced.
                    assert got == tuple(sorted(
                        m for m, d in node.directions.items()
                        if d == (dim, sign)
                    ))

    @invariant()
    def structural_invariants_hold(self):
        """After every step (O(n²), n ≤ 31 here): adjacency, directions,
        buckets, bounds columns, and the routing pools the route rules
        left on either overlay — blocks that survived the joins and
        leaves since against fresh candidate lists."""
        if hasattr(self, "vec"):
            self.vec.check_invariants()
            self.ref.check_invariants()


TestOverlayLockstep = OverlayLockstepMachine.TestCase
TestOverlayLockstep.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
