"""Stateful property test for the perimeter (corner-stall) walk.

``greedy_paths`` finishes boundary-landing routes with
``_perimeter_hops`` — a BFS across the zero-distance cluster of zones
incident to the target point.  This machine grows and shrinks an overlay
while firing boundary points (zone corners, edges and faces, where many
zones touch the point at distance exactly 0) and asserts the vectorized
walk hop-for-hop against the seed's scalar reference walk, plus the
batched/memoized routing path against per-route calls.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.can.overlay import CANOverlay
from repro.can.routing import _perimeter_hops, greedy_path, greedy_paths
from tests.oracles import _reference_perimeter_hops

DIMS = 3
START_N = 8


class PerimeterLockstepMachine(RuleBasedStateMachine):
    """Random join/leave interleavings + boundary-point perimeter walks."""

    @initialize()
    def setup(self) -> None:
        self.overlay = CANOverlay(DIMS, np.random.default_rng(7))
        self.overlay.bootstrap(range(START_N))
        self.next_id = START_N

    # ------------------------------------------------------------------
    # membership churn reshapes the zero-distance clusters
    # ------------------------------------------------------------------
    @rule(coords=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=DIMS, max_size=DIMS,
    ))
    def join(self, coords):
        self.overlay.join(self.next_id, np.asarray(coords))
        self.next_id += 1

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def leave(self, pick):
        if len(self.overlay) <= 2:
            return
        ids = sorted(self.overlay.nodes)
        self.overlay.leave(ids[pick % len(ids)])

    # ------------------------------------------------------------------
    # the walks under test
    # ------------------------------------------------------------------
    def _boundary_point(self, pick: int, faces: list[int]) -> tuple[int, np.ndarray]:
        """A start node plus a point on its zone boundary: per dimension
        either the lo face, the hi face, or the zone midpoint — corners
        when every dim picks a face, which is where the most zones meet
        at distance exactly 0 (the stall the walk exists for)."""
        ids = sorted(self.overlay.nodes)
        start = ids[pick % len(ids)]
        zone = self.overlay.nodes[start].zone
        point = np.empty(DIMS)
        for d, face in enumerate(faces):
            if face == 0:
                point[d] = zone.lo[d]
            elif face == 1:
                point[d] = zone.hi[d]
            else:
                point[d] = 0.5 * (zone.lo[d] + zone.hi[d])
        return start, point

    @rule(
        pick=st.integers(min_value=0, max_value=10_000),
        faces=st.lists(
            st.integers(min_value=0, max_value=2), min_size=DIMS, max_size=DIMS
        ),
    )
    def perimeter_walk_matches_reference(self, pick, faces):
        start, point = self._boundary_point(pick, faces)
        got = _perimeter_hops(self.overlay, start, point)
        want = _reference_perimeter_hops(self.overlay, start, point)
        assert got == want
        if got:  # walk ends at the point's owner
            assert got[-1] == self.overlay.owner_of(point)

    @rule(
        picks=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=2, max_size=5
        ),
        pick=st.integers(min_value=0, max_value=10_000),
        faces=st.lists(
            st.integers(min_value=0, max_value=2), min_size=DIMS, max_size=DIMS
        ),
    )
    def batched_routes_match_per_route(self, picks, pick, faces):
        """Lockstep queries to one boundary point: the batched kernel
        (fused argmin + per-batch perimeter memo) must reproduce each
        per-route path exactly."""
        _, point = self._boundary_point(pick, faces)
        ids = sorted(self.overlay.nodes)
        starts = [ids[p % len(ids)] for p in picks]
        batched = greedy_paths(
            self.overlay, starts, np.tile(point, (len(starts), 1))
        )
        singles = [greedy_path(self.overlay, s, point) for s in starts]
        assert batched == singles


TestPerimeterLockstep = PerimeterLockstepMachine.TestCase
TestPerimeterLockstep.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
