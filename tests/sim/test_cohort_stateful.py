"""Stateful property test: a :class:`CohortTimer` and N per-member grid
chains deliver the identical global ``(time, member)`` log under
arbitrary add/discard/advance interleavings.

The machine drives one cohort timer and one
:class:`~tests.oracles.ReferenceCohortScheduler` in lockstep on twin
simulators.  Adds and discards always happen at half-integer instants
(the grid is integer-period with integer epoch), so the measure-zero
straggler edge — joining *exactly* at a grid instant after that
instant's tick already fired — is never exercised; docs/coalescing.md
documents that edge as out of contract.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.sim.engine import Simulator
from tests.oracles import ReferenceCohortScheduler

PERIOD = 4.0
EPOCH = 1.0
MEMBERS = tuple(range(8))


class _Rig:
    """One simulator + one scheduler + its flattened delivery log."""

    def __init__(self, make_timer):
        self.sim = Simulator()
        self.log = []

        def fn(batch):
            for member in batch:
                self.log.append((self.sim.now, member))

        self.timer = make_timer(self.sim, fn)


class CohortLockstepMachine(RuleBasedStateMachine):
    """Random add/discard/advance sequences, always off-grid."""

    @initialize()
    def setup(self) -> None:
        self.cohort = _Rig(
            lambda sim, fn: sim.periodic_cohort(PERIOD, fn, epoch=EPOCH)
        )
        self.reference = _Rig(
            lambda sim, fn: ReferenceCohortScheduler(sim, PERIOD, fn, epoch=EPOCH)
        )
        self.rigs = (self.cohort, self.reference)
        self.ticks = 0  # integer clock; advances land on half-integers

    # ------------------------------------------------------------------
    @rule(member=st.sampled_from(MEMBERS))
    def add(self, member: int) -> None:
        for rig in self.rigs:
            rig.timer.add(member)

    @rule(member=st.sampled_from(MEMBERS))
    def discard(self, member: int) -> None:
        for rig in self.rigs:
            rig.timer.discard(member)

    @rule(steps=st.integers(min_value=1, max_value=12))
    def advance(self, steps: int) -> None:
        """Run both simulators to the same off-grid instant.

        The target is always a half-integer (``k - 0.5`` off a
        monotone integer counter), and the grid is integer (period 4,
        epoch 1), so membership changes issued by later rules never
        coincide with a fire instant.
        """
        self.ticks += steps
        target = self.ticks - 0.5
        for rig in self.rigs:
            rig.sim.run(until=target)
            assert rig.sim.now == target

    # ------------------------------------------------------------------
    @invariant()
    def logs_identical(self) -> None:
        assert self.cohort.log == self.reference.log


CohortLockstepMachine.TestCase.settings = settings(
    max_examples=60, deadline=None, stateful_step_count=30
)
TestCohortLockstep = CohortLockstepMachine.TestCase
