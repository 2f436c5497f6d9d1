"""Unit and property tests for the binary partition tree and CAN takeover.

The tree is rows: a leaf is its owner's id, ``tree.zones[owner]`` its
zone, and a split returns the new branch's index into the branch columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.partition_tree import PartitionTree


def test_single_owner_covers_unit_cube():
    tree = PartitionTree(2, first_owner=0)
    tree.check_invariants()
    assert tree.owners() == [0]
    assert tree.find_leaf(np.array([0.3, 0.7])) == 0


@pytest.mark.parametrize(
    "point", [[np.nan, 0.3], [0.3, np.nan], [1.5, 0.2], [-0.25, 0.5], [0.5, np.inf]]
)
def test_a_point_no_zone_owns_is_refused(point):
    tree = PartitionTree(2, first_owner=0)
    tree.split(0, 1, np.array([0.9, 0.9]))
    tree.split(1, 2, np.array([0.9, 0.9]))
    with pytest.raises(ValueError, match="no zone owns point"):
        tree.find_leaf(np.array(point))


def test_split_hands_point_half_to_new_owner():
    tree = PartitionTree(2, first_owner=0)
    point = np.array([0.75, 0.2])
    branch = tree.split(0, new_owner=1, point=point)
    assert tree.high[branch] == ~1 and tree.low[branch] == ~0
    assert tree.up[0] == tree.up[1] == branch
    assert tree.zones[1].contains(point)
    assert not tree.zones[0].contains(point)
    tree.check_invariants()


def test_split_cycles_dimensions_by_depth():
    tree = PartitionTree(2, first_owner=0)
    first = tree.split(0, 1, np.array([0.9, 0.9]))  # depth 0 → dim 0
    zone1 = tree.zones[1]
    assert zone1.lo[0] == 0.5 and zone1.hi[1] - zone1.lo[1] == 1.0
    second = tree.split(1, 2, np.array([0.9, 0.9]))  # depth 1 → dim 1
    zone2 = tree.zones[2]
    assert zone2.lo[1] == 0.5
    assert (tree.dim[first], tree.depth[first]) == (0, 0)
    assert (tree.dim[second], tree.depth[second], tree.mid[second]) == (1, 1, 0.5)


def test_split_duplicate_owner_rejected():
    tree = PartitionTree(2, first_owner=0)
    tree.split(0, 1, np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        tree.split(0, 1, np.array([0.1, 0.1]))


def test_remove_last_owner_empties_tree():
    tree = PartitionTree(2, first_owner=0)
    assert tree.remove(0) is None
    assert len(tree) == 0


def test_sibling_merge_case():
    tree = PartitionTree(2, first_owner=0)
    tree.split(0, 1, np.array([0.9, 0.5]))
    plan = tree.remove(1)
    assert plan.absorber == 0
    assert plan.mover is None
    assert tree.zones[plan.absorber].volume == pytest.approx(1.0)
    assert tree.root == ~0
    tree.check_invariants()


def test_handoff_case_relocates_a_leaf():
    # Build: 0 splits with 1 (dim 0); 1's half splits twice more so that
    # removing 0 finds no leaf sibling and must relocate someone.
    tree = PartitionTree(2, first_owner=0)
    tree.split(0, 1, np.array([0.9, 0.5]))
    tree.split(1, 2, np.array([0.9, 0.9]))
    tree.split(2, 3, np.array([0.6, 0.9]))
    plan = tree.remove(0)
    assert plan.mover is not None
    assert tree.zones[plan.mover].volume == pytest.approx(0.5)  # the old zone of 0
    # The pair is found descending to ``low`` while it is a branch, else
    # to ``high``: here past leaf 1 into the branch of 3 (low) and 2.
    assert (plan.absorber, plan.mover) == (2, 3)
    tree.check_invariants()
    assert len(tree) == 3
    # The retired branch row is the next split's.
    rows = len(tree.dim)
    tree.split(3, 4, np.array([0.1, 0.1]))
    assert len(tree.dim) == rows
    tree.check_invariants()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_random_join_leave_sequences_preserve_invariants(ops):
    """Random interleavings of joins and leaves keep the tree a partition."""
    rng = np.random.default_rng(0)
    tree = PartitionTree(3, first_owner=0)
    alive = [0]
    next_id = 1
    for op in ops:
        if op % 3 != 0 or len(alive) == 1:
            point = rng.uniform(0, 1, 3)
            owner = tree.find_leaf(point)
            tree.split(owner, next_id, point)
            alive.append(next_id)
            next_id += 1
        else:
            victim = alive.pop(op % len(alive))
            tree.remove(victim)
            if not alive:
                return
        tree.check_invariants()
        # every random point belongs to exactly one alive owner
        probe = rng.uniform(0, 1, 3)
        assert tree.find_leaf(probe) in alive


def test_find_leaf_handles_boundary_points():
    tree = PartitionTree(2, first_owner=0)
    tree.split(0, 1, np.array([0.9, 0.5]))
    tree.split(0, 2, np.array([0.1, 0.9]))
    # Exactly on the first split plane → belongs to the high side.
    assert tree.find_leaf(np.array([0.5, 0.5])) == 1
    # The cube's far corner has an owner too.
    assert tree.find_leaf(np.array([1.0, 1.0])) == 1
