"""The binary partition tree behind CAN zone assignment.

Every zone in a CAN is produced by a chain of half-splits of the unit cube,
so ownership forms a binary tree whose leaves are the current zones.  The
tree is what makes graceful departure well-defined: the paper (§IV-B) uses
"a binary partition tree based background zone reassignment algorithm [14]
to ensure each node always corresponds to a globally unique zone".

Takeover on departure of the owner of leaf ``f`` (CAN [14], §2.2):

1. if ``f``'s sibling is a leaf, its owner simply merges the two halves and
   owns the parent zone (the tree contracts by one level);
2. otherwise, descend the sibling subtree to any pair of *sibling leaves*
   ``(w, z)``; ``z`` absorbs ``w``'s zone (their parent becomes a leaf owned
   by ``z``) and ``w`` relocates to own ``f``'s zone.

Both cases keep the node↔zone mapping 1:1 and keep zones exactly the boxes
generated by the split history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.can.zone import Zone

__all__ = ["PartitionTree", "TreeLeaf", "TreeBranch", "TakeoverPlan"]


@dataclass(slots=True)
class TreeLeaf:
    """A leaf: one zone, one owner."""

    zone: Zone
    owner: int
    depth: int
    parent: Optional["TreeBranch"] = None


@dataclass(slots=True)
class TreeBranch:
    """An internal node: the zone that was split at ``dim``, at the
    coordinate ``mid`` where its high child starts."""

    zone: Zone
    dim: int
    mid: float
    depth: int
    low: Union["TreeBranch", TreeLeaf] = field(default=None)  # type: ignore[assignment]
    high: Union["TreeBranch", TreeLeaf] = field(default=None)  # type: ignore[assignment]
    parent: Optional["TreeBranch"] = None


@dataclass(frozen=True, slots=True)
class TakeoverPlan:
    """The repair resulting from a departure.

    ``absorber``      owner whose zone grows to ``absorber_leaf.zone``.
    ``mover``         owner relocated to the departed zone (handoff case
                      only; ``None`` for the simple sibling merge).
    ``mover_leaf``    the leaf now owned by ``mover`` (the departed zone).
    """

    absorber: int
    absorber_leaf: TreeLeaf
    mover: Optional[int] = None
    mover_leaf: Optional[TreeLeaf] = None


class PartitionTree:
    """Mutable split-history tree with an owner index."""

    def __init__(self, dims: int, first_owner: int):
        self.dims = dims
        self.root: Union[TreeBranch, TreeLeaf] = TreeLeaf(
            zone=Zone.unit(dims), owner=first_owner, depth=0
        )
        self._leaf_of: dict[int, TreeLeaf] = {first_owner: self.root}

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaf_of)

    def owners(self) -> list[int]:
        return list(self._leaf_of)

    def leaf_of(self, owner: int) -> TreeLeaf:
        return self._leaf_of[owner]

    def find_leaf(self, point: np.ndarray) -> TreeLeaf:
        """Descend to the leaf whose zone contains ``point``; raises
        ``ValueError`` for a point no zone owns (outside the unit cube,
        or with a NaN coordinate)."""
        node = self.root
        coords = point.tolist()  # plain floats: same comparisons, no boxing
        while isinstance(node, TreeBranch):
            node = node.high if coords[node.dim] >= node.mid else node.low
        if not node.zone.contains(coords):
            raise ValueError(f"no zone owns point {point}")
        return node

    # ------------------------------------------------------------------
    # split (join)
    # ------------------------------------------------------------------
    def split(
        self, owner: int, new_owner: int, point: np.ndarray, dim: Optional[int] = None
    ) -> tuple[TreeLeaf, TreeLeaf]:
        """Split ``owner``'s leaf in half along ``dim`` (default: cycling by
        depth, the canonical CAN order).  The half containing ``point`` goes
        to ``new_owner``; the existing owner keeps the other half.

        Returns ``(kept_leaf, new_leaf)``.
        """
        if new_owner in self._leaf_of:
            raise ValueError(f"owner {new_owner} already in tree")
        leaf = self._leaf_of[owner]
        split_dim = leaf.depth % self.dims if dim is None else dim
        low_zone, high_zone = leaf.zone.split(split_dim)

        mid = high_zone._lo[split_dim]
        branch = TreeBranch(
            zone=leaf.zone, dim=split_dim, mid=mid, depth=leaf.depth,
            parent=leaf.parent,
        )
        new_in_high = point[split_dim] >= mid
        low_owner = owner if new_in_high else new_owner
        high_owner = new_owner if new_in_high else owner
        low_leaf = TreeLeaf(low_zone, low_owner, leaf.depth + 1, branch)
        high_leaf = TreeLeaf(high_zone, high_owner, leaf.depth + 1, branch)
        branch.low, branch.high = low_leaf, high_leaf

        self._replace_child(leaf, branch)
        self._leaf_of[low_owner] = low_leaf
        self._leaf_of[high_owner] = high_leaf
        kept, created = (low_leaf, high_leaf) if new_in_high else (high_leaf, low_leaf)
        return kept, created

    # ------------------------------------------------------------------
    # takeover (leave)
    # ------------------------------------------------------------------
    def remove(self, owner: int) -> Optional[TakeoverPlan]:
        """Remove ``owner`` and repair the tree; returns the repair plan, or
        ``None`` when the departing node was the last one."""
        leaf = self._leaf_of.pop(owner)
        if leaf.parent is None:
            self.root = None  # type: ignore[assignment]
            return None

        sibling = self._sibling(leaf)
        if isinstance(sibling, TreeLeaf):
            # Case 1: sibling merge — sibling's owner takes the parent zone.
            merged = self._contract(leaf.parent, sibling.owner)
            return TakeoverPlan(absorber=sibling.owner, absorber_leaf=merged)

        # Case 2: handoff — find sibling-leaf pair (w, z) under the sibling
        # subtree, contract them onto z, relocate w to the departed zone.
        w_leaf, z_leaf = self._find_sibling_leaf_pair(sibling)
        w_owner, z_owner = w_leaf.owner, z_leaf.owner
        merged = self._contract(w_leaf.parent, z_owner)
        # w takes over the departed leaf in place.
        relocated = TreeLeaf(leaf.zone, w_owner, leaf.depth, leaf.parent)
        self._replace_child(leaf, relocated)
        self._leaf_of[w_owner] = relocated
        return TakeoverPlan(
            absorber=z_owner,
            absorber_leaf=merged,
            mover=w_owner,
            mover_leaf=relocated,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _replace_child(
        self,
        old: Union[TreeBranch, TreeLeaf],
        new: Union[TreeBranch, TreeLeaf],
    ) -> None:
        parent = old.parent
        new.parent = parent
        if parent is None:
            self.root = new
        elif parent.low is old:
            parent.low = new
        else:
            assert parent.high is old
            parent.high = new

    def _sibling(self, leaf: TreeLeaf) -> Union[TreeBranch, TreeLeaf]:
        parent = leaf.parent
        assert parent is not None
        return parent.high if parent.low is leaf else parent.low

    def _contract(self, branch: TreeBranch, new_owner: int) -> TreeLeaf:
        """Replace ``branch`` (both children retire) by a leaf owned by
        ``new_owner`` covering the branch's whole zone."""
        for child in (branch.low, branch.high):
            if isinstance(child, TreeLeaf) and child.owner in self._leaf_of:
                if self._leaf_of[child.owner] is child:
                    del self._leaf_of[child.owner]
        merged = TreeLeaf(branch.zone, new_owner, branch.depth, branch.parent)
        self._replace_child(branch, merged)
        self._leaf_of[new_owner] = merged
        return merged

    def _find_sibling_leaf_pair(
        self, node: Union[TreeBranch, TreeLeaf]
    ) -> tuple[TreeLeaf, TreeLeaf]:
        """Any two leaves that are siblings of each other, found by
        descending; guaranteed to exist in every finite binary tree."""
        while isinstance(node, TreeBranch):
            if isinstance(node.low, TreeLeaf) and isinstance(node.high, TreeLeaf):
                return node.low, node.high
            node = node.low if isinstance(node.low, TreeBranch) else node.high
        raise AssertionError("subtree with a lone leaf has no sibling pair")

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if the tree violates its structure."""
        if self.root is None:
            assert not self._leaf_of
            return
        seen_owners: set[int] = set()
        total_volume = 0.0
        stack: list[Union[TreeBranch, TreeLeaf]] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeLeaf):
                assert node.owner not in seen_owners, "duplicate owner"
                seen_owners.add(node.owner)
                assert self._leaf_of.get(node.owner) is node, "owner index stale"
                total_volume += node.zone.volume
            else:
                for child in (node.low, node.high):
                    assert child.parent is node, "broken parent link"
                    stack.append(child)
                assert node.mid == node.high.zone._lo[node.dim], "split coordinate stale"
                merged = node.low.zone.merged_with(node.high.zone)
                assert merged == node.zone, "children do not tile the branch"
        assert seen_owners == set(self._leaf_of), "owner index mismatch"
        assert abs(total_volume - 1.0) < 1e-9, f"zones cover {total_volume} != 1"
