"""The binary partition tree behind CAN zone assignment.

Every zone in a CAN is produced by a chain of half-splits of the unit cube,
so ownership forms a binary tree whose leaves are the current zones.  The
tree is what makes graceful departure well-defined: the paper (§IV-B) uses
"a binary partition tree based background zone reassignment algorithm [14]
to ensure each node always corresponds to a globally unique zone".

The tree is stored as rows, not as one object per tree node.  A branch
is an index into the branch columns ``dim`` (the split dimension),
``mid`` (the split coordinate, where the high child starts), ``low`` /
``high`` (the children), ``parent`` (``-1`` at the root) and ``depth``.
A leaf *is* its owner's id: a child reference ``x >= 0`` names branch
``x``, ``x < 0`` the leaf of owner ``~x``.  The leaf columns are indexed
by owner id: ``zones`` (the owned zone, ``None`` for an id that owns
nothing) and ``up`` (the leaf's parent branch).  The only objects are
the leaves' zones; a branch's zone is the union of its halves, rebuilt
when a departure contracts it.  A descent reads four lists and no
attribute per level.

Takeover on departure of the owner of leaf ``f`` (CAN [14], §2.2):

1. if ``f``'s sibling is a leaf, its owner simply merges the two halves and
   owns the parent zone (the tree contracts by one level);
2. otherwise, descend the sibling subtree to any pair of *sibling leaves*
   ``(w, z)`` — to ``low`` while it is a branch, else to ``high``; ``z``
   absorbs ``w``'s zone (their parent becomes a leaf owned by ``z``) and
   ``w`` relocates to own ``f``'s zone.

Both cases keep the node↔zone mapping 1:1 and keep zones exactly the boxes
generated by the split history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.can.zone import Zone

__all__ = ["PartitionTree", "TakeoverPlan"]


@dataclass(frozen=True, slots=True)
class TakeoverPlan:
    """The repair resulting from a departure.

    ``absorber``      owner whose zone grew (to the merged parent zone).
    ``mover``         owner relocated to the departed zone (handoff case
                      only; ``None`` for the simple sibling merge).
    """

    absorber: int
    mover: Optional[int] = None


class PartitionTree:
    """Mutable split-history tree, stored as branch and owner rows."""

    def __init__(self, dims: int, first_owner: int):
        self.dims = dims
        # Branch columns, indexed by branch; a retired branch's index is
        # reused by the next split.
        self.dim: list[int] = []
        self.mid: list[float] = []
        self.low: list[int] = []
        self.high: list[int] = []
        self.parent: list[int] = []
        self.depth: list[int] = []
        self._free: list[int] = []
        # Leaf columns, indexed by owner id.
        self.zones: list[Optional[Zone]] = []
        self.up: list[int] = []
        self._size = 1
        self._grow(first_owner)
        self.zones[first_owner] = Zone.unit(dims)
        #: The root: a branch index, ``~owner`` for a lone leaf, ``None``
        #: once the last owner left.
        self.root: Optional[int] = ~first_owner

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, owner: int) -> bool:
        return 0 <= owner < len(self.zones) and self.zones[owner] is not None

    def owners(self) -> list[int]:
        return [owner for owner, zone in enumerate(self.zones) if zone is not None]

    def find_leaf(self, point: Sequence[float]) -> int:
        """Descend to the leaf whose zone contains ``point`` — its owner's
        id.  Raises ``ValueError`` for a point no zone owns (outside the
        unit cube, or with a NaN coordinate).  Plain floats (an array's
        ``tolist()``) compare fastest; an array compares the same."""
        node = self.root
        dim, mid, low, high = self.dim, self.mid, self.low, self.high
        while node >= 0:
            node = high[node] if point[dim[node]] >= mid[node] else low[node]
        owner = ~node
        if not self.zones[owner].contains(point):
            raise ValueError(f"no zone owns point {point}")
        return owner

    # ------------------------------------------------------------------
    # split (join)
    # ------------------------------------------------------------------
    def split(
        self, owner: int, new_owner: int, point: Sequence[float], dim: Optional[int] = None
    ) -> int:
        """Split ``owner``'s leaf in half along ``dim`` (default: cycling by
        depth, the canonical CAN order).  The half containing ``point`` goes
        to ``new_owner``; the existing owner keeps the other half.

        Returns the new branch; ``zones[owner]`` and ``zones[new_owner]``
        are the two halves.
        """
        zones = self.zones
        if new_owner in self:
            raise ValueError(f"owner {new_owner} already in tree")
        zone = zones[owner]
        if zone is None:
            raise KeyError(owner)
        parent = self.up[owner]
        depth = 0 if parent < 0 else self.depth[parent] + 1
        split_dim = depth % self.dims if dim is None else dim
        low_zone, high_zone = zone.split(split_dim)

        mid = high_zone._lo[split_dim]
        new_in_high = point[split_dim] >= mid
        low_owner, high_owner = (owner, new_owner) if new_in_high else (new_owner, owner)
        branch = self._new_branch(split_dim, mid, ~low_owner, ~high_owner, depth)
        self._replace_child(parent, ~owner, branch)

        if new_owner >= len(zones):
            self._grow(new_owner)
        zones[low_owner], zones[high_owner] = low_zone, high_zone
        self.up[owner] = self.up[new_owner] = branch
        self._size += 1
        return branch

    # ------------------------------------------------------------------
    # takeover (leave)
    # ------------------------------------------------------------------
    def remove(self, owner: int) -> Optional[TakeoverPlan]:
        """Remove ``owner`` and repair the tree; returns the repair plan, or
        ``None`` when the departing node was the last one."""
        zone, parent = self.zones[owner], self.up[owner]
        if zone is None:
            raise KeyError(owner)
        self._size -= 1
        plan = None
        if parent < 0:
            self.root = None
        else:
            leaf = ~owner
            sibling = self.high[parent] if self.low[parent] == leaf else self.low[parent]
            if sibling < 0:
                # Case 1: sibling merge — sibling's owner takes the parent zone.
                self._contract(parent, ~sibling)
                plan = TakeoverPlan(absorber=~sibling)
            else:
                # Case 2: handoff — find sibling-leaf pair (w, z) under the
                # sibling subtree, contract them onto z, relocate w to the
                # departed zone, in place.
                w_owner, z_owner = self._sibling_leaf_pair(sibling)
                self._contract(self.up[w_owner], z_owner)
                self._replace_child(parent, leaf, ~w_owner)
                self.zones[w_owner] = zone
                plan = TakeoverPlan(absorber=z_owner, mover=w_owner)
        # The departed zone stays in its row until a contraction read it.
        self.zones[owner], self.up[owner] = None, -1
        return plan

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow(self, owner: int) -> None:
        """Extend the owner columns to hold id ``owner``, at least
        doubling them (ids mostly arrive in ascending order)."""
        short = max(owner + 1, 2 * len(self.zones)) - len(self.zones)
        self.zones.extend([None] * short)
        self.up.extend([-1] * short)

    def _new_branch(self, dim: int, mid: float, low: int, high: int, depth: int) -> int:
        """A branch row (a retired one reused if any) with these columns;
        its parent is set when it is hung into the tree."""
        if self._free:
            branch = self._free.pop()
            self.dim[branch], self.mid[branch], self.depth[branch] = dim, mid, depth
            self.low[branch], self.high[branch] = low, high
        else:
            branch = len(self.dim)
            self.dim.append(dim)
            self.mid.append(mid)
            self.depth.append(depth)
            self.low.append(low)
            self.high.append(high)
            self.parent.append(-1)
        return branch

    def _replace_child(self, parent: int, old: int, new: int) -> None:
        """Hang ``new`` where ``old`` hung under ``parent`` (the root for
        ``-1``), linking it back to ``parent``."""
        if new >= 0:
            self.parent[new] = parent
        else:
            self.up[~new] = parent
        if parent < 0:
            self.root = new
        elif self.low[parent] == old:
            self.low[parent] = new
        else:
            assert self.high[parent] == old
            self.high[parent] = new

    def _contract(self, branch: int, new_owner: int) -> None:
        """Replace ``branch``, whose children are both leaves and retire,
        by the leaf of ``new_owner``, owning the union of their zones."""
        zones = self.zones
        merged = zones[~self.low[branch]].merged_with(zones[~self.high[branch]])
        zones[new_owner] = merged
        self._replace_child(self.parent[branch], branch, ~new_owner)
        self._free.append(branch)

    def _sibling_leaf_pair(self, branch: int) -> tuple[int, int]:
        """The owners of two leaves that are siblings of each other, found
        by descending from ``branch``; guaranteed to exist in every finite
        binary tree."""
        low, high = self.low, self.high
        while True:
            lo, hi = low[branch], high[branch]
            if lo < 0 and hi < 0:
                return ~lo, ~hi
            branch = lo if lo >= 0 else hi

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if the tree violates its structure: every
        link matches on both ends, every branch is the exact half-split
        of the box its subtree covers at ``(dim, mid)``, and the root
        covers the unit cube."""
        owners = self.owners()
        assert len(owners) == self._size, "owner count stale"
        if self.root is None:
            assert not owners
            return
        seen: set[int] = set()
        box = self._check_subtree(self.root, -1, seen)
        assert box == Zone.unit(self.dims), "zones do not tile the unit cube"
        assert seen == set(owners), "owner index mismatch"

    def _check_subtree(self, node: int, parent: int, seen: set[int]) -> Zone:
        """The box the subtree at ``node`` covers, checked on the way."""
        if node < 0:
            owner = ~node
            assert owner not in seen, "duplicate owner"
            seen.add(owner)
            assert self.up[owner] == parent, "broken parent link"
            return self.zones[owner]
        assert self.parent[node] == parent, "broken parent link"
        assert node not in self._free, "retired branch in the tree"
        assert self.depth[node] == (0 if parent < 0 else self.depth[parent] + 1), (
            "depth stale"
        )
        low = self._check_subtree(self.low[node], node, seen)
        high = self._check_subtree(self.high[node], node, seen)
        k, mid = self.dim[node], self.mid[node]
        lo, hi = low._lo, high._hi
        assert mid == (lo[k] + hi[k]) / 2.0, "split coordinate stale"
        assert low._hi == hi[:k] + (mid,) + hi[k + 1:] and (
            high._lo == lo[:k] + (mid,) + lo[k + 1:]
        ), "children do not tile the branch"
        return low.merged_with(high)
