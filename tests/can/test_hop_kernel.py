"""Exactness of the fused hop kernel over dimension-major route blocks.

``repro.can.routing._box_accs`` clamps, squares and then sums the gaps
with ``np.add.reduce`` over the *outer* axis of a ``(d, m)`` block.  The
routing contract (``docs/can_geometry.md``) is the scalar loop's
left-to-right sum, bit for bit; a reduce along the contiguous axis is
``a0 + pairwise(a1…)`` and differs from it in the last digits once
``d >= 8`` — so d = 8, 9, 16 here are what pins "the outer-axis reduce is
strictly sequential", and ``m == 1`` what pins the lone-column guard.
Both routers hand the kernel the halves of one ``bounds.take(ids,
axis=1)`` off the overlay's dimension-major array — C-ordered ``(d, m)``
by construction; the batched route tests at the end pin start distances
and whole paths at d = 8, 9, 16 against the scalar loop.
"""

import math

import numpy as np
import pytest

from repro.can.inscan import build_index_table, inscan_path, inscan_paths
from repro.can.overlay import CANOverlay
from repro.can.routing import (
    _box_accs, _pow_space_best, _squared_distance, greedy_path, greedy_paths,
)
from repro.can.zone import Zone
from repro.testing import reference_greedy_path, reference_inscan_path

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Candidates per block: one, two, below/at/above the pairwise unroll
#: width, the paper cell's mean (16) and max (38).
BLOCK_SIZES = (1, 2, 7, 8, 16, 38)


def _random_block(rng, d, m):
    """``m`` boxes whose bounds mix exact grid faces with arbitrary
    floats (so every partial sum rounds), as row-major ``(m, d)``."""
    lo = np.empty((m, d))
    hi = np.empty((m, d))
    for j in range(m):
        for k in range(d):
            while True:
                a, b = (
                    rng.choice(GRID) if rng.random() < 0.5 else rng.random()
                    for _ in range(2)
                )
                if a != b:
                    break
            lo[j, k], hi[j, k] = min(a, b), max(a, b)
    return lo, hi


def _points(rng, d, lo, hi):
    """Outside, inside the first box, on its faces, on the grid, and NaN
    (whole point and one coordinate)."""
    inside = (lo[0] + hi[0]) / 2.0
    on_faces = np.where(rng.random(d) < 0.5, lo[0], hi[0])
    partly_nan = rng.random(d)
    partly_nan[d // 2] = np.nan
    return [
        rng.random(d),
        rng.random(d) * 3.0 - 1.0,
        inside,
        on_faces,
        rng.choice(GRID, size=d),
        np.full(d, np.nan),
        partly_nan,
    ]


def _sequential_row_sums(sq):
    """``sq`` summed over its last axis strictly left to right, one
    column add at a time — the scalar loop's order, spelled in numpy."""
    acc = sq[:, 0].copy()
    for k in range(1, sq.shape[1]):
        np.add(acc, sq[:, k], out=acc)
    return acc


def _old_kernel(p, lo, hi):
    """The row-major hop kernel this one replaced."""
    clipped = np.clip(p, lo, hi)
    np.subtract(clipped, p, out=clipped)
    np.multiply(clipped, clipped, out=clipped)
    return _sequential_row_sums(clipped)


def _same(a, b):
    """``(dist, id)`` pairs equal, NaN distance equal to NaN."""
    return a[1] == b[1] and (
        a[0] == b[0] or (math.isnan(a[0]) and math.isnan(b[0]))
    )


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 16])
def test_fused_accumulators_are_the_scalar_loop_bit_for_bit(d):
    rng = np.random.default_rng(1000 + d)
    for m in BLOCK_SIZES:
        for _ in range(12):
            lo, hi = _random_block(rng, d, m)
            zones = [Zone(lo[j], hi[j]) for j in range(m)]
            ids = rng.permutation(10 * m)[:m]
            # A hop gathers its block's columns out of the overlay's
            # (2·d, capacity) bounds array and splits the gather in two.
            bounds = rng.random((2 * d, 10 * m))
            bounds[:d, ids] = lo.T
            bounds[d:, ids] = hi.T
            for p in _points(rng, d, lo, hi):
                block = bounds.take(ids, axis=1)
                accs = _box_accs(block[:d], block[d:], p.reshape(-1, 1))
                assert accs.shape == (m,)
                old = _old_kernel(p, lo, hi)
                assert accs.tobytes() == old.tobytes()
                if not np.isnan(p).any():
                    pt = tuple(p.tolist())
                    want = np.array([_squared_distance(z, pt) for z in zones])
                    assert accs.tobytes() == want.tobytes()
                assert _same(_pow_space_best(accs, ids), _pow_space_best(old, ids))


@pytest.mark.parametrize("d", [1, 3, 5, 8, 16])
def test_paired_points_form_matches_the_scalar_loop(d):
    """``greedy_paths`` hands the kernel one point column per candidate."""
    rng = np.random.default_rng(2000 + d)
    for m in BLOCK_SIZES:
        lo, hi = _random_block(rng, d, m)
        pts = rng.random((m, d)) * 2.0 - 0.5
        pts[0] = rng.choice(GRID, size=d)
        accs = _box_accs(
            np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T),
            np.ascontiguousarray(pts.T),
        )
        want = np.array([
            _squared_distance(Zone(lo[j], hi[j]), tuple(pts[j].tolist()))
            for j in range(m)
        ])
        assert accs.tobytes() == want.tobytes()


def test_contiguous_axis_reduce_would_not_be_exact():
    """Why the layout is dimension-major: the same numbers reduced along
    their contiguous axis round differently at d >= 8."""
    rng = np.random.default_rng(3)
    sq = rng.random((64, 16)) ** 2
    sequential = _sequential_row_sums(sq)
    assert np.add.reduce(np.ascontiguousarray(sq.T), axis=0).tobytes() == (
        sequential.tobytes()
    )
    assert np.add.reduce(sq, axis=1).tobytes() != sequential.tobytes()


@pytest.mark.parametrize("d", [8, 9, 16])
def test_batched_routes_equal_the_scalar_routes_in_high_dimensions(d, monkeypatch):
    """Start distances and whole paths of ``greedy_paths`` against
    ``greedy_path`` and the scalar reference, where a reduce along the
    contiguous axis rounds differently from the scalar loop."""
    overlay = CANOverlay(d, np.random.default_rng(d))
    overlay.bootstrap(range(96))
    rng = np.random.default_rng(50 + d)
    tables = {
        i: build_index_table(overlay, i, rng) for i in sorted(overlay.nodes)
    }
    starts = rng.integers(0, 96, size=300).tolist()
    points = rng.random((300, d))
    want = np.array([
        _squared_distance(overlay.nodes[s].zone, tuple(p))
        for s, p in zip(starts, points.tolist())
    ])
    gaps = np.stack([
        np.clip(p, overlay.nodes[s].zone.lo, overlay.nodes[s].zone.hi) - p
        for s, p in zip(starts, points)
    ])
    assert np.add.reduce(gaps * gaps, axis=1).tobytes() != want.tobytes(), (
        "a contiguous-axis reduce rounds like the scalar loop here: "
        "these dimensions pin nothing"
    )

    kernel_results = []

    def recording_kernel(lo, hi, p):
        kernel_results.append(_box_accs(lo, hi, p))
        return kernel_results[-1]

    monkeypatch.setattr("repro.can.routing._box_accs", recording_kernel)
    for batch in (slice(None), slice(0, 1)):  # a single known start: m == 1
        for batched, single, reference, args in (
            (greedy_paths, greedy_path, reference_greedy_path, (overlay,)),
            (inscan_paths, inscan_path, reference_inscan_path, (overlay, tables)),
        ):
            overlay._route_pools.clear()  # nothing replayed from the memo
            del kernel_results[:]
            got = batched(*args, starts[batch], points[batch])
            # The batch's first kernel call is its start-distance pass.
            assert kernel_results[0].tobytes() == want[batch].tobytes()
            overlay._route_pools.clear()
            pairs = list(zip(starts[batch], points[batch]))
            assert got == [single(*args, s, p) for s, p in pairs]
            assert got == [reference(*args, s, p) for s, p in pairs]
