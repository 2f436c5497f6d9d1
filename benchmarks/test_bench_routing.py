"""Old-vs-new benchmark of the CAN routing substrate.

Compares the vectorized :mod:`repro.can.routing` — id-only candidate
blocks, bounds gathered per hop from the overlay's dimension-major
array — against the seed's scalar per-candidate forwarding loop (kept
verbatim behind
:func:`tests.oracles.reference_greedy_path` /
``reference_inscan_path``) at the paper's d=5, on the two operations
that dominate CAN wall clock at 10⁴ nodes (ROADMAP: greedy routing +
index walks are ~70-80% of a paper-scale run):

- **greedy routing** — plain CAN forwarding (neighbors only) and INSCAN
  forwarding (neighbors ∪ 2^k long links per hop);
- **batched routing** — :func:`greedy_paths` / ``inscan_paths`` route a
  whole burst in lockstep rounds, which is where the SoA layout pays:
  one segmented kernel pass per hop front instead of per-candidate
  Python, amortizing numpy dispatch across the burst.

``test_routing_speedup_at_10k`` pins the acceptance criterion: the
batched entry points must be ≥ 5× the scalar reference on identical
workloads (paths asserted bit-identical first).  Beside that timed bound
it counts the hop-kernel calls exactly — one per hop for the scalar
router, one per lockstep round for the batched one — and asserts the
class on the counts, which no load can fail; the timed failure message
carries the calibration kernel's time (``bench/calibrate.py``).  Single-route
``greedy_path`` is dispatch-bound at CAN candidate-set sizes (~10-40
per hop) and lands well under that — its honest ratio is recorded in
the benchmark JSON, and the asserted contract is the batched form the
burst scenarios and campaign cells actually exercise.

``test_routing_dominated_cell_scalar_vs_vectorized`` runs a burst cell
(query-heavy, ``submit_many`` fan-in) end to end on both overlay
substrates at the ``REPRO_SCALE`` size; results must be identical and
the vectorized substrate must not be slower.

Every row but one times **memo misses**.  The routing pool replays a
start's previous route when it is asked for the same point again
(``docs/can_geometry.md``, "Last-route memo"), and these rows re-route
identical ``(start, point)`` pairs round after round — left alone they
would time dictionary lookups.  So each timed call starts from an empty
memo (:func:`forget_routes`) over candidate blocks that stay warm
(``pool.fills`` does not move in a timed round): the hop kernels run on
the same workload, with the same working set, as before the memo
existed, which keeps the ≥ 5× floor comparable.
``test_repeat_route`` is the one row that measures the replay, and
says how many routes it replayed.
"""

import time

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from repro.can import routing
from repro.can.inscan import build_index_table, inscan_paths
from repro.can.overlay import CANOverlay
from repro.can.routing import _NARROW_FRONT, _pool_for, greedy_path, greedy_paths
from repro.core import protocol as protocol_mod
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import scenario_configs
from tests.oracles import (
    ReferenceCANOverlay,
    assert_results_identical,
    reference_greedy_path,
    reference_inscan_path,
)

from benchmarks.conftest import calibrated

DIMS = 5  # the paper's resource dimensionality

#: Routes per batch — one burst's worth of concurrent queries.
BATCH = 400

#: Populated overlays are expensive at 10⁴ nodes (sequential joins plus
#: a full pointer-table build); share one instance per size.
_BUILT: dict = {}


def build(n: int):
    key = n
    if key in _BUILT:
        return _BUILT[key]
    overlay = CANOverlay(DIMS, np.random.default_rng(11))
    overlay.bootstrap(range(n))
    tables = {
        i: build_index_table(overlay, i, np.random.default_rng(i))
        for i in overlay.node_ids()
    }
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 1.0, (BATCH, DIMS))
    starts = [int(s) for s in rng.integers(0, n, BATCH)]
    _BUILT[key] = (overlay, tables, starts, points)
    return _BUILT[key]


def route_singles(overlay, tables, starts, points):
    return [greedy_path(overlay, s, p, link_tables=tables) for s, p in zip(starts, points)]


def route_reference(overlay, tables, starts, points):
    for s, p in zip(starts, points):
        reference_inscan_path(overlay, tables, s, p)


def forget_routes(overlay) -> None:
    """Empty the last-route memo of the overlay's routing pools (their
    candidate blocks stay): the next route from any start is a miss."""
    for pool in overlay._route_pools.values():
        pool.routes.clear()


def _tallies(overlay) -> tuple[int, int]:
    """(memo hits, blocks built) over the overlay's routing pools."""
    pools = overlay._route_pools.values()
    return sum(p.route_hits for p in pools), sum(p.fills for p in pools)


def _bench(benchmark, fn, overlay, *args, rounds=3):
    """Time ``fn(overlay, *args)``, every round from an empty memo over
    the blocks the caller's warm-up pass built."""
    before = _tallies(overlay)
    benchmark.pedantic(
        fn, args=(overlay, *args), setup=lambda: forget_routes(overlay),
        rounds=rounds, iterations=1,
    )
    assert _tallies(overlay) == before, (
        "a timed round replayed memoised routes or built candidate blocks"
    )


@pytest.mark.benchmark(group="routing-greedy")
@pytest.mark.parametrize("n", [1000, 10000])
def test_batched_greedy(benchmark, n):
    overlay, _, starts, points = build(n)
    greedy_paths(overlay, starts, points)  # warm the candidate pool
    _bench(benchmark, greedy_paths, overlay, starts, points)


@pytest.mark.benchmark(group="routing-greedy")
@pytest.mark.parametrize("n", [1000, 10000])
def test_reference_greedy(benchmark, n):
    overlay, _, starts, points = build(n)

    def run(overlay):
        for s, p in zip(starts, points):
            reference_greedy_path(overlay, s, p)

    _bench(benchmark, run, overlay)


@pytest.mark.benchmark(group="routing-inscan")
@pytest.mark.parametrize("n", [1000, 10000])
def test_batched_inscan(benchmark, n):
    overlay, tables, starts, points = build(n)
    inscan_paths(overlay, tables, starts, points)
    _bench(benchmark, inscan_paths, overlay, tables, starts, points)


@pytest.mark.benchmark(group="routing-inscan")
@pytest.mark.parametrize("n", [1000, 10000])
def test_single_route_inscan(benchmark, n):
    overlay, tables, starts, points = build(n)
    route_singles(overlay, tables, starts, points)
    _bench(benchmark, route_singles, overlay, tables, starts, points)


@pytest.mark.benchmark(group="routing-inscan")
@pytest.mark.parametrize("n", [1000, 10000])
def test_reference_inscan(benchmark, n):
    overlay, tables, starts, points = build(n)
    _bench(benchmark, route_reference, overlay, tables, starts, points)


@pytest.mark.benchmark(group="routing-inscan")
@pytest.mark.parametrize("form", ["scalar", "batched"])
def test_repeat_route(benchmark, form):
    """The one row on the hit path: every round re-routes the identical
    ``(start, point)`` pairs over an unchanged overlay, so each route is
    a replay from the pool's last-route memo (one pair per start — the
    memo keeps one route per start)."""
    overlay, tables, starts, points = build(10_000)
    pairs = dict(zip(starts, points))
    starts, points = list(pairs), np.asarray(list(pairs.values()))
    fn = route_singles if form == "scalar" else inscan_paths
    fn(overlay, tables, starts, points)  # record the routes
    pool = _pool_for(overlay, tables)
    hits, rounds = pool.route_hits, 5
    benchmark.pedantic(
        fn, args=(overlay, tables, starts, points), rounds=rounds, iterations=1
    )
    benchmark.extra_info["routes_per_round"] = len(starts)
    benchmark.extra_info["memo_hits_per_round"] = (pool.route_hits - hits) // rounds
    assert pool.route_hits - hits == rounds * len(starts)


def _best_of(fn, overlay, repeats=5) -> float:
    """Fastest of ``repeats`` calls, each from an empty route memo."""
    best = float("inf")
    for _ in range(repeats):
        forget_routes(overlay)
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_calls(fn, overlay) -> tuple[int, list]:
    """``(hop-kernel calls, paths)`` of one ``fn()`` from an empty route
    memo."""
    forget_routes(overlay)
    calls = [0]
    kernel = routing._box_accs

    def counted(lo, hi, p):
        calls[0] += 1
        return kernel(lo, hi, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "_box_accs", counted)
        paths = fn()
    return calls[0], paths


def test_routing_speedup_at_10k(benchmark):
    """Acceptance criterion: batched greedy routing — plain CAN and
    INSCAN — is ≥ 5× the seed scalar path at 10⁴ nodes on identical
    workloads (measured ~9× and ~13× with the dimension-major hop
    kernel; the single-route form ~3×).  Paths are asserted
    bit-identical before timing."""
    n = 10_000
    overlay, tables, starts, points = build(n)

    assert greedy_paths(overlay, starts, points) == [
        reference_greedy_path(overlay, s, p) for s, p in zip(starts, points)
    ]
    assert inscan_paths(overlay, tables, starts, points) == [
        reference_inscan_path(overlay, tables, s, p)
        for s, p in zip(starts, points)
    ]

    # The work, counted: the scalar router makes one kernel call per hop
    # (its start distance needs none); a batch makes one start-distance
    # pass and one call per lockstep round — bounded by its longest route,
    # not by its width — plus a scalar hop per step of the narrow tail.
    per_route = {}
    for name, batched, single in (
        ("greedy", lambda: greedy_paths(overlay, starts, points),
         lambda: [greedy_path(overlay, s, p) for s, p in zip(starts, points)]),
        ("inscan", lambda: inscan_paths(overlay, tables, starts, points),
         lambda: route_singles(overlay, tables, starts, points)),
    ):
        calls, paths = _kernel_calls(batched, overlay)
        longest = max(len(path) - 1 for path in paths)
        assert calls <= 1 + (1 + _NARROW_FRONT) * longest, (
            f"batched {name}: {calls} kernel calls for {len(starts)} routes"
        )
        scalar_calls, singles = _kernel_calls(single, overlay)
        assert singles == paths
        assert scalar_calls == sum(len(path) - 1 for path in paths), (
            f"scalar {name}: {scalar_calls} kernel calls, not one per hop"
        )
        per_route[name] = (calls / len(starts), scalar_calls / len(starts))
        benchmark.extra_info[f"{name}_kernel_calls_per_route"] = [
            round(count, 4) for count in per_route[name]
        ]
    counts = ", ".join(
        f"{name} {batched:.3f} batched / {scalar:.2f} scalar"
        for name, (batched, scalar) in per_route.items()
    )

    def timed():
        return (
            _best_of(lambda: greedy_paths(overlay, starts, points), overlay),
            _best_of(
                lambda: [
                    reference_greedy_path(overlay, s, p)
                    for s, p in zip(starts, points)
                ],
                overlay, repeats=3,
            ),
            _best_of(lambda: inscan_paths(overlay, tables, starts, points), overlay),
            _best_of(
                lambda: route_reference(overlay, tables, starts, points),
                overlay, repeats=3,
            ),
            _best_of(
                lambda: route_singles(overlay, tables, starts, points),
                overlay, repeats=3,
            ),
        )

    (t_greedy, t_greedy_ref, t_inscan, t_inscan_ref, t_single), machine = calibrated(timed)
    note = f"kernel calls per route in class ({counts}); {machine}"

    greedy_speedup = t_greedy_ref / t_greedy
    inscan_speedup = t_inscan_ref / t_inscan
    benchmark.extra_info["greedy_batched_speedup"] = round(greedy_speedup, 2)
    benchmark.extra_info["inscan_batched_speedup"] = round(inscan_speedup, 2)
    benchmark.extra_info["inscan_single_route_speedup"] = round(
        t_inscan_ref / t_single, 2
    )
    # Raw best-of times, so two commits' JSONs compare row by row (the
    # ratios above move when either side of the division does).
    for name, t in (
        ("greedy_batched_ms", t_greedy), ("greedy_reference_ms", t_greedy_ref),
        ("inscan_batched_ms", t_inscan), ("inscan_reference_ms", t_inscan_ref),
        ("inscan_single_route_ms", t_single),
    ):
        benchmark.extra_info[name] = round(t * 1e3, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert greedy_speedup >= 5.0, (
        f"batched greedy only {greedy_speedup:.1f}x over the scalar reference; {note}"
    )
    assert inscan_speedup >= 5.0, (
        f"batched inscan only {inscan_speedup:.1f}x over the scalar reference; {note}"
    )
    # The single-route form must never regress the seed.
    assert t_single <= t_inscan_ref * 1.10, (
        f"single-route inscan {t_single * 1e3:.1f} ms against the scalar "
        f"reference's {t_inscan_ref * 1e3:.1f} ms; {note}"
    )


def test_routing_dominated_cell_scalar_vs_vectorized(benchmark, scale):
    """One routing-dominated burst cell (8× query pressure, submit_many
    fan-in) end to end on both CAN substrates at ``REPRO_SCALE``, the
    scalar overlay swapped in where every CAN protocol builds one.
    Results must be identical — identical paths make every downstream
    event identical — and the vectorized overlay must not be slower;
    wall clocks and their ratio land in the benchmark JSON.  Every round
    builds its simulation anew, so it starts on an empty routing pool and
    sees exactly the memo hits the cell has in production."""
    cfg = scenario_configs("burst", scale=scale)["hid-can"]
    rounds = 2 if scale != "paper" else 1
    t_vec = t_ref = float("inf")
    vec = ref = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        vec = SOCSimulation(cfg).run()
        t_vec = min(t_vec, time.perf_counter() - t0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol_mod, "CANOverlay", ReferenceCANOverlay)
            t0 = time.perf_counter()
            ref = SOCSimulation(cfg).run()
            t_ref = min(t_ref, time.perf_counter() - t0)

    assert_results_identical(ref, vec)
    benchmark.extra_info["cell"] = cfg.describe()
    benchmark.extra_info["wall_vectorized_s"] = round(t_vec, 3)
    benchmark.extra_info["wall_scalar_s"] = round(t_ref, 3)
    benchmark.extra_info["speedup"] = round(t_ref / t_vec, 3)
    # End-to-end the protocol/engine layers bound the win; the overlay
    # must at least never regress the cell (generous noise margin).
    assert t_vec <= t_ref * 1.25
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
