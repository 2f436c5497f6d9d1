"""Cell-construction benches: set-up must scale linearly.

Before the first simulated second a cell replays the paper's
construction — a LAN and a Table-I machine per host, n sequential CAN
joins, one §III-A pointer table per node, the periodic timers — and at
the ``mega`` tiers that costs as much as the run it precedes.  Two floors
keep it linear (``docs/architecture.md``, "Cell construction"):

1. **Set-up scaling** — constructing the ``mega`` cell at 4n nodes costs
   at most 6x the cell at n (linear is 4; when ``NetworkModel.add_node``
   still scanned every LAN, that phase alone grew 16x).  What still
   outgrows n is the overlay bootstrap — deeper tree descents and
   owners with more edges in a larger cell — and every per-node cost as
   the working set leaves the CPU caches (``docs/architecture.md``,
   "What grows faster than n").
2. **LAN assignment** — ``NetworkModel.add_node`` for 10^5 nodes in under
   3 CPU seconds (the scan took 33 s; the heap takes ~0.7 s, each
   ``add_node`` a one-element ``add_nodes`` batch).

Beside the timed scaling bound, the set-up's work is counted exactly at
n and 4n — collector-tracked objects and ``tracemalloc`` bytes the built
cell holds per node, generator calls it made per node — and the class is
asserted on the counts: no load can fail those, and a timed failure with
the counts in class points at the machine (its message carries the
calibration kernel's time, ``bench/calibrate.py``).

CPU seconds (``time.process_time``), best of three per size, the sizes
interleaved; a small-cell sample is the mean of four consecutive cells.
The per-phase split of both cells is recorded in ``extra_info``: each
phase timed on its own with the cell's parameters and the collector
paused, through the one batch call the cell makes for it; "timers and
the rest" (state caches, cohort timers, workload arming, the closing
collection) as the remainder.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.cloud.machine import CMAX, sample_machines
from repro.core.context import ProtocolContext
from repro.core.protocol import make_protocol
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import mega_configs
from repro.metrics.traffic import TrafficMeter
from repro.sim.engine import Simulator
from repro.sim.network import NetworkModel, NetworkParams

from benchmarks.conftest import calibrated, cpu_timed, run_once
from tests.conftest import count_generator_calls

#: Base population n per REPRO_SCALE; the bench builds n and 4n.
SETUP_POPULATION = {"tiny": 2_000, "small": 8_000, "paper": 25_000}
ADD_NODE_POPULATION = 100_000

#: How much a per-node work count may grow from n to 4n nodes and still
#: be linear: measured 0.99x tracked objects, 1.02x bytes and 0.39x
#: generator calls per node at 2 000 -> 8 000 nodes; work growing with
#: n per node (a scan, a quadratic structure) reads 4x.
PER_NODE_GROWTH_BOUND = 1.2


def _cpu(fn) -> float:
    gc.collect()
    return cpu_timed(fn)[1]


def _best_of_3(benchmark, fn) -> float:
    """Fewest CPU seconds of three calls; the first goes through
    ``benchmark`` so the report carries a timing too."""
    return min(_cpu(lambda: run_once(benchmark, fn)), _cpu(fn), _cpu(fn))


def _phase_split(cfg, setup_s: float) -> dict[str, float]:
    """CPU seconds per construction phase at ``cfg``'s size, each phase
    run on its own with the collector paused, through the batch call
    ``SOCSimulation`` makes for it (the closing collection lands in the
    remainder)."""
    ids = list(range(cfg.n_nodes))
    network = NetworkModel(cfg.network, np.random.default_rng(1))
    ctx = ProtocolContext(
        Simulator(), network, TrafficMeter(), np.random.default_rng(2), CMAX,
        availability_of=lambda i: CMAX, is_alive=lambda i: True,
    )
    protocol = make_protocol(cfg.protocol, ctx, cfg.pidcan)

    gc.disable()
    try:
        phases = {"network_s": _cpu(lambda: network.add_nodes(ids))}
        bandwidths = [network.node_bandwidth_mbps(i) for i in ids]
        phases["machines_s"] = _cpu(
            lambda: sample_machines(np.random.default_rng(4), bandwidths)
        )
        phases["overlay_bootstrap_s"] = _cpu(lambda: protocol.overlay.bootstrap(ids))
        phases["table_build_s"] = _cpu(lambda: protocol._build_tables(ids, charge=False))
    finally:
        gc.enable()
    phases["timers_and_rest_s"] = max(0.0, setup_s - sum(phases.values()))
    return {name: round(seconds, 3) for name, seconds in phases.items()}


def _work_per_node(cfg) -> dict[str, float]:
    """Exact work of building ``cfg``'s cell, per node: the
    collector-tracked objects and the ``tracemalloc`` bytes the built
    cell holds, and the generator calls its construction made."""
    SOCSimulation(replace(cfg, n_nodes=20))  # imports and module caches
    gc.collect()
    before = len(gc.get_objects())
    sim = SOCSimulation(cfg)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    del sim
    gc.collect()
    tracemalloc.start()
    try:
        sim = SOCSimulation(cfg)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del sim
    with pytest.MonkeyPatch.context() as patch:
        count_generator_calls(patch)
        sim = SOCSimulation(cfg)
        calls = sum(gen.calls for gen in sim.rngs._streams.values())
    n = cfg.n_nodes
    return {"tracked": tracked / n, "bytes": allocated / n, "generator_calls": calls / n}


@pytest.mark.benchmark(group="setup")
def test_setup_scales_linearly(benchmark, scale):
    n = SETUP_POPULATION[scale]
    small = mega_configs("small", seed=1, n_nodes=n, duration=600.0)["hid-can"]
    large = mega_configs("small", seed=1, n_nodes=4 * n, duration=600.0)["hid-can"]

    work = {"at_n": _work_per_node(small), "at_4n": _work_per_node(large)}
    growth = {
        name: work["at_4n"][name] / work["at_n"][name] for name in work["at_n"]
    }
    benchmark.extra_info["work_per_node"] = {
        size: {name: round(count, 4) for name, count in counts.items()}
        for size, counts in work.items()
    }
    counts = ", ".join(f"{name} x{g:.2f}" for name, g in growth.items())
    assert max(growth.values()) <= PER_NODE_GROWTH_BOUND, (
        f"per-node set-up work grew from n to 4n: {counts}"
    )

    # Small and large set-ups alternate, so a shift of the machine's CPU
    # speed between two blocks of runs cannot skew the ratio.  A small
    # sample is four consecutive cells, so it spans as much CPU time as a
    # large one: a short quiet spell on a shared host then cannot favour
    # the small minimum alone.  The first large one goes through
    # ``benchmark`` so the report carries a timing.
    small_runs, large_runs = [], []

    def timed_runs():
        for i in range(3):
            small_runs.append(
                sum(_cpu(lambda: SOCSimulation(small)) for _ in range(4)) / 4
            )
            large_runs.append(_cpu(
                lambda: run_once(benchmark, SOCSimulation, large) if i == 0
                else SOCSimulation(large)
            ))

    _, machine = calibrated(timed_runs)
    small_s, large_s = min(small_runs), min(large_runs)

    ratio = large_s / small_s
    benchmark.extra_info["n_nodes"] = [n, 4 * n]
    benchmark.extra_info["setup_cpu_s"] = [round(small_s, 3), round(large_s, 3)]
    benchmark.extra_info["ratio_4n_over_n"] = round(ratio, 2)
    benchmark.extra_info["phases_at_n"] = _phase_split(small, small_s)
    benchmark.extra_info["phases_at_4n"] = _phase_split(large, large_s)
    assert ratio <= 6.0, (
        f"set-up grew {ratio:.1f}x for 4x the nodes; work per node in class "
        f"({counts}); {machine}"
    )


@pytest.mark.benchmark(group="setup")
def test_add_node_100k_under_3s(benchmark):
    def add_all():
        network = NetworkModel(NetworkParams(), np.random.default_rng(1))
        for node_id in range(ADD_NODE_POPULATION):
            network.add_node(node_id)

    seconds = _best_of_3(benchmark, add_all)
    benchmark.extra_info["n_nodes"] = ADD_NODE_POPULATION
    benchmark.extra_info["add_node_cpu_s"] = round(seconds, 3)
    assert seconds < 3.0, f"add_node took {seconds:.2f} s for 10^5 nodes"
