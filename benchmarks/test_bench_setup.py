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

CPU seconds (``time.process_time``), best of three per size, the sizes
interleaved; a small-cell sample is the mean of four consecutive cells.
The per-phase split of both cells is recorded in ``extra_info``: each
phase timed on its own with the cell's parameters and the collector
paused, through the one batch call the cell makes for it; "timers and
the rest" (state caches, cohort timers, workload arming, the closing
collection) as the remainder.
"""

import gc

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

from benchmarks.conftest import cpu_timed, run_once

#: Base population n per REPRO_SCALE; the bench builds n and 4n.
SETUP_POPULATION = {"tiny": 2_000, "small": 8_000, "paper": 25_000}
ADD_NODE_POPULATION = 100_000


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


@pytest.mark.benchmark(group="setup")
def test_setup_scales_linearly(benchmark, scale):
    n = SETUP_POPULATION[scale]
    small = mega_configs("small", seed=1, n_nodes=n, duration=600.0)["hid-can"]
    large = mega_configs("small", seed=1, n_nodes=4 * n, duration=600.0)["hid-can"]

    # Small and large set-ups alternate, so a shift of the machine's CPU
    # speed between two blocks of runs cannot skew the ratio.  A small
    # sample is four consecutive cells, so it spans as much CPU time as a
    # large one: a short quiet spell on a shared host then cannot favour
    # the small minimum alone.  The first large one goes through
    # ``benchmark`` so the report carries a timing.
    small_runs, large_runs = [], []
    for i in range(3):
        small_runs.append(sum(_cpu(lambda: SOCSimulation(small)) for _ in range(4)) / 4)
        large_runs.append(_cpu(
            lambda: run_once(benchmark, SOCSimulation, large) if i == 0
            else SOCSimulation(large)
        ))
    small_s, large_s = min(small_runs), min(large_runs)

    ratio = large_s / small_s
    benchmark.extra_info["n_nodes"] = [n, 4 * n]
    benchmark.extra_info["setup_cpu_s"] = [round(small_s, 3), round(large_s, 3)]
    benchmark.extra_info["ratio_4n_over_n"] = round(ratio, 2)
    benchmark.extra_info["phases_at_n"] = _phase_split(small, small_s)
    benchmark.extra_info["phases_at_4n"] = _phase_split(large, large_s)
    assert ratio <= 6.0, f"set-up grew {ratio:.1f}x for 4x the nodes"


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
