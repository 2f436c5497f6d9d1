"""Cell-construction benches: set-up must scale linearly.

Before the first simulated second a cell replays the paper's
construction — a LAN and a Table-I machine per host, n sequential CAN
joins, one §III-A pointer table per node, the periodic timers — and at
the ``mega`` tiers that costs as much as the run it precedes.  Two floors
keep it linear (``docs/architecture.md``, "Cell construction"):

1. **Set-up scaling** — constructing the ``mega`` cell at 4n nodes costs
   at most 6x the cell at n (linear is 4; when ``NetworkModel.add_node``
   still scanned every LAN, that phase alone grew 16x).
2. **LAN assignment** — ``NetworkModel.add_node`` for 10^5 nodes in under
   3 CPU seconds (the scan took 33 s; the heap takes ~0.4 s).

CPU seconds (``time.process_time``), best of three per size.  The
per-phase split of the larger cell is recorded in ``extra_info``: each
phase timed on its own with the cell's parameters and the collector
paused, as the cell builds it; "timers and the rest" (state caches,
cohort timers, workload arming, the closing collection) as the
remainder.
"""

import gc

import numpy as np
import pytest

from repro.can.inscan import build_index_table
from repro.can.overlay import CANOverlay
from repro.cloud.machine import sample_machines
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import mega_configs
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
    run on its own with the collector paused, as ``SOCSimulation`` runs
    it (the closing collection lands in the remainder)."""
    n = cfg.n_nodes
    network = NetworkModel(cfg.network, np.random.default_rng(1))
    overlay = CANOverlay(cfg.pidcan.overlay_dims, np.random.default_rng(2))
    table_rng = np.random.default_rng(3)

    def add_nodes():
        for node_id in range(n):
            network.add_node(node_id)

    def build_tables():
        for node_id in range(n):
            build_index_table(overlay, node_id, table_rng)

    gc.disable()
    try:
        phases = {"network_s": _cpu(add_nodes)}
        bandwidths = [network.node_bandwidth_mbps(i) for i in range(n)]
        phases["machines_s"] = _cpu(
            lambda: sample_machines(np.random.default_rng(4), bandwidths)
        )
        phases["overlay_bootstrap_s"] = _cpu(lambda: overlay.bootstrap(range(n)))
        phases["table_build_s"] = _cpu(build_tables)
    finally:
        gc.enable()
    phases["timers_and_rest_s"] = max(0.0, setup_s - sum(phases.values()))
    return {name: round(seconds, 3) for name, seconds in phases.items()}


@pytest.mark.benchmark(group="setup")
def test_setup_scales_linearly(benchmark, scale):
    n = SETUP_POPULATION[scale]
    small = mega_configs("small", seed=1, n_nodes=n, duration=600.0)["hid-can"]
    large = mega_configs("small", seed=1, n_nodes=4 * n, duration=600.0)["hid-can"]

    small_s = min(_cpu(lambda: SOCSimulation(small)) for _ in range(3))
    large_s = _best_of_3(benchmark, lambda: SOCSimulation(large))

    ratio = large_s / small_s
    benchmark.extra_info["n_nodes"] = [n, 4 * n]
    benchmark.extra_info["setup_cpu_s"] = [round(small_s, 3), round(large_s, 3)]
    benchmark.extra_info["ratio_4n_over_n"] = round(ratio, 2)
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
