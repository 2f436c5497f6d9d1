"""Cohort event-coalescing throughput benches.

Two floors guard the coalescing machinery:

1. **Ticking machinery** — a raw :class:`Simulator` with 10^4 periodic
   members must process rounds at >= 5x the per-node chain rate when the
   members share 16 cohort timers (measured ~100x: the heap shrinks from
   one event per member to one per cohort).
2. **End-to-end rounds** — a full SOC run (state updates + index
   diffusion, no queries) on cohort timers must beat the same run on the
   per-member reference scheduler (``ReferenceCohortScheduler``: one
   grid chain and one one-member round per node) by a conservative
   noise-safe floor.  The end-to-end win is Amdahl-limited: both sides
   share the same vectorized protocol kernels (routing fronts, diffusion
   tree walks), so the measured ratio (recorded in ``extra_info``) is
   far below the machinery ratio — see ``docs/coalescing.md`` for the
   decomposition.  The run summaries must also be identical,
   re-asserting the cohort-timer equivalence at bench scale.

The mega tier's queries-per-second floor lives in
``test_bench_delivery.py``.
"""

import time

import pytest

from repro.core.protocol import PIDCANParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.sim import engine
from repro.sim.engine import Simulator
from tests.oracles import ReferenceCohortScheduler

from benchmarks.conftest import cpu_timed, run_once

#: Members / cohorts for the raw machinery bench.
TICK_MEMBERS = 10_000
TICK_BUCKETS = 16
TICK_PERIOD = 400.0
TICK_HORIZON = 4_000.0

#: End-to-end round-throughput cells per REPRO_SCALE.
ROUNDS_POPULATION = {"tiny": 1_000, "small": 10_000, "paper": 10_000}


def _tick_per_node() -> int:
    """10^4 self-rescheduling chains — one heap event per member."""
    sim = Simulator()
    count = [0]

    def arm(phase: float) -> None:
        def tick() -> None:
            count[0] += 1
            sim.schedule(TICK_PERIOD, tick)

        sim.schedule(phase, tick)

    for i in range(TICK_MEMBERS):
        arm((i % TICK_BUCKETS) * TICK_PERIOD / TICK_BUCKETS)
    sim.run(until=TICK_HORIZON)
    return count[0]


def _tick_cohort() -> int:
    """The same members and fire instants via 16 shared cohort timers."""
    sim = Simulator()
    count = [0]

    def round_(members) -> None:
        count[0] += len(members)

    timers = {}
    for i in range(TICK_MEMBERS):
        phase = (i % TICK_BUCKETS) * TICK_PERIOD / TICK_BUCKETS
        timer = timers.get(phase)
        if timer is None:
            timer = timers[phase] = sim.periodic_cohort(
                TICK_PERIOD, round_, epoch=phase
            )
        timer.add(i)
    sim.run(until=TICK_HORIZON)
    return count[0]


@pytest.mark.benchmark(group="coalescing-machinery")
def test_cohort_ticking_machinery_5x(benchmark):
    """Pure scheduling throughput: cohort timers >= 5x per-node chains."""
    t0 = time.perf_counter()
    per_node_ticks = _tick_per_node()
    per_node_s = time.perf_counter() - t0

    cohort_ticks = run_once(benchmark, _tick_cohort)
    cohort_s = benchmark.stats.stats.mean

    assert cohort_ticks == per_node_ticks  # same members, same instants
    ratio = per_node_s / cohort_s
    benchmark.extra_info["per_node_s"] = round(per_node_s, 4)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    benchmark.extra_info["ticks"] = cohort_ticks
    assert ratio >= 5.0, f"cohort ticking only {ratio:.1f}x per-node"


@pytest.mark.benchmark(group="coalescing-rounds")
def test_cohort_round_throughput(benchmark, scale, monkeypatch):
    """End-to-end state+diffusion rounds: cohort timers must beat the
    per-member reference scheduler (noise-safe 1.3x floor on best-of-3
    CPU seconds; measured ratio in ``extra_info``) and produce the
    identical run."""
    cfg = ExperimentConfig(
        n_nodes=ROUNDS_POPULATION[scale],
        duration=2_000.0,
        protocol="hid-can",
        demand_ratio=0.5,
        mean_interarrival=1e9,  # no queries: isolate the periodic rounds
        sample_period=1_000.0,
        seed=3,
        pidcan=PIDCANParams(phase_buckets=16),
    )

    def run():
        return SOCSimulation(cfg).run()

    # CPU seconds, the two sides alternating, best of three each: a busy
    # neighbour or a slow stretch of the sandbox hits both sides alike
    # instead of deciding the ratio.
    per_node_times, cohort_times = [], []
    for attempt in range(3):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "CohortTimer", ReferenceCohortScheduler)
            per_node, seconds = cpu_timed(run)
        per_node_times.append(seconds)
        cohort, seconds = cpu_timed(
            (lambda: run_once(benchmark, run)) if attempt == 0 else run
        )
        cohort_times.append(seconds)

        # Free identity check: same rounds, same records, same traffic.
        assert cohort.traffic_by_kind == per_node.traffic_by_kind
        assert cohort.traffic_total == per_node.traffic_total
        assert cohort.generated == per_node.generated

    per_node_s, cohort_s = min(per_node_times), min(cohort_times)
    ratio = per_node_s / cohort_s
    benchmark.extra_info["per_node_cpu_s"] = round(per_node_s, 3)
    benchmark.extra_info["cohort_cpu_s"] = round(cohort_s, 3)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    benchmark.extra_info["traffic_total"] = cohort.traffic_total
    assert ratio >= 1.3, f"cohort rounds only {ratio:.2f}x per-node"

