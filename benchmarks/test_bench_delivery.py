"""Delivery-event coalescing throughput benches.

Two floors guard the delivery calendar (``repro.sim.delivery``):

1. **Machinery** — 10^4 deliveries landing on a coarse instant grid must
   coalesce into >= 5x fewer heap events than per-message scheduling
   (measured ~100x at this collision density), with identical delivery
   order and identical ``events_processed`` accounting.
2. **Mega throughput** — the ``mega`` scenario (which runs with a 0.1 s
   delivery quantum) must beat
   the PR 6 mega floor of ~280 q/s by >= 1.3x at paper scale; smaller
   scales carry proportionally calibrated floors.  The measured ratio
   against the old floor is recorded in ``extra_info``.
"""

import time

import pytest

from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import mega_configs
from repro.sim.delivery import DeliveryCalendar
from repro.sim.engine import Simulator

from benchmarks.conftest import run_once

#: Messages / instant-grid shape for the raw machinery bench: 10^4
#: deliveries spread over ~100 distinct instants (the density a cohort
#: round of state updates produces once delays are quantized).
N_MESSAGES = 10_000
GRID_STEP = 0.5
GRID_SLOTS = 100

#: Pre-calendar (PR 6) queries-per-wall-second baselines per REPRO_SCALE.
#: The tiny cell's 196 q/s is the committed PR 6 artifact
#: (``artifacts/BENCH_coalescing.json``); paper assumes ~280 q/s for the
#: full 10^5-node cell; small has no committed baseline (``None`` —
#: ratio reported but not asserted).
PR6_BASELINE_QPS = {"tiny": 196.0, "small": None, "paper": 280.0}

#: Mega-tier overrides and hard q/s floors per REPRO_SCALE.  Where a PR 6
#: baseline exists the floor is 1.3x it (the acceptance bar for delivery
#: coalescing; measured coalesced rates run ~1.5-2x above, e.g. ~400 q/s
#: on the tiny cell); small keeps a noise-safe floor only.
MEGA_CELLS = {
    "tiny": ({"n_nodes": 2_000, "duration": 900.0}, 255.0),
    "small": ({"n_nodes": 20_000, "duration": 1200.0}, 19.5),
    "paper": ({}, 364.0),
}


def _delays() -> list[float]:
    """Deterministic delay list hitting GRID_SLOTS distinct instants."""
    return [
        GRID_STEP * (1 + (i * 37) % GRID_SLOTS) for i in range(N_MESSAGES)
    ]


def _run_per_message() -> tuple[int, list[int]]:
    sim = Simulator()
    out: list[int] = []
    for i, delay in enumerate(_delays()):
        sim.schedule(delay, out.append, i)
    sim.run()
    return sim.events_processed, out


def _run_calendar() -> tuple[int, list[int], DeliveryCalendar]:
    sim = Simulator()
    cal = DeliveryCalendar(sim)
    out: list[int] = []
    for i, delay in enumerate(_delays()):
        cal.deliver(delay, out.append, i)
    sim.run()
    return sim.events_processed, out, cal


@pytest.mark.benchmark(group="delivery-machinery")
def test_delivery_coalescing_machinery_5x(benchmark):
    """Heap-event reduction and scheduling throughput of the calendar."""
    t0 = time.perf_counter()
    ref_events, ref_out = _run_per_message()
    per_message_s = time.perf_counter() - t0

    cal_events, cal_out, cal = run_once(benchmark, _run_calendar)
    calendar_s = benchmark.stats.stats.mean

    # Pure batching transform: same order, same accounted event units.
    assert cal_out == ref_out
    assert cal_events == ref_events == N_MESSAGES

    heap_reduction = cal.deliveries / cal.flushes
    wall_ratio = per_message_s / calendar_s
    benchmark.extra_info["deliveries"] = cal.deliveries
    benchmark.extra_info["flushes"] = cal.flushes
    benchmark.extra_info["heap_reduction"] = round(heap_reduction, 1)
    benchmark.extra_info["per_message_s"] = round(per_message_s, 4)
    benchmark.extra_info["wall_speedup"] = round(wall_ratio, 2)
    assert heap_reduction >= 5.0, (
        f"calendar only cut heap events {heap_reduction:.1f}x"
    )


@pytest.mark.benchmark(group="delivery-mega")
def test_mega_delivery_queries_per_second(benchmark, scale):
    """The mega tier with delivery coalescing must clear 1.3x the PR 6
    throughput floor (paper scale: >= 364 q/s vs the old ~280 q/s)."""
    overrides, floor = MEGA_CELLS[scale]
    cfg = mega_configs("paper", seed=42, **overrides)["hid-can"]
    assert cfg.delivery_quantum > 0  # the lever under test is on

    res = run_once(benchmark, lambda: SOCSimulation(cfg).run())

    qps = res.generated / res.wall_clock_s
    benchmark.extra_info["n_nodes"] = cfg.n_nodes
    benchmark.extra_info["generated"] = res.generated
    benchmark.extra_info["wall_clock_s"] = round(res.wall_clock_s, 2)
    benchmark.extra_info["queries_per_s"] = round(qps, 1)
    baseline = PR6_BASELINE_QPS[scale]
    if baseline is not None:
        benchmark.extra_info["ratio_vs_pr6_floor"] = round(qps / baseline, 2)
    assert res.generated > 0
    assert qps >= floor, f"mega tier at {qps:.1f} q/s, floor {floor}"
