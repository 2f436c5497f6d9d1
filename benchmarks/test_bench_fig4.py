"""Figure 4 — contrary results under different query ranges.

(a) demand ratio 0.84: the diffusion protocols beat Newscast's random
    partial views (wide demands need *directed* search for the scarce
    qualified nodes);
(b) demand ratio 0.25: the crossover — Newscast's uniform randomness
    disperses light demands better than SID-CAN, whose queries pile onto
    the few duty nodes of the small corner region.

Shape assertions target the paper's orderings, not its absolute values.
"""

import pytest

from benchmarks.conftest import attach_results, run_once
from repro.experiments.reporting import render_scenario
from repro.experiments.scenarios import run_scenario


@pytest.mark.benchmark(group="fig4")
def test_fig4a_wide_demands(benchmark, scale):
    results = run_once(benchmark, run_scenario, "fig4a", scale=scale)
    attach_results(benchmark, results)
    print()
    print(render_scenario("fig4a", results))

    sid = results["sid-can"]
    newscast = results["newscast"]
    # Paper Fig. 4(a): SID-CAN clearly above Newscast on throughput ratio.
    assert sid.t_ratio > newscast.t_ratio
    # ...and it fails fewer tasks while doing so.
    assert sid.f_ratio < newscast.f_ratio


@pytest.mark.benchmark(group="fig4")
def test_fig4b_narrow_demands_crossover(benchmark, scale):
    results = run_once(benchmark, run_scenario, "fig4b", scale=scale)
    attach_results(benchmark, results)
    print()
    print(render_scenario("fig4b", results))

    sid = results["sid-can"]
    newscast = results["newscast"]
    # Paper Fig. 4(b): the ordering flips — Newscast's throughput ratio is
    # at least on par with SID-CAN when all demands are small.
    assert newscast.t_ratio >= sid.t_ratio * 0.95
    # The matching rate still favours the structured protocol (Fig. 7(b)).
    assert sid.f_ratio < newscast.f_ratio
