"""Figure 7 — six protocols at demand ratio λ=0.25.

The paper's sharpest contrast: HID-CAN suffers only 2 failed tasks out of
14362 in the day, versus 1793 for Newscast — an order of magnitude in
F-Ratio — while Newscast posts the best raw throughput ratio (~0.74) with
HID close behind.
"""

import pytest

from benchmarks.conftest import attach_results, run_once
from repro.experiments.reporting import render_scenario
from repro.experiments.scenarios import run_scenario


@pytest.mark.benchmark(group="fig7")
def test_fig7_lambda_025(benchmark, scale):
    results = run_once(benchmark, run_scenario, "fig7", scale=scale)
    attach_results(benchmark, results)
    print()
    print(render_scenario("fig7", results))

    hid = results["hid-can"]
    newscast = results["newscast"]

    # The headline: HID's failed-task ratio is several times lower.
    assert hid.f_ratio < newscast.f_ratio / 2.0
    assert hid.f_ratio < 0.1  # near-zero failures at light demands
    # Newscast tops raw throughput, with HID in the same band (§IV-B).
    assert newscast.t_ratio >= hid.t_ratio * 0.9
    assert hid.t_ratio > newscast.t_ratio * 0.55
