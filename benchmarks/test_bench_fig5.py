"""Figure 5 — six protocols at demand ratio λ=1.

Paper reading: SID/HID-CAN (and their SoS versions) prominently outperform
Newscast on throughput; Newscast is worst because locating the *scarce*
qualified resources dominates, which pure random partial views cannot do.
"""

import pytest

from benchmarks.conftest import attach_results, run_once
from repro.experiments.reporting import render_scenario
from repro.experiments.scenarios import run_scenario


@pytest.mark.benchmark(group="fig5")
def test_fig5_lambda_1(benchmark, scale):
    results = run_once(benchmark, run_scenario, "fig5", scale=scale)
    attach_results(benchmark, results)
    print()
    print(render_scenario("fig5", results))

    hid = results["hid-can"]
    sid = results["sid-can"]
    newscast = results["newscast"]

    # Diffusion beats unstructured gossip on both headline metrics.
    assert hid.t_ratio > newscast.t_ratio
    assert sid.t_ratio > newscast.t_ratio
    assert hid.f_ratio < newscast.f_ratio
    assert sid.f_ratio < newscast.f_ratio
    # "HID-CAN performs as well as SID-CAN" at λ=1 (±50% band).
    assert hid.t_ratio == pytest.approx(sid.t_ratio, rel=0.5)
    # SoS is redundant here (§IV-B): no large gain over plain variants.
    for variant, base in (("hid-can+sos", hid), ("sid-can+sos", sid)):
        assert results[variant].t_ratio < base.t_ratio * 1.6 + 0.05
