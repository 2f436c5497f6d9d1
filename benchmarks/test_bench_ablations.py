"""Ablation benches for the design choices DESIGN.md §5 calls out.

These sweep the knobs the paper fixes (L=2, single-message queries,
best-fit selection, lenient admission) to show each choice's effect —
the evidence behind the defaults.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.protocol import PIDCANParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation

#: A micro population keeps the whole ablation suite fast; the effects
#: tested here are local to the protocol mechanics, not the scale.
BASE = dict(n_nodes=120, duration=7200.0, demand_ratio=0.5, seed=21)


def run_cfg(**overrides):
    merged = {**BASE, **overrides}
    pidcan = merged.pop("pidcan", PIDCANParams())
    return SOCSimulation(ExperimentConfig(pidcan=pidcan, **merged)).run()


@pytest.mark.benchmark(group="ablations")
def test_ablation_L_sweep(benchmark):
    """Diffusion fan-out L: bigger L buys matching rate with ω-growth in
    traffic; L=2 (the paper's choice) already captures most of the gain."""

    def sweep():
        out = {}
        for L in (1, 2, 3):
            res = run_cfg(pidcan=PIDCANParams(L=L), protocol="hid-can")
            out[L] = (res.f_ratio, res.traffic_by_kind.get("index-diffusion", 0))
        return out

    out = run_once(benchmark, sweep)
    benchmark.extra_info["by_L"] = {
        str(L): {"f_ratio": round(f, 4), "diffusion_msgs": m}
        for L, (f, m) in out.items()
    }
    # traffic strictly grows with L...
    assert out[1][1] < out[2][1] < out[3][1]
    # ...and L=2 does not fail dramatically more tasks than L=3.
    assert out[2][0] <= out[3][0] + 0.12


@pytest.mark.benchmark(group="ablations")
def test_ablation_delta_sweep(benchmark):
    """δ (result budget): larger δ means more candidates for best-fit but
    longer chains; δ must not change the matching rate much."""

    def sweep():
        return {
            delta: run_cfg(
                pidcan=PIDCANParams(delta=delta), protocol="hid-can"
            ).f_ratio
            for delta in (1, 3, 6)
        }

    out = run_once(benchmark, sweep)
    benchmark.extra_info["f_ratio_by_delta"] = {str(k): round(v, 4) for k, v in out.items()}
    assert abs(out[1] - out[6]) < 0.25


@pytest.mark.benchmark(group="ablations")
def test_ablation_selection_policy(benchmark):
    """Best-fit vs worst-fit: packing tight preserves big nodes for big
    demands, so best-fit must not lose on failures."""

    def sweep():
        return {
            policy: run_cfg(protocol="hid-can", selection_policy=policy)
            for policy in ("best-fit", "worst-fit", "random")
        }

    out = run_once(benchmark, sweep)
    benchmark.extra_info["by_policy"] = {
        k: {"t_ratio": round(v.t_ratio, 4), "f_ratio": round(v.f_ratio, 4)}
        for k, v in out.items()
    }
    assert out["best-fit"].f_ratio <= out["worst-fit"].f_ratio + 0.10


@pytest.mark.benchmark(group="ablations")
def test_ablation_sos_overhead(benchmark):
    """§IV-B: 'SoS … suffers twice resource query overhead than those
    without SoS' — visible in per-query message counts when first attempts
    fail often (high demand ratio)."""

    def sweep():
        plain = run_cfg(protocol="hid-can", demand_ratio=0.9)
        sos = run_cfg(protocol="hid-can+sos", demand_ratio=0.9)
        def per_query(res):
            q = res.generated or 1
            kinds = res.traffic_by_kind
            msgs = sum(
                kinds.get(k, 0)
                for k in ("duty-query", "index-agent", "index-jump", "query-end")
            )
            return msgs / q
        return per_query(plain), per_query(sos)

    plain_q, sos_q = run_once(benchmark, sweep)
    benchmark.extra_info["per_query_msgs"] = {
        "plain": round(plain_q, 2), "sos": round(sos_q, 2)
    }
    assert sos_q > plain_q * 1.3  # roughly-doubled query overhead


@pytest.mark.benchmark(group="ablations")
def test_ablation_admission_policy(benchmark):
    """Strict admission converts contention slowdowns into placement
    rejections: fairness improves, failures rise."""

    def sweep():
        return {
            mode: run_cfg(protocol="hid-can", admission=mode, demand_ratio=0.8)
            for mode in ("none", "strict")
        }

    out = run_once(benchmark, sweep)
    benchmark.extra_info["by_admission"] = {
        k: {"t_ratio": round(v.t_ratio, 4), "f_ratio": round(v.f_ratio, 4),
            "fairness": round(v.fairness, 4)}
        for k, v in out.items()
    }
    assert out["strict"].f_ratio >= out["none"].f_ratio - 0.02


@pytest.mark.benchmark(group="ablations")
def test_ablation_duty_cache_check(benchmark):
    """The deviation knob of DESIGN.md §5: consulting the duty node's own
    cache γ is a free matching-rate improvement."""

    def sweep():
        on = run_cfg(pidcan=PIDCANParams(check_duty_cache=True), protocol="hid-can")
        off = run_cfg(pidcan=PIDCANParams(check_duty_cache=False), protocol="hid-can")
        return on.f_ratio, off.f_ratio

    on_f, off_f = run_once(benchmark, sweep)
    benchmark.extra_info["f_ratio"] = {"on": round(on_f, 4), "off": round(off_f, 4)}
    assert on_f <= off_f + 0.05


@pytest.mark.benchmark(group="ablations")
def test_ablation_randomwalk_strawman(benchmark):
    """§III-A: without proactive diffusion, random-walk probing 'may hardly
    find qualified resources' — the matching-rate gap to HID-CAN."""

    def sweep():
        rw = run_cfg(protocol="randomwalk-can")
        hid = run_cfg(protocol="hid-can")
        return rw.f_ratio, hid.f_ratio

    rw_f, hid_f = run_once(benchmark, sweep)
    benchmark.extra_info["f_ratio"] = {"randomwalk": round(rw_f, 4), "hid": round(hid_f, 4)}
    assert hid_f < rw_f
