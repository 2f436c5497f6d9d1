"""Smoke test of the benchmark harness (collected by tier-1, seconds).

Every workload shrunk to 120 nodes and 300 simulated seconds, the traced
repeat between two timed ones, in this process.  The host-time numbers
are meaningless at that size; what is pinned is the plumbing: the full
metric set BENCHMARK.json names comes out, model metrics repeat exactly,
tracing leaves no shim behind, span arithmetic adds up, and compare.py
calls a worse model metric or failed share a regression.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare as bench_compare  # noqa: E402
from bench import run as bench_run  # noqa: E402
from bench import trace as bench_trace  # noqa: E402
from bench.calibrate import Calibrator  # noqa: E402
from bench.cell import WORKLOADS, measure  # noqa: E402
from bench.trace import TARGETS, Tracer, target_owner  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


class InstantCalibrator:
    """Stands in for the 70 ms kernel: the smoke test checks plumbing,
    not timing, and runs the kernel ~30 times per workload."""

    def run(self) -> float:
        return 0.001


def wrapped_callables() -> list:
    out = []
    for _layer, where, attrs, _hooks in TARGETS:
        owner, _class_name = target_owner(where)
        out += [vars(owner)[attr] for attr in attrs]
    return out


@pytest.fixture(scope="module")
def traced_docs() -> dict:
    originals = wrapped_callables()
    docs = {
        name: measure(workload, 1, repeats=2, trace=True,
                      calibrator=InstantCalibrator(), shrink=True)
        for name, workload in WORKLOADS.items()
    }
    docs["originals"] = originals
    return docs


def test_workloads_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_full_metric_set_is_emitted(traced_docs, name):
    doc = traced_docs[name]
    assert doc["failures"] == [] and doc["correct"]
    info = doc["info"]
    assert doc["attempted"] == info["resolved"] * doc["repeats"] >= 1
    assert doc["failed"] == info["query_timeouts"] * doc["repeats"]
    assert doc["failed"] == 0 or not WORKLOADS[name].static
    assert bench_run.contract_failures(doc, CONTRACT, trace=0) == []
    assert bench_run.contract_failures(doc, CONTRACT, trace=1) == []
    line = json.loads(bench_run.result_line(doc, trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_model_metrics_repeat_exactly(traced_docs, name):
    again = measure(WORKLOADS[name], 1, repeats=1,
                    calibrator=InstantCalibrator(), shrink=True)
    for metric, first in traced_docs[name]["end_to_end"].items():
        if first["kind"] == "model":
            assert again["end_to_end"][metric]["value"] == first["value"], metric
    assert again["info"]["traffic_by_kind"] == traced_docs[name]["info"]["traffic_by_kind"]


def test_tracing_leaves_no_shim_behind(traced_docs):
    after = wrapped_callables()
    assert all(a is b for a, b in zip(after, traced_docs["originals"]))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)
    # The by-name copies (``from repro.can.inscan import inscan_path`` in
    # core/query.py and baselines/*) are what tier-1 would trip over.
    # Every shim is a closure over the one code object.
    shim_code = Tracer()._shim(len, 0, None).__code__
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for key, value in vars(module).items():
                assert getattr(value, "__code__", None) is not shim_code, (mod_name, key)


def test_failed_install_takes_its_shims_back_off(monkeypatch):
    before = wrapped_callables()
    renamed = ("core.cache", "repro.core.cache:PathCacheIndex", ("no_such_method",), {})
    monkeypatch.setattr(bench_trace, "TARGETS", bench_trace.TARGETS + (renamed,))
    with pytest.raises(KeyError):
        with Tracer():
            pass
    monkeypatch.undo()
    assert all(a is b for a, b in zip(wrapped_callables(), before))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_add_up(traced_docs, name):
    tracer: Tracer = traced_docs[name]["tracer"]
    self_time = tracer.self_times()
    assert len(self_time) > 100
    assert (self_time >= -1e-9).all()
    parent = np.asarray(tracer.parent)
    duration = np.asarray(tracer.end) - np.asarray(tracer.start)
    roots = np.flatnonzero(parent < 0)
    owner = roots[np.searchsorted(roots, np.arange(len(parent)), side="right") - 1]
    for root in roots:
        assert self_time[owner == root].sum() == pytest.approx(duration[root], abs=1e-9)
    # ... and after scaling, the layers of the timed region sum to the
    # normalised time the end-to-end metric is made of.
    layers = traced_docs[name]["per_layer"]
    attributed = sum(m["value"] for n, m in layers.items() if n.endswith(".self_s"))
    assert 0.0 < layers["trace.attributed_ratio"]["value"] <= 1.0
    assert attributed > 0.0


def test_calibration_kernel_is_deterministic():
    calibrator = Calibrator()
    assert calibrator.run() > 0.0
    checksum = calibrator.checksum
    assert calibrator.run() > 0.0 and calibrator.checksum == checksum


def test_compare_calls_a_worse_model_metric_or_failed_share_a_regression(traced_docs, capsys):
    base = {
        "meta": {"seed": 1, "calib_ref_s": 0.06, "seconds": 15.0, "repeats": 2},
        "workloads": {name: traced_docs[name] for name in WORKLOADS},
    }
    assert bench_compare.compare(base, base, CONTRACT) == 0

    more_messages = copy.deepcopy(base)
    metric = more_messages["workloads"]["paper_table3"]["end_to_end"]["messages_per_query"]
    metric["value"] *= 1.001
    assert bench_compare.compare(base, more_messages, CONTRACT) == 1
    assert bench_compare.compare(more_messages, base, CONTRACT) == 0

    more_timeouts = copy.deepcopy(base)
    more_timeouts["workloads"]["churn_dynamic"]["info"]["query_failed_ratio"] += 0.01
    assert bench_compare.compare(base, more_timeouts, CONTRACT) == 1

    other_seed = copy.deepcopy(base)
    other_seed["meta"]["seed"] = 2
    assert bench_compare.compare(base, other_seed, CONTRACT) == 2
    capsys.readouterr()
