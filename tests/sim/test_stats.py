"""Unit tests for the run's recorders: time series, and the keyed
counters every run charges (:class:`repro.metrics.traffic.TrafficMeter`;
``repro.sim.stats`` keeps only the series)."""

import pytest

from repro.metrics.traffic import TrafficMeter
from repro.sim.stats import TimeSeries


def test_counter_accumulates():
    c = TrafficMeter()
    c.charge("a", 0)
    c.charge("a", 1, n=2)
    c.charge("b", 1)
    assert c.by_kind["a"] == 3 and c.by_kind["b"] == 1
    assert c.by_kind.get("missing", 0) == 0
    assert dict(c.by_node) == {0: 1, 1: 3}
    assert c.total() == 4


def test_counter_snapshot_sorted():
    c = TrafficMeter()
    c.charge("zeta", 0)
    c.charge("alpha", 0)
    assert list(c.kind_snapshot()) == ["alpha", "zeta"]


def test_timeseries_append_and_iter():
    ts = TimeSeries("x")
    ts.append(0.0, 1.0)
    ts.append(1.0, 2.0)
    assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]


def test_timeseries_rejects_time_regression():
    ts = TimeSeries()
    ts.append(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.append(4.0, 2.0)


def test_timeseries_last_empty_raises():
    """Time order is checked against the last sample: an empty series has
    none, so it takes any first time; the next append before it raises."""
    ts = TimeSeries()
    assert list(ts) == [] and ts.as_dict() == {"times": [], "values": []}
    ts.append(-5.0, 1.0)
    with pytest.raises(ValueError):
        ts.append(-6.0, 1.0)


def test_timeseries_as_dict_copies():
    ts = TimeSeries()
    ts.append(1.0, 2.0)
    d = ts.as_dict()
    d["times"].append(99.0)
    assert ts.times == [1.0]
