"""Tests for the periodic metric collector."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.ratios import RatioTracker
from repro.sim.engine import Simulator


def test_collector_samples_on_period():
    sim = Simulator()
    ratios = RatioTracker()
    effs = []
    collector = MetricsCollector(sim, ratios, lambda: effs, period=100.0)
    collector.start()

    def work():
        ratios.on_generated()
        ratios.on_finished()
        effs.append(0.5)

    sim.schedule(50.0, work)
    sim.run(until=350.0)
    series = collector.series()
    assert series["t_ratio"].times == [100.0, 200.0, 300.0]
    assert series["t_ratio"].values == [1.0, 1.0, 1.0]
    assert series["fairness"].values[0] == pytest.approx(1.0)


def test_fairness_nan_before_completions():
    import math

    sim = Simulator()
    collector = MetricsCollector(sim, RatioTracker(), lambda: [], period=10.0)
    collector.start()
    sim.run(until=10.0)
    assert math.isnan(collector.fairness.values[0])


def test_manual_sample():
    sim = Simulator()
    ratios = RatioTracker()
    collector = MetricsCollector(sim, ratios, lambda: [1.0])
    collector.sample()
    assert len(collector.t_ratio.times) == 1
