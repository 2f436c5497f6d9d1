"""Tests for the public ProtocolSandbox."""

import numpy as np

from repro.testing import ProtocolSandbox


def test_sandbox_builds_consistent_state():
    sb = ProtocolSandbox(n=24, dims=3, seed=1)
    assert len(sb.overlay) == 24
    assert set(sb.caches) == set(sb.pilists) == set(sb.tables)
    sb.overlay.check_invariants()


def test_plant_record_and_duty_lookup():
    sb = ProtocolSandbox(n=16, dims=2, seed=2)
    point = np.array([0.3, 0.7])
    duty = sb.duty_of(point)
    rec = sb.plant_record(duty, owner=5, availability=[0.4, 0.8])
    assert sb.caches[duty].records(now=0.0) == [rec]
    assert sb.overlay.nodes[duty].zone.contains(point)


def test_kill_drops_messages():
    sb = ProtocolSandbox(n=8, dims=2, seed=3)
    received = []
    sb.dead.add(3)
    sb.ctx.send("test", 0, 3, received.append, "payload")
    sb.sim.run()
    assert received == []
    assert sb.traffic.by_kind["dropped"] == 1


def test_alive_messages_delivered():
    sb = ProtocolSandbox(n=8, dims=2, seed=4)
    received = []
    sb.ctx.send("test", 0, 5, received.append, "payload")
    sb.sim.run()
    assert received == ["payload"]


def test_availability_is_mutable():
    sb = ProtocolSandbox(n=8, dims=2, seed=5)
    sb.availability[2] = np.array([0.9, 0.9])
    assert np.allclose(sb.ctx.availability_of(2), [0.9, 0.9])
