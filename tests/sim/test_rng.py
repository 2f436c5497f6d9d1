"""Unit tests for the named RNG substreams."""

import numpy as np

from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_returns_cached_stream():
    rngs = RngRegistry(1)
    assert rngs.stream("a") is rngs.stream("a")


def test_streams_are_deterministic_across_registries():
    a = RngRegistry(99).stream("workload").random(8)
    b = RngRegistry(99).stream("workload").random(8)
    assert np.array_equal(a, b)


def test_different_names_give_independent_streams():
    rngs = RngRegistry(99)
    a = rngs.stream("one").random(8)
    b = rngs.stream("two").random(8)
    assert not np.array_equal(a, b)


def test_different_master_seeds_differ():
    a = RngRegistry(1).stream("x").random(8)
    b = RngRegistry(2).stream("x").random(8)
    assert not np.array_equal(a, b)


def test_derive_seed_is_stable_and_positive():
    s1 = derive_seed(42, "alpha")
    s2 = derive_seed(42, "alpha")
    assert s1 == s2
    assert 0 <= s1 < 2**63


def test_derive_seed_sensitive_to_name_boundaries():
    # "1" + "ab" must differ from "1a" + "b" — the separator guarantees it.
    assert derive_seed(1, "ab") != derive_seed(11, "b")


def test_spawn_gives_independent_child_registry():
    parent = RngRegistry(7)
    child = parent.spawn("worker")
    a = parent.stream("x").random(8)
    b = child.stream("x").random(8)
    assert not np.array_equal(a, b)
    # spawn is deterministic too
    again = RngRegistry(7).spawn("worker").stream("x").random(8)
    assert np.array_equal(b, again)


def test_integer_draws_are_stream_identical_to_single_choice():
    """The set-up and NINode fast paths replace ``Generator.choice`` with
    the bounded integer draw it makes internally (``repro.cloud.machine``,
    ``DiffusionEngine._pick_ninodes``).  Pin that identity — same value,
    same generator state afterwards — so a numpy release that changes
    either algorithm fails here instead of silently shifting every
    seeded result."""
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    sizes = [*range(2, 200), 499, 500, 501, 9_999, 10_000, 10_001, 65_537, 100_000]
    pool = (1.0, 2.0, 2.4, 3.2)
    for _ in range(5):
        for n in sizes:
            assert int(a.choice(n, size=1, replace=False)[0]) == int(b.integers(n))
            assert a.uniform() == b.uniform()  # interleaved, as in a run
            assert a.choice(pool) == pool[int(b.integers(len(pool)))]
    assert a.bit_generator.state == b.bit_generator.state
