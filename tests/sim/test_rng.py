"""Unit tests for the named RNG substreams."""

import numpy as np
import pytest

from repro.sim.rng import (
    _BULK_MIN_DRAWS,
    RngRegistry,
    bulk_index_draw,
    derive_seed,
    distinct_draw,
    index_draw,
    power_of_two_draws,
)


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


def test_spawn_gives_independent_child_registry():
    """A stream is a function of (master seed, name) alone: opening and
    drawing from other streams first — another concern joining the run —
    leaves its draws unchanged."""
    alone = RngRegistry(7).stream("churn").random(8)
    busy = RngRegistry(7)
    busy.stream("workload").random(100)
    busy.stream("machines")
    assert np.array_equal(busy.stream("churn").random(8), alone)


def test_derive_seed_is_stable_and_positive():
    s1 = derive_seed(42, "alpha")
    s2 = derive_seed(42, "alpha")
    assert s1 == s2
    assert 0 <= s1 < 2**63


def test_derive_seed_sensitive_to_name_boundaries():
    # "1" + "ab" must differ from "1a" + "b" — the separator guarantees it.
    assert derive_seed(1, "ab") != derive_seed(11, "b")


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


def test_index_draw_is_stream_identical_to_integers():
    """``index_draw(gen)`` replaces every scalar ``int(gen.integers(n))``
    of the simulation: same value, draw for draw, interleaved with the
    other draws a run makes, and the same generator state at the end."""
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    below = index_draw(b)
    sizes = [
        *range(1, 201),
        *range(2**16 - 3, 2**16 + 4),
        *(2**k + d for k in range(17, 32) for d in (-1, 0, 1)),
        2**31 - 1, 2**32 - 1, 2**32, 2**40,
    ]
    pool = (1.0, 2.0, 2.4, 3.2)
    for _ in range(3):
        for n in sizes:
            assert below(n) == int(a.integers(n)), n
            assert b.uniform() == a.uniform()
            assert b.choice(pool) == a.choice(pool)
            assert list(b.choice(9, size=3, replace=False)) == list(
                a.choice(9, size=3, replace=False)
            )
    assert a.bit_generator.state == b.bit_generator.state


def test_index_draw_of_one_consumes_nothing_and_non_positive_raises():
    gen = np.random.default_rng(3)
    below = index_draw(gen)
    before = gen.bit_generator.state
    assert [below(1) for _ in range(5)] == [0] * 5
    assert gen.bit_generator.state == before
    for n in (0, -1, -(2**40)):
        with pytest.raises(ValueError):
            np.random.default_rng(3).integers(n)
        with pytest.raises(ValueError):
            below(n)
    assert gen.bit_generator.state == before


def test_distinct_draw_is_stream_identical_to_choice_without_replacement():
    """``distinct_draw(gen, n, k)`` replaces every ``gen.choice(n, size=k,
    replace=False)`` of the simulation: the same picks in the same order,
    draw for draw, interleaved with other draws, and the same generator
    state at the end — over the short pools and few picks a run makes,
    pools around powers of two, the largest Floyd pool, more picks than
    the Python path takes, and the numpy fallback above 10 000."""
    a = np.random.default_rng(17)
    b = np.random.default_rng(17)
    shapes = [(n, k) for n in range(1, 72) for k in range(min(n, 6) + 1)]
    shapes += [(n, k) for n in (127, 128, 129, 255, 256, 257, 9_999, 10_000)
               for k in (1, 3, 6, 7, 40)]
    shapes += [(10_001, 3), (10_001, 500), (65_537, 6)]
    for _ in range(5):
        for n, k in shapes:
            assert distinct_draw(a, n, k) == b.choice(n, size=k, replace=False).tolist()
            assert a.uniform() == b.uniform()
    assert a.bit_generator.state == b.bit_generator.state


def test_distinct_draw_edge_sizes():
    gen = np.random.default_rng(4)
    before = gen.bit_generator.state
    assert distinct_draw(gen, 5, 0) == [] and distinct_draw(gen, 0, 0) == []
    assert gen.bit_generator.state == before
    assert sorted(distinct_draw(gen, 6, 6)) == list(range(6))
    with pytest.raises(ValueError):
        distinct_draw(gen, 3, 4)
    with pytest.raises(ValueError):
        distinct_draw(gen, 3, -1)


def test_bulk_index_draw_is_stream_identical_to_integers():
    """A :func:`bulk_index_draw` scope makes the draws of as many
    ``int(gen.integers(n))`` calls, value for value, and leaves the
    generator in the same state — starting on an odd buffered half-word
    of a 64-bit output, over bounds that reject a quarter to a half of
    their words, across refills of the word buffer, and when it expected
    too few draws to buffer at all."""
    bounds = [1, 2, 3, 4, 5, 7, 8, 255, 256, 257, 65_537, 2**31 - 1,
              2**31 + 1, 3 * 2**30, 2**32 - 1]
    for skip in (0, 1, 3):
        for expected in (1, _BULK_MIN_DRAWS):
            a, b = np.random.default_rng(29), np.random.default_rng(29)
            for _ in range(skip):  # (32-bit draws: an odd count buffers a half)
                a.integers(7), b.integers(7)
            wanted = [bounds[i % len(bounds)] for i in range(9 * _BULK_MIN_DRAWS)]
            with bulk_index_draw(a, expected) as below:
                got = [below(n) for n in wanted]
            assert got == [int(b.integers(n)) for n in wanted]
            assert a.bit_generator.state == b.bit_generator.state
            assert a.uniform() == b.uniform()


def test_bulk_index_draw_scopes_of_any_length_leave_the_exact_position():
    """Scopes that end before, on and after a refill boundary, and an
    empty one, each leave the stream where the scalar draws would."""
    a, b = np.random.default_rng(31), np.random.default_rng(31)
    for count in (0, 1, _BULK_MIN_DRAWS - 1, _BULK_MIN_DRAWS, _BULK_MIN_DRAWS + 1,
                  3 * _BULK_MIN_DRAWS, 4 * _BULK_MIN_DRAWS):
        with bulk_index_draw(a, _BULK_MIN_DRAWS) as below:
            got = [below(6) for _ in range(count)]
        assert got == [int(b.integers(6)) for _ in range(count)]
        assert a.bit_generator.state == b.bit_generator.state


def test_bulk_index_draw_refuses_a_foreign_draw_inside_its_scope():
    """The exit rewinds the generator, which would lose any other draw
    made inside the scope — so such a draw raises, whether the scope
    notices it at a refill or at its exit."""
    gen = np.random.default_rng(37)
    with pytest.raises(RuntimeError, match="inside a bulk_index_draw scope"):
        with bulk_index_draw(gen, _BULK_MIN_DRAWS) as below:
            below(5)
            gen.uniform()
    with pytest.raises(RuntimeError, match="inside a bulk_index_draw scope"):
        with bulk_index_draw(gen, _BULK_MIN_DRAWS) as below:
            below(5)
            index_draw(gen)(5)
            for _ in range(_BULK_MIN_DRAWS):
                below(5)


def test_bulk_index_draw_bounds():
    gen = np.random.default_rng(41)
    before = gen.bit_generator.state
    with bulk_index_draw(gen, _BULK_MIN_DRAWS) as below:
        assert [below(1) for _ in range(5)] == [0] * 5
        for n in (0, -1, 2**32, 2**40):
            with pytest.raises(ValueError):
                below(n)
    assert gen.bit_generator.state == before


def test_power_of_two_draws_are_stream_identical_to_integers():
    """One fetch makes the draws of ``count`` ``int(gen.integers(n))``
    calls at a power-of-two ``n`` — value for value, and leaving the
    generator in the same state — from an odd buffered half-word start
    too, for one draw as for many."""
    for n in (1, 2, 4, 8, 256, 2**31):
        for skip in (0, 1):
            for count in (0, 1, 5, 5 * 400):
                a, b = np.random.default_rng(43), np.random.default_rng(43)
                for _ in range(skip):  # (an odd 32-bit draw buffers a half)
                    a.integers(7), b.integers(7)
                got = power_of_two_draws(a, n, count)
                assert got.dtype == np.int64 and got.shape == (count,)
                assert got.tolist() == [int(b.integers(n)) for _ in range(count)]
                assert a.bit_generator.state == b.bit_generator.state
                assert a.uniform() == b.uniform()


def test_power_of_two_draws_refuse_any_other_bound():
    gen = np.random.default_rng(47)
    before = gen.bit_generator.state
    for n in (0, -4, 3, 5, 6, 12, 2**32, 2**32 + 1):
        with pytest.raises(ValueError, match="power of two"):
            power_of_two_draws(gen, n, 10)
    assert gen.bit_generator.state == before
