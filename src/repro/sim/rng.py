"""Deterministic named random substreams, and a cheap uniform index draw.

Every stochastic component of the simulation draws from its own named
substream derived from a single master seed.  This keeps runs reproducible
and lets components be added or removed without perturbing each other's
random sequences — a requirement for the A/B protocol comparisons in the
paper's evaluation (same machines, same tasks, different protocol).

The protocols' commonest draw is one uniform index into a short list (a
relay's NINode, a query's next agent or jump target, a churn victim).
``int(gen.integers(n))`` pays ~2.5 µs of argument handling per call for
a few nanoseconds of work, so :func:`index_draw` makes the same draw in
Python, straight off the generator's bit generator: the value and the
generator state afterwards are those of ``gen.integers(n)``, draw for
draw (``tests/sim/test_rng.py`` pins the identity).  The second commonest,
``gen.choice(n, size=k, replace=False)`` for a handful of picks from a
short list (a PIList sample, a duty's δ records, gossip and flooding
fan-outs), pays ~2.4 µs more for the same reason; :func:`distinct_draw`
replays numpy's small-pool algorithm over the same primitive.

Cell construction makes tens of thousands of index draws in a row (the
Table-I machine fields, every pointer-table walk), and there even the
ctypes call per word of :func:`index_draw` is most of the cost.
:func:`bulk_index_draw` opens a scope whose ``below`` makes the same
draws off raw 32-bit words fetched in chunks with one
``Generator.integers(0, 2**32, dtype=np.uint32)`` call each.  The scope
contract: on exit the generator is rewound to the state saved at entry
and exactly the words ``below`` used are drawn again, so the stream
position is the one the scalar draws leave; and any other draw from the
generator inside the scope — it would be lost to the rewind — is refused
with a :class:`RuntimeError` at the next refill or at exit.  A scope told
to expect few draws (a churn newcomer's table) skips the buffer and
hands out :func:`index_draw`'s ``below``, which costs less there.
Where every bound is one power of two (each Table-I pool has four
entries) Lemire's rule never rejects, so :func:`power_of_two_draws`
makes all the draws from one fetch with no Python call per draw.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "RngRegistry", "bulk_index_draw", "derive_seed", "distinct_draw", "index_draw",
    "power_of_two_draws",
]

_U32 = 0x1_0000_0000


def _lemire_draw(gen: np.random.Generator) -> Callable[[int], int]:
    """``below(n)`` computed the way ``Generator.integers(n)`` computes
    it for ``2 <= n < 2**32``: Lemire's multiply-and-reject rule on one
    32-bit word per try (numpy's ``buffered_bounded_lemire_uint32``);
    ``n == 1`` consumes nothing, as in numpy."""
    interface = gen.bit_generator.ctypes
    next_uint32 = interface.next_uint32
    address = interface.state_address
    # The bound method keeps ``gen`` — and the bit generator that owns
    # the state behind ``address`` — alive as long as this closure.
    integers = gen.integers

    def below(n: int) -> int:
        if not 1 < n < _U32:
            # (numpy raises on n <= 0, and draws 64-bit words from 2**32)
            return 0 if n == 1 else int(integers(n))
        m = next_uint32(address) * n
        if (m & 0xFFFF_FFFF) < n:
            threshold = (_U32 - n) % n
            while (m & 0xFFFF_FFFF) < threshold:
                m = next_uint32(address) * n
        return m >> 32

    return below


def _probe_index_draw() -> bool:
    """Does :func:`_lemire_draw` reproduce ``Generator.integers`` here?

    The rule copies numpy's bounded-integer algorithm, which is a numpy
    implementation detail, so it is probed once at import — values and
    final generator state, over small bounds, bounds near powers of two
    and draws interleaved with other methods — and :func:`index_draw`
    only uses it where the probe passed."""
    try:
        ours, theirs = np.random.default_rng(0x1D7), np.random.default_rng(0x1D7)
        below = _lemire_draw(ours)
        bounds = [*range(1, 64), 255, 256, 257, 65_535, 65_536, 65_537,
                  1_000_003, 2**31 - 1, 2**31, 2**32 - 1]
        for n in bounds * 3:
            if below(n) != int(theirs.integers(n)):
                return False
            if ours.uniform() != theirs.uniform():
                return False
        return ours.bit_generator.state == theirs.bit_generator.state
    except (ImportError, AttributeError):  # (no ctypes interface here)
        return False


_LEMIRE_MATCHES = _probe_index_draw()


def index_draw(gen: np.random.Generator) -> Callable[[int], int]:
    """``below`` with ``below(n) == int(gen.integers(n))`` draw for draw,
    consuming ``gen``'s stream exactly as that call does.

    Bounds of ``2**32`` and above are handed to numpy, and so is
    everything when the import-time probe failed."""
    if _LEMIRE_MATCHES:
        return _lemire_draw(gen)
    integers = gen.integers
    return lambda n: int(integers(n))


#: A bulk scope expecting fewer draws than this makes them one at a
#: time with :func:`index_draw`: buffering costs two state reads, a
#: fetch and a rewind, ~50 µs against ~1 µs a draw (2-core x86 VM).
_BULK_MIN_DRAWS = 64
#: A bulk scope fetches as many words as it expects draws, then twice as
#: many at each refill, up to this many (64 KB) per fetch.
_BULK_CHUNK_MAX = 16_384


def _draw_words(gen: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``gen``'s stream — the words
    ``count`` consecutive ``next_uint32`` calls return, the half of a
    64-bit output buffered by an odd draw first."""
    return gen.integers(0, _U32, size=count, dtype=np.uint32)


def _word_scope(
    gen: np.random.Generator, chunk: int
) -> tuple[Callable[[int], int], Callable[[], None]]:
    """``(below, close)`` of one bulk scope over ``gen`` whose first
    fetch is ``chunk`` words: ``below`` is :func:`_lemire_draw`'s rule on
    buffered words, ``close`` rewinds the generator and re-draws the
    words used (see the module docstring) — unless it used every word
    it fetched, which leaves the generator where it should stand."""
    bit_generator = gen.bit_generator
    entry = expected = bit_generator.state
    words: Sequence[int] = ()
    pos = fetched = 0

    def check() -> None:
        if bit_generator.state != expected:
            raise RuntimeError(
                "the generator was drawn from inside a bulk_index_draw scope"
            )

    def next_word() -> int:
        nonlocal words, pos, fetched, chunk, expected
        if pos == len(words):
            check()
            fetched += len(words)
            # (read through a memoryview: one int per draw, made when the
            # draw is, instead of one per word of the chunk held at once)
            words, pos = memoryview(_draw_words(gen, chunk)), 0
            expected = bit_generator.state
            chunk = min(2 * chunk, _BULK_CHUNK_MAX)
        pos += 1
        return words[pos - 1]

    def below(n: int) -> int:
        nonlocal pos
        if not 1 < n < _U32:
            if n == 1:
                return 0
            raise ValueError(f"bulk index draws take bounds in [1, 2**32), got {n}")
        if pos < len(words):
            m = words[pos] * n
            pos += 1
        else:
            m = next_word() * n
        if (m & 0xFFFF_FFFF) < n:
            threshold = (_U32 - n) % n
            while (m & 0xFFFF_FFFF) < threshold:
                m = next_word() * n
        return m >> 32

    def close() -> None:
        check()
        if pos == len(words):
            return
        used = fetched + pos
        bit_generator.state = entry
        while used:
            count = min(used, _BULK_CHUNK_MAX)
            _draw_words(gen, count)
            used -= count

    return below, close


def _probe_bulk_draw() -> bool:
    """Does a bulk scope reproduce ``Generator.integers`` here?  Probed
    once at import like the index draw — values and final generator
    state, from an odd buffered half-word, over bounds near powers of two
    and rejection-prone ones, across two refills — and
    :func:`bulk_index_draw` only buffers words where the probe passed."""
    ours, theirs = np.random.default_rng(0xB01C), np.random.default_rng(0xB01C)
    ours.integers(7), theirs.integers(7)  # (one word: half a 64-bit output)
    bounds = [2, 3, 4, 5, 7, 255, 257, 65_537, 2**31 - 1, 2**31 + 1,
              3 * 2**30, 2**32 - 1]
    below, close = _word_scope(ours, _BULK_MIN_DRAWS)
    for n in bounds * (4 * _BULK_MIN_DRAWS // len(bounds)):
        if below(n) != int(theirs.integers(n)):
            return False
    close()
    return ours.bit_generator.state == theirs.bit_generator.state


_BULK_MATCHES = _probe_bulk_draw()


class bulk_index_draw:
    """``with bulk_index_draw(gen, draws) as below:`` — inside the scope
    ``below(n) == int(gen.integers(n))`` draw for draw for ``1 <= n <
    2**32``; on exit ``gen`` stands where those scalar draws would have
    left it.  ``draws`` is how many draws the caller expects: from
    ``_BULK_MIN_DRAWS`` on they are made off words fetched in chunks, the
    first ``draws`` words long, and nothing else may draw from ``gen``
    inside the scope — a foreign draw raises :class:`RuntimeError`.
    Fewer are made one at a time by :func:`index_draw`, which is also
    what the scope hands out when the import-time probe failed.  (A
    class, not a generator function: a one-node call pays ~1 µs for the
    scope instead of ~4.)"""

    __slots__ = ("_below", "_close")

    def __init__(self, gen: np.random.Generator, draws: int):
        self._close: Optional[Callable[[], None]] = None
        if draws < _BULK_MIN_DRAWS or not _BULK_MATCHES:
            self._below = index_draw(gen)
        else:
            self._below, self._close = _word_scope(gen, min(draws, _BULK_CHUNK_MAX))

    def __enter__(self) -> Callable[[int], int]:
        return self._below

    def __exit__(self, *exc_info: object) -> None:
        if self._close is not None:
            self._close()


def power_of_two_draws(gen: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` draws of ``int(gen.integers(n))`` for a power of two
    ``n``, as one int64 array, leaving ``gen`` where those scalar draws
    would.  Lemire's rule never rejects at a power of two — the low 32
    bits of ``word * n`` fall below ``n`` only when they are 0, and the
    threshold ``(2**32 - n) % n`` is 0 — so a draw is the top ``log2 n``
    bits of one 32-bit word, and all ``count`` words come from one
    fetch.  Where the import-time probe of the bulk draw failed, the
    draws are made one at a time by :func:`index_draw`.  Any other ``n``
    raises :class:`ValueError`."""
    if not 0 < n < _U32 or n & (n - 1):
        raise ValueError(f"power-of-two draws take a power of two below 2**32, got {n}")
    if n == 1 or not count:
        return np.zeros(count, dtype=np.int64)  # (n == 1 consumes nothing)
    if not _BULK_MATCHES:
        below = index_draw(gen)
        return np.array([below(n) for _ in range(count)], dtype=np.int64)
    return (_draw_words(gen, count) >> (33 - n.bit_length())).astype(np.int64)


#: ``Generator.choice`` samples pools above this size without replacement
#: by a partial shuffle of the whole pool instead of Floyd's algorithm.
_FLOYD_MAX_POOL = 10_000

#: Above this many picks numpy's own call is the cheaper one: ~0.37 µs
#: per Python draw against its flat ~4.7 µs (numpy 2.4, 2-core x86 VM).
_FLOYD_MAX_PICKS = 6


def _floyd_draw(gen: np.random.Generator, n: int, k: int) -> list[int]:
    """``k`` distinct indexes below ``n`` the way ``Generator.choice(n,
    size=k, replace=False)`` draws them for ``n <= 10 000``: Floyd's
    algorithm, where ``j`` runs over ``n-k .. n-1``, one ``below(j + 1)``
    draw each and ``j`` itself standing in for a value already taken,
    then a Fisher-Yates pass with ``below(i + 1)`` for ``i = k-1 .. 1``.
    ``below`` is :func:`_lemire_draw`'s rule, inlined: one pick makes
    ``2k - 1`` draws, and a call per draw would cost a third more."""
    interface = gen.bit_generator.ctypes
    next_uint32 = interface.next_uint32
    address = interface.state_address
    picked: list[int] = []
    # The first k draws are Floyd's (bound j + 1), the k - 1 after them
    # the shuffle's (bound i + 1 with i = n + k - 1 - j).
    for j in range(n - k, n + k - 1):
        bound = j + 1 if j < n else n + k - j
        if bound == 1:
            value = 0
        else:
            m = next_uint32(address) * bound
            if (m & 0xFFFF_FFFF) < bound:
                threshold = (_U32 - bound) % bound
                while (m & 0xFFFF_FFFF) < threshold:
                    m = next_uint32(address) * bound
            value = m >> 32
        if j < n:
            picked.append(j if value in picked else value)
        else:
            i = bound - 1
            picked[i], picked[value] = picked[value], picked[i]
    return picked


def _probe_distinct_draw() -> bool:
    """Does :func:`_floyd_draw` reproduce ``Generator.choice(...,
    replace=False)`` here?  Probed once at import like the index draw —
    values and final generator state, over short pools, pools whose
    ``j + 1`` crosses a power of two and the largest Floyd pool."""
    if not _LEMIRE_MATCHES:
        return False
    ours, theirs = np.random.default_rng(0xF10D), np.random.default_rng(0xF10D)
    cases = [(n, k) for n in (1, 2, 3, 5, 8, 17, 33, 64, 65, 257) for k in (0, 1, 2, 3, 6)
             if k <= n] + [(_FLOYD_MAX_POOL, 9), (_FLOYD_MAX_POOL, 300)]
    for n, k in cases * 3:
        if _floyd_draw(ours, n, k) != theirs.choice(n, size=k, replace=False).tolist():
            return False
        if ours.uniform() != theirs.uniform():
            return False
    return ours.bit_generator.state == theirs.bit_generator.state


_FLOYD_MATCHES = _probe_distinct_draw()


def distinct_draw(gen: np.random.Generator, n: int, k: int) -> list[int]:
    """``gen.choice(n, size=k, replace=False).tolist()``, draw for draw:
    ``k`` distinct uniform indexes below ``n`` in numpy's order, with
    ``gen``'s stream consumed exactly as that call consumes it.

    More than six picks, pools above 10 000, sizes numpy rejects, and
    everything when the import-time probe failed are handed to numpy
    itself."""
    if _FLOYD_MATCHES and 0 <= k <= _FLOYD_MAX_PICKS and k <= n <= _FLOYD_MAX_POOL:
        return _floyd_draw(gen, n, k)
    return gen.choice(n, size=k, replace=False).tolist()


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``master_seed`` and a stream name.

    Uses BLAKE2b so that the mapping is stable across Python versions and
    processes (``hash()`` is salted and unsuitable).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("workload")
    >>> b = rngs.stream("workload")   # same object, cached
    >>> a is b
    True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen
