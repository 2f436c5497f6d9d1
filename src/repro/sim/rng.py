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
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

__all__ = ["RngRegistry", "derive_seed", "distinct_draw", "index_draw"]

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
