"""Access-pattern primitives.

Each pattern generates block addresses within a region of the address
space, parameterised by a working-set size in blocks.  The patterns are the
building blocks of the synthetic application profiles and were chosen to
span the regimes that drive the paper's phenomena:

* ``CircularPattern`` -- the cyclic pattern of Section I-A's MIN analysis:
  a loop over more blocks than the LLC associativity makes MIN (and
  Hawkeye, which learns from it) victimise recently used blocks, which are
  exactly the privately cached ones -> inclusion victims.
* ``HotPattern`` -- a private-cache-resident working set; such applications
  are the *victims* of other cores' inclusion victims.
* ``StreamingPattern`` -- no reuse beyond the spatial window; generates LLC
  pressure that evicts other cores' blocks.
* ``RandomPattern`` -- LLC-thrashing background noise.
* ``PointerChasePattern`` -- a permutation walk (mcf/omnetpp-like) with a
  long reuse distance equal to the region size.
* ``StencilPattern`` -- row sweeps with neighbour reuse (scientific codes).

Patterns hand out offsets in bulk: :meth:`Pattern.take` returns the next
``n``, and ``take(a) + take(b)`` always equals ``take(a + b)``.  Each
pattern owns its ``random.Random``, so the generators can draw a region's
offsets in one call without disturbing any other stream.
"""

from __future__ import annotations

import random
from itertools import count, islice


def randbelow(rng: random.Random, n: int, k: int) -> list[int]:
    """``k`` successive ``rng.randrange(n)`` draws, ``n > 0``, in bulk.

    CPython (3.10 to 3.12) draws ``randrange(n)`` as
    ``getrandbits(n.bit_length())``, drawing again while the value is
    ``>= n``.  Every attempt takes one call, so the accepted values are
    the raw draws filtered by ``< n``; asking only for as many raw draws
    as values are still missing consumes exactly the stream ``k`` calls
    to ``randrange`` would.  ``tests/test_workloads.py`` pins this
    against ``randrange`` itself."""
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    while len(out) < k:
        raw = map(getrandbits, [bits] * (k - len(out)))
        out.extend(filter(n.__gt__, raw))
    return out


class Pattern:
    """A stateful address generator over ``size`` blocks."""

    def __init__(self, size: int, seed: int = 0) -> None:
        if size <= 0:
            raise ValueError("pattern size must be positive")
        self.size = size
        self.rng = random.Random(seed)

    def take(self, n: int) -> list[int]:
        """The next ``n`` block offsets, each in [0, size)."""
        raise NotImplementedError

    def next_offset(self) -> int:
        """The next block offset in [0, size)."""
        return self.take(1)[0]


class StreamingPattern(Pattern):
    """Sequential sweep, wrapping at the region end."""

    def __init__(self, size: int, seed: int = 0, stride: int = 1) -> None:
        super().__init__(size, seed)
        self.stride = stride
        self._pos = 0

    def take(self, n: int) -> list[int]:
        out = list(map(self.size.__rmod__,
                       islice(count(self._pos, self.stride), n)))
        self._pos = (self._pos + n * self.stride) % self.size
        return out


class CircularPattern(StreamingPattern):
    """Alias of a wrapping sweep; named for the paper's circular access
    pattern (B1, B2, ..., BN, B1, ...) with N above the associativity."""


class HotPattern(Pattern):
    """Skewed random accesses over a small, cache-resident set.

    Approximates a Zipf-like distribution by drawing the minimum of two
    uniforms, which biases toward low offsets without the cost of a true
    Zipf sampler."""

    def take(self, n: int) -> list[int]:
        draws = randbelow(self.rng, self.size, 2 * n)
        return list(map(min, draws[0::2], draws[1::2]))


class RandomPattern(Pattern):
    """Uniform random over the region."""

    def take(self, n: int) -> list[int]:
        return randbelow(self.rng, self.size, n)


class PointerChasePattern(Pattern):
    """Walk a random permutation cycle: every block is revisited exactly
    once per lap, giving a reuse distance equal to the region size."""

    def __init__(self, size: int, seed: int = 0) -> None:
        super().__init__(size, seed)
        # The walk visits the shuffled blocks in order, then wraps: one
        # cycle covering the whole region.
        self._cycle = list(range(size))
        self.rng.shuffle(self._cycle)
        self._at = 0

    def take(self, n: int) -> list[int]:
        cycle = self._cycle
        at = self._at
        out = cycle[at:at + n]
        while len(out) < n:
            out += cycle[:n - len(out)]
        self._at = (at + n) % self.size
        return out


class StencilPattern(Pattern):
    """Row-major sweep touching vertical neighbours, like a 2D stencil:
    block ``p``, then ``p + row`` and ``p - row`` (wrapping), then
    ``p + 1``."""

    def __init__(self, size: int, seed: int = 0, row: int = 16) -> None:
        super().__init__(size, seed)
        self.row = max(1, row)
        self._pos = 0
        self._phase = 0

    def take(self, n: int) -> list[int]:
        size, row, pos, phase = self.size, self.row, self._pos, self._phase
        steps = (phase + n + 2) // 3
        sweep: list[int] = [0] * (3 * steps)
        sweep[0::3] = map(size.__rmod__, range(pos, pos + steps))
        sweep[1::3] = map(size.__rmod__, range(pos + row, pos + row + steps))
        sweep[2::3] = map(size.__rmod__, range(pos - row, pos - row + steps))
        done = phase + n
        self._pos = (pos + done // 3) % size
        self._phase = done % 3
        return sweep[phase:done]


PATTERN_FACTORY = {
    "streaming": StreamingPattern,
    "circular": CircularPattern,
    "hot": HotPattern,
    "random": RandomPattern,
    "chase": PointerChasePattern,
    "stencil": StencilPattern,
}


def make_pattern(kind: str, size: int, seed: int = 0) -> Pattern:
    try:
        cls = PATTERN_FACTORY[kind]
    except KeyError:
        raise ValueError(
            f"unknown pattern {kind!r}; known: {sorted(PATTERN_FACTORY)}"
        ) from None
    return cls(size, seed)
