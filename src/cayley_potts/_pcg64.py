"""numpy's ``default_rng(seed).uniform`` stream on plain ints.

``verify`` draws its leaf fields here so it runs without loading
``numpy.random``.  ``PCG64(seed).uniform(low, high, count)`` gives the
values ``np.random.default_rng(seed).uniform(low, high, size)`` gives,
``count`` of them in C order, bit for bit; a later call continues the
stream as a later numpy call on the same generator does.  The chain, all
arithmetic mod 2**32 unless stated:

* SeedSequence: the seed's 32-bit words, least significant first ([0]
  for 0), fill a 4-word pool through ``hashmix(v)``: ``v ^= h; h *=
  0x931e8875; v *= h; v ^= v >> 16``, with ``h`` starting at 0x43b0d7e5
  and carried across every call, a missing word read as 0.  Then for
  each source word and each other destination word ``pool[dst] =
  mix(pool[dst], hashmix(pool[src]))``, and each seed word past the
  fourth is mixed into all four the same way.  ``mix(x, y)`` is
  ``r ^ (r >> 16)`` with ``r = 0xca01f9dd*x - 0x4973f715*y``.
* generate_state: 8 words from ``pool[i % 4]`` by the same hash step,
  with ``h`` starting at 0x8b51f9dd and multiplier 0x58f38ded, paired low
  word first into the 64-bit words u0..u3.
* PCG64, mod 2**128: ``inc = (u2 << 64 | u3) << 1 | 1`` and state 0;
  step, add ``u0 << 64 | u1``, step again.  A step is ``state = state *
  0x2360ED051FC65DA44385DF649FCCF645 + inc``.  Each draw steps, then
  outputs the 64-bit ``hi ^ lo`` of the state rotated right by
  ``state >> 122``.
* uniform: ``low + (high - low) * ((draw >> 11) * 2**-53)``.

``tests/test_pcg64.py::test_stream_matches_numpy`` holds this to numpy.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Hash:
    """The hash step, its constant ``h`` carried from call to call."""

    def __init__(self, h: int, mult: int):
        self.h, self.mult = h, mult

    def __call__(self, v: int) -> int:
        v ^= self.h
        self.h = self.h * self.mult & _M32
        v = v * self.h & _M32
        return v ^ v >> 16


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64)."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _Hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state_hash = _Hash(0x8B51F9DD, 0x58F38DED)
    out = [state_hash(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's PCG64 generator as ``default_rng(seed)`` seeds it."""

    def __init__(self, seed: int):
        u0, u1, u2, u3 = _seed_words(seed)
        self.inc = ((u2 << 64 | u3) << 1 | 1) & _M128
        self.state = 0
        self._step()
        self.state = (self.state + (u0 << 64 | u1)) & _M128
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _MULTIPLIER + self.inc) & _M128

    def next64(self) -> int:
        self._step()
        s = self.state
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """The next ``count`` uniforms on [low, high)."""
        span = high - low
        return [low + span * ((self.next64() >> 11) * 2.0 ** -53)
                for _ in range(count)]
