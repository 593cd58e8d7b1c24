"""numpy's default random stream, drawn in pure Python.

``Rng(seed)`` yields bit for bit the stream of ``numpy.random.default_rng(seed)``
for the draws llmize makes, under numpy's names and call forms, so a numpy
``Generator`` can be passed wherever an ``Rng`` is expected. Seeding follows
numpy's ``SeedSequence``: the seed's 32-bit words are hash-mixed into a pool of
four words, and eight words generated from the pool give PCG64 its 128-bit
state and increment. PCG64 is the 128-bit linear congruential generator with
the XSL-RR output function (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905). Like numpy, a 32-bit draw takes the low half of a 64-bit
output and keeps the high half for the next 32-bit draw.
"""

from __future__ import annotations

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence's entropy pool for a non-negative integer seed."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    # Mix every pool word into every other, so late words affect early ones.
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg_seed(pool: list[int]) -> tuple[int, int]:
    """PCG64's 128-bit (seed, increment) pair: SeedSequence's first eight
    generated words, read as four little-endian 64-bit words."""
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    w64 = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
    return w64[0] << 64 | w64[1], w64[2] << 64 | w64[3]


class Rng:
    """The stream of ``numpy.random.default_rng(seed)``, for the draws llmize
    makes. ``seed`` is a non-negative integer."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be >= 0")
        initstate, initseq = _pcg_seed(_seed_pool(seed))
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (self._inc + initstate) * _PCG_MULT + self._inc & _MASK128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def _bounded(self, top: int) -> int:
        """Uniform on ``[0, top]`` by Lemire's multiply-and-reject; a 32-bit
        draw when ``top`` fits in 32 bits, and no draw when ``top`` is 0."""
        if top == 0:
            return 0
        bits, draw = (32, self._next32) if top <= _MASK32 else (64, self._next64)
        span, low_mask = top + 1, (1 << bits) - 1
        threshold = (1 << bits) % span
        product = draw() * span
        while product & low_mask < threshold:
            product = draw() * span
        return product >> bits

    def _interval(self, top: int) -> int:
        """Uniform on ``[0, top]``, ``top >= 1``, by drawing masked values
        until one is in range."""
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _MASK32 else self._next64
        while (value := draw() & mask) > top:
            pass
        return value

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, high: int) -> int:
        """An integer in ``[0, high)``."""
        if not 1 <= high <= 1 << 63:
            raise ValueError("high must be in [1, 2**63]")
        return self._bounded(high - 1)

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled by Fisher-Yates."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return order

    def choice(self, n: int, size: int, replace: bool = False) -> list[int]:
        """``size`` distinct integers from ``range(n)``, by Floyd's algorithm
        and a shuffle of the picks. numpy draws a large sample from a large
        population (over 10000, and ``size`` over ``n // 50``) another way,
        which is not reproduced."""
        if replace:
            raise ValueError("only replace=False is supported")
        if not 0 <= size <= n:
            raise ValueError("size must be in [0, n]")
        if n > 10000 and size > n // 50:
            raise ValueError("size must be <= n // 50 when n > 10000")
        picks: list[int] = []
        seen: set[int] = set()
        for top in range(n - size, n):
            value = self._bounded(top)
            if value in seen:
                value = top
            seen.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
