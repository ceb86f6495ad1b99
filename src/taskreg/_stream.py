"""numpy's ``default_rng(entropy)`` stream, drawn with Python integers.

:class:`Stream` gives the draws that numpy's ``default_rng(entropy)``
gives for the three calls taskreg makes: ``permutation(n)``,
``integers(n)`` and ``random()``. It reproduces ``SeedSequence``'s pool
mixing and ``generate_state``, then the PCG64 generator: a 128-bit LCG
with the XSL-RR output, whose 64-bit outputs are split into two 32-bit
draws, low half first. numpy's RNG policy (NEP 19) keeps the bit
generators' streams stable across releases, but not the algorithms of
``Generator`` methods, so a seed reproduces the same split here whatever
numpy is installed. It also spares a command the import of numpy's
random package, whose modules and OpenSSL add several MB of peak RSS.
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# SeedSequence's hash constants and its pool of four 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _entropy_words(entropy) -> list[int]:
    """An integer's 32-bit words, least significant first; a sequence's words in order."""
    if isinstance(entropy, (list, tuple)):
        return [word for part in entropy for word in _entropy_words(part)]
    n = operator.index(entropy)  # a TypeError for a float, as in numpy
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_words(entropy) -> list[int]:
    """``SeedSequence(entropy).generate_state(8)``: the eight words that seed PCG64."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = ((value ^ hash_const) * hash_const * _MULT_A) & _M32
        hash_const = (hash_const * _MULT_A) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out, hash_const = [], _INIT_B
    for i in range(8):
        value = ((pool[i % _POOL_SIZE] ^ hash_const) * hash_const * _MULT_B) & _M32
        hash_const = (hash_const * _MULT_B) & _M32
        out.append(value ^ (value >> 16))
    return out


class Stream:
    """The draws of numpy's ``default_rng(entropy)``, for a non-negative int or a list of them."""

    def __init__(self, entropy):
        w = _seed_words(entropy)
        # generate_state(4, uint64) pairs the words low half first; the
        # state seed is (s0, s1) and the increment seed (s2, s3), high word first.
        s0, s1, s2, s3 = (w[i] | (w[i + 1] << 32) for i in range(0, 8, 2))
        self._inc = (((s2 << 64) | s3) << 1 | 1) & _M128
        state = (self._inc + ((s0 << 64) | s1)) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._half = None  # the high half of the last 64-bit output, not yet drawn

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = ((state >> 64) ^ state) & _M64, state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, n: int) -> int:
        """An int in [0, n), by Lemire's bounded draw on 32-bit draws; n = 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32

    def permutation(self, n: int) -> list[int]:
        """range(n) shuffled: Fisher-Yates from n - 1 down, masked rejection on 32-bit draws."""
        if not 0 <= n <= 1 << 32:
            raise ValueError(f"n must be in [0, 2**32], got {n}")
        order = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        mult, m64, m128 = _PCG_MULT, _M64, _M128
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                # _next32 inlined: this loop is most of a split's draw time.
                if half is None:
                    state = (state * mult + inc) & m128
                    x, rot = ((state >> 64) ^ state) & m64, state >> 122
                    x = ((x >> rot) | (x << (64 - rot))) & m64
                    j, half = x & mask, x >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self._state, self._half = state, half
        return order
