"""numpy's ``default_rng(seed)`` streams, reproduced in lipext.

Every random number of lipext is drawn here, bit for bit as numpy draws
it: the random splits (``permutation_tail``) and the particle swarm's
uniforms (``UniformStream``).  So no command imports ``numpy.random``,
whose ``bit_generator`` loads ``secrets``, ``hmac`` and OpenSSL's
``_hashlib`` (about 6 MiB of RSS and 10 ms), and a numpy upgrade cannot
change the draws.  The chain is numpy's:

* ``SeedSequence(seed)``: the seed's 32-bit words, least significant
  first, hash-mixed into a pool of four words, from which eight output
  words are hashed and paired into four 64-bit ones;
* ``PCG64``: a 128-bit LCG seeded with state = words 0-1 and increment
  = words 2-3 (O'Neill 2014), whose 64-bit XSL-RR outputs numpy serves
  as 32-bit halves, low half first, to the shuffle, and whole to the
  doubles;
* ``Generator.shuffle``: the Fisher-Yates shuffle from i = n - 1 down
  to 1 (Durstenfeld 1964), j drawn by masked rejection: the next 32-bit
  half masked to the smallest all-ones mask >= i, redrawn while > i;
* ``Generator.random``: each double is (output >> 11) * 2**-53.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

#: PCG's default 128-bit LCG multiplier.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

#: ``UniformStream`` makes its doubles _ROOT**2 at a time: 4,096 draws keep
#: each temporary of the limb arithmetic at 32 KiB.
_ROOT = 64


def _seed_words(seed: int) -> list[int]:
    """The 32-bit words of a non-negative integer seed, least significant
    first; a negative one raises ``ValueError``, as ``SeedSequence`` does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _pool(words: list[int]) -> list[int]:
    """``SeedSequence.mix_entropy``: the pool of four words mixed from the
    seed's words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """(state, increment) of ``PCG64(seed)`` as numpy seeds it: the four
    64-bit words of ``generate_state(4, np.uint64)`` as the 128-bit seed and
    sequence, high word first, then ``pcg64_srandom_r``."""
    pool, hash_const, out = _pool(_seed_words(seed)), _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> _XSHIFT)
    w = [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]
    initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
    # From state 0: one step, which gives inc, then the seed added, then a step.
    inc = (initseq << 1 | 1) & _MASK128
    state = (inc + initstate) & _MASK128
    return (state * _MULTIPLIER + inc) & _MASK128, inc


def permutation_tail(n: int, k: int, seed: int) -> list[int]:
    """``np.random.default_rng(seed).permutation(n)[k:]``, for 1 <= k < n.

    The shuffle's steps i < k permute positions below k only, so the steps
    i >= k alone fix positions k..n - 1, and only they are made.  numpy
    draws 64-bit words for i > 2**32 - 1, which no list of rows reaches:
    an n above 2**32 raises ``ValueError``, and so does a negative seed.
    """
    if n - 1 > _MASK32:
        raise ValueError(f"a split draws from at most 2**32 rows, not {n}")
    state, inc = _pcg64_seed(seed)
    perm, half = list(range(n)), None  # half: the buffered high 32 bits
    for i in range(n - 1, k - 1, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if half is None:
                state = (state * _MULTIPLIER + inc) & _MASK128
                word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
                word = (word >> rot | word << (-rot & 63)) & _MASK64
                j, half = word & mask, word >> 32
            else:
                j, half = half & mask, None
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm[k:]


def _jumps(a: int, c: int, count: int) -> list[tuple[int, int]]:
    """t = 0..count - 1 steps of s -> a * s + c mod 2**128, each as the
    (a_t, c_t) of the one step s -> a_t * s + c_t that they make."""
    jumps, a_t, c_t = [], 1, 0
    for _ in range(count):
        jumps.append((a_t, c_t))
        a_t, c_t = a_t * a & _MASK128, (c_t * a + c) & _MASK128
    return jumps


def _limbs(values) -> np.ndarray:
    """The high and low 64 bits of 128-bit integers: a (2, n) uint64 array."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=np.uint64)


def _mul_add(x, y, z):
    """x * y + z mod 2**128 for (high, low) uint64 limbs, broadcast.

    The low limbs' full product takes four products of their 32-bit halves.
    """
    (x_hi, x_lo), (y_hi, y_lo), (z_hi, z_lo) = x, y, z
    x0, x1, y0, y1 = x_lo & _MASK32, x_lo >> 32, y_lo & _MASK32, y_lo >> 32
    cross0, cross1 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    lo = x_lo * y_lo + z_lo
    hi = x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    hi += x_hi * y_lo + x_lo * y_hi + z_hi + (lo < z_lo)  # lo < z_lo: the carry
    return hi, lo


class UniformStream:
    """``np.random.default_rng(seed).random``: the stream of doubles in [0, 1).

    ``random(count)`` returns the stream's next ``count`` doubles, so any
    split of a total count across calls draws the bits of one
    ``default_rng(seed).random(total)``.  A negative seed raises
    ``ValueError``, as numpy does.

    The doubles are made _ROOT**2 at a time, and only the current chunk is
    held, whatever the total.  t steps of the LCG map a state s to
    a**t * s + c_t, with c_t = inc * (a**(t-1) + ... + a + 1), so a chunk's
    states are a**t * s + c_t for t = 1.._ROOT**2 and the state s before
    it, all at once on uint64 limbs.  The tables of a**t and c_t are made
    once: t = r * _ROOT + j is the jump of j <= _ROOT steps after that of
    r * _ROOT, each stepped in Python integers.
    """

    def __init__(self, seed: int):
        state, inc = _pcg64_seed(seed)
        # The state is held as 1-element arrays, not numpy scalars: numpy 1.x
        # turns a uint64 scalar and a Python int into float64, so the limb
        # arithmetic's masks and shifts would raise on it.
        self._state = tuple(_limbs([state]))
        steps = _jumps(_MULTIPLIER, inc, _ROOT + 1)
        col_a, col_c = (_limbs(column)[:, None, :] for column in zip(*steps[1:]))
        row_a, row_c = (_limbs(row)[:, :, None] for row in zip(*_jumps(*steps[_ROOT], _ROOT)))
        zero = tuple(_limbs([0]))
        self._a = tuple(limb.ravel() for limb in _mul_add(col_a, row_a, zero))
        self._c = tuple(limb.ravel() for limb in _mul_add(col_a, row_c, col_c))
        self._chunk, self._used = np.empty(0), 0

    def _next_chunk(self) -> np.ndarray:
        hi, lo = _mul_add(self._a, self._state, self._c)
        self._state = hi[-1:], lo[-1:]
        # XSL-RR: the halves xored, rotated right by the state's top 6 bits.
        word, rot = hi ^ lo, hi >> 58
        word = word >> rot | word << ((64 - rot) & 63)
        return (word >> 11) * 2.0**-53

    def random(self, count: int) -> np.ndarray:
        """The stream's next ``count`` doubles, a new 1-D array."""
        parts = []
        while count > 0:
            if self._used == len(self._chunk):
                self._chunk, self._used = self._next_chunk(), 0
            part = self._chunk[self._used:self._used + count]
            self._used += len(part)
            count -= len(part)
            parts.append(part)
        return np.concatenate(parts) if parts else np.empty(0)
