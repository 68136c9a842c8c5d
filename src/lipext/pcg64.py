"""numpy's ``default_rng(seed).permutation(n)``, reproduced in Python.

Every random split of lipext is drawn here, bit for bit as numpy draws
it, so the splitting commands never import ``numpy.random``, whose
``bit_generator`` loads ``secrets``, ``hmac`` and OpenSSL's ``_hashlib``
(about 6 MiB of RSS and 10 ms), and a numpy upgrade cannot change them.
The chain is numpy's:

* ``SeedSequence(seed)``: the seed's 32-bit words, least significant
  first, hash-mixed into a pool of four words, from which eight output
  words are hashed and paired into four 64-bit ones;
* ``PCG64``: a 128-bit LCG seeded with state = words 0-1 and increment
  = words 2-3 (O'Neill 2014), whose 64-bit XSL-RR outputs numpy serves
  as 32-bit halves, low half first;
* ``Generator.shuffle``: the Fisher-Yates shuffle from i = n - 1 down
  to 1 (Durstenfeld 1964), j drawn by masked rejection: the next 32-bit
  half masked to the smallest all-ones mask >= i, redrawn while > i.
"""

from __future__ import annotations

import operator

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
