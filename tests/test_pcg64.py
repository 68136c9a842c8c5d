"""lipext's draws against numpy's ``default_rng(seed)`` streams.

lipext draws its random splits and the swarm's uniforms itself
(``lipext.pcg64``), and these tests pin them to numpy's streams.  The
splits against ``permutation``: every seed cv and its nested splits use
by default, multi-word seeds, every size from 2 to 2,000 rows and every
train fraction that leaves both sides non-empty.  The uniforms against
``random``: the same seeds, counts on each side of the chunk boundaries,
the swarm's totals, and counts split across calls.  The literals pin
both to fixed values as well, so a change in numpy's streams fails the
numpy comparisons alone, not the literals.
"""

import tracemalloc

import numpy as np
import pytest

from lipext.pcg64 import _ROOT, UniformStream, permutation_tail
from lipext.pipeline import _INNER_SPLIT_OFFSET, _split_rows, _train_size

SEEDS = [*range(200), *(s + _INNER_SPLIT_OFFSET for s in range(200)),
         2**32, 2**64 + 3, 2**130 + 11]


def assert_numpys_split(n, k, seed):
    fraction = k / n
    assert _train_size(n, fraction) == k
    train, test = _split_rows(n, fraction, seed, "random")
    perm = np.random.default_rng(seed).permutation(n)
    assert train.dtype == test.dtype == np.intp
    assert np.array_equal(train, np.sort(perm[:k]))
    assert np.array_equal(test, np.sort(perm[k:]))


def test_every_seed_splits_as_numpy():
    # cv-blend's 1,200 indexed rows at 840, and small sizes at every k.
    for seed in SEEDS:
        for n, k in ((2, 1), (3, 1), (3, 2), (10, 7), (1200, 840)):
            assert_numpys_split(n, k, seed)


def test_every_size_from_2_to_2000_splits_as_numpy():
    # The default fraction, and the whole shuffle down to position 1.
    for n in range(2, 2001):
        seed = SEEDS[n % len(SEEDS)]
        assert_numpys_split(n, _train_size(n, 0.7), seed)
        assert permutation_tail(n, 1, seed) == np.random.default_rng(seed).permutation(n)[1:].tolist()


@pytest.mark.parametrize("seed", [0, 1, _INNER_SPLIT_OFFSET, 2**64 + 3])
def test_every_train_fraction_splits_as_numpy(seed):
    for n in range(2, 41):
        for k in range(1, n):
            assert_numpys_split(n, k, seed)
    if seed == 0:
        for k in range(1, 2000):
            assert_numpys_split(2000, k, seed)


@pytest.mark.parametrize("n, fraction, seed, train, test", [
    (10, 0.7, 0, [2, 3, 4, 5, 6, 7, 9], [0, 1, 8]),
    (7, 0.7, 3 + _INNER_SPLIT_OFFSET, [1, 2, 3, 4, 5], [0, 6]),
    (12, 0.5, 2**64 + 3, [3, 4, 6, 8, 9, 11], [0, 1, 2, 5, 7, 10]),
    (6, 0.7, 2**130 + 11, [1, 2, 3, 4], [0, 5]),
])
def test_literal_splits(n, fraction, seed, train, test):
    got = _split_rows(n, fraction, seed, "random")
    assert (got[0].tolist(), got[1].tolist()) == (train, test)


def test_whole_literal_shuffle():
    assert permutation_tail(10, 1, 0) == [6, 2, 7, 3, 5, 9, 0, 8, 1]


def test_a_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _split_rows(10, 0.7, -1, "random")


def test_sizes_numpy_draws_64_bit_words_for_are_refused():
    # numpy draws 64-bit words at i > 2**32 - 1; the check comes before
    # any list of rows is made.
    with pytest.raises(ValueError, match="at most 2\\*\\*32 rows"):
        permutation_tail(2**32 + 1, 2**32, 0)


CHUNK = _ROOT**2
# Each side of the first three chunk boundaries, the smoke swarm's draws
# (6 particles, 5 atoms, 5 iterations) and the default swarm's over four
# atoms (40 particles, 200 iterations).
COUNTS = [0, 1, *(b + d for b in (CHUNK, 2 * CHUNK, 3 * CHUNK) for d in (-1, 0, 1)),
          6 * 5 * 11, 40 * 4 * 401]


def assert_numpys_uniforms(seed, counts):
    stream, total = UniformStream(seed), sum(counts)
    drawn = [stream.random(count) for count in counts]
    assert all(d.dtype == np.float64 and d.shape == (c,) for d, c in zip(drawn, counts))
    want = np.random.default_rng(seed).random(total)
    assert np.concatenate([np.empty(0), *drawn]).tobytes() == want.tobytes()


def test_every_seed_draws_numpys_uniforms():
    for seed in [*range(200), 2**32, 2**64 + 3, 2**130 + 11]:
        assert_numpys_uniforms(seed, [1, CHUNK])  # across the first boundary


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3, 2**130 + 11])
@pytest.mark.parametrize("count", COUNTS)
def test_every_count_draws_numpys_uniforms(seed, count):
    assert_numpys_uniforms(seed, [count])


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_uniforms_split_across_calls_draw_numpys_stream(seed):
    # The swarm's calls, calls that end on and straddle chunk boundaries,
    # empty calls and a call longer than two chunks.
    assert_numpys_uniforms(seed, [6 * 5] * 11)
    assert_numpys_uniforms(seed, [40 * 4] * 401)
    assert_numpys_uniforms(seed, [CHUNK - 1, 0, 1, 1, CHUNK - 2, 0, 2 * CHUNK + 3, 5])
    rng = np.random.default_rng(seed)
    assert_numpys_uniforms(seed, rng.integers(0, 3 * _ROOT, size=200).tolist())


def test_literal_uniforms():
    got = UniformStream(0).random(CHUNK + 1)
    assert got[[0, 1, CHUNK - 1, CHUNK]].tolist() == [
        0.6369616873214543, 0.2697867137638703, 0.3318236092050132, 0.17840288412338923]


def test_the_stream_holds_one_chunk_whatever_it_draws():
    # 100 chunks' worth (3.1 MiB of doubles) drawn 160 at a time, as the
    # default swarm draws them over four atoms; measured 0.48 MiB.
    tracemalloc.start()
    try:
        stream = UniformStream(3)
        for _ in range(100 * CHUNK // 160):
            stream.random(160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_limb_arithmetic_sees_arrays_only(monkeypatch):
    # numpy 1.x turns a uint64 scalar and a Python int into float64, on
    # which the limbs' masks and shifts raise; a uint64 array and a Python
    # int stay uint64 under numpy 1.x and 2.x alike.
    from lipext import pcg64

    mul_add = pcg64._mul_add

    def arrays_only(*operands):
        assert all(isinstance(limb, np.ndarray) for limbs in operands for limb in limbs)
        return mul_add(*operands)

    monkeypatch.setattr(pcg64, "_mul_add", arrays_only)
    assert_numpys_uniforms(5, [1, CHUNK])


def test_a_negative_seed_stream_raises_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        UniformStream(-1)
