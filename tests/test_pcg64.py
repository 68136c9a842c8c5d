"""The random split draw against numpy's ``default_rng(seed).permutation``.

lipext draws its random splits itself (``lipext.pcg64``), and these tests
pin that draw to numpy's stream: every seed cv and its nested splits use
by default, multi-word seeds, every size from 2 to 2,000 rows and every
train fraction that leaves both sides non-empty.  The literal splits pin
it to fixed values as well, so a change in numpy's stream fails the numpy
comparisons alone, not the literals.
"""

import numpy as np
import pytest

from lipext.pcg64 import permutation_tail
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
