"""Base metrics on feature vectors and their modulus-composed variants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phi import PhiCombination, identity_phi, phi_eval

BASE_METRICS = ("euclidean", "manhattan", "chebyshev")

#: Byte budget of one row block: the (rows, n) scratch arrays that
#: ``pairwise_base`` keeps live while it adds up one feature column at a
#: time; the two that ``CompositionMetric`` allocates once per call, for a
#: block's base distances and one modulus atom's values; or a (rows, n)
#: block of ratios or predictions.  Work done row block by row block has a
#: peak memory of O(TILE_BYTES) on top of its inputs and result.
TILE_BYTES = 2 * 2**20

#: numpy's pairwise summation: fewer than 8 terms are added in sequence, up
#: to this many in 8 strided partial sums, and more are split in two.
_PAIRWISE_BLOCK = 128


def _rows_per_tile(row_bytes: int) -> int:
    return max(1, TILE_BYTES // max(1, row_bytes))


def row_blocks(rows: int, row_bytes: int, align: int = 1):
    """Slices that cover ``range(rows)`` in order, each of as many rows as fit
    in ``TILE_BYTES`` at ``row_bytes`` per row (at least one), rounded down
    to a multiple of ``align`` rows when at least ``align`` fit.

    Zero rows still give one empty slice, so the work on a block, and the
    checks that work makes, run at least once.
    """
    tile = _rows_per_tile(row_bytes)
    if tile >= align:
        tile -= tile % align
    for start in range(0, max(rows, 1), tile):
        yield slice(start, start + tile)


def pairwise_base(kind: str, A, B, out=None) -> np.ndarray:
    """All base distances between rows of A (q, m) and rows of B (n, m).

    Rows of A are taken in ``row_blocks``, and each block of the result is
    filled in place one feature column at a time: column k of B is copied
    into every row of a scratch block and the queries' ``A[:, k]`` is
    subtracted from it in place, and these m differences are squared
    (euclidean) or taken as absolute values (manhattan, chebyshev) and added
    up, or combined by ``np.maximum`` for chebyshev.  b - a is exactly
    -(a - b) in IEEE arithmetic, so the square and the absolute value have
    the bits of those of a - b.  The sums follow the order in which
    ``np.sum(terms, axis=-1)`` adds m contiguous terms, numpy's pairwise
    summation: fewer than 8 terms in sequence; up to 128 in 8 strided
    partial sums r0..r7, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the last m % 8 terms in sequence; more than 128 split at half of
    them rounded down to a multiple of 8, each half summed by the same rule.
    Floating-point addition is not associative, so this order is what gives
    every distance the bits of that one-shot reduction of the (q, n, m)
    difference tensor, which is never built; a maximum is exact in any
    order.  Each distance depends only on its own m terms, so the result
    does not depend on the block size either.  Zero features give zeros.
    ``out``, a (q, n) float array, receives the distances when given.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if kind not in BASE_METRICS:
        raise ValueError(f"unknown base metric {kind!r}; choose from {BASE_METRICS}")
    (q, m), n = A.shape, B.shape[0]
    if out is None:
        out = np.empty((q, n))
    if m == 0:
        out.fill(0.0)
        return out
    BT = np.ascontiguousarray(B.T)
    live = _scratch_count(kind, m)
    work = None
    for rows in row_blocks(q, 8 * n * live):
        block = A[rows]
        if work is None:  # the first block is the largest
            work = np.empty((live, len(block), n))
        scratch = list(work[:, : len(block)])

        def term(k, dst, block=block):
            np.copyto(dst, BT[k])
            np.subtract(dst, block[:, k, None], out=dst)
            if kind == "euclidean":
                return np.multiply(dst, dst, out=dst)
            return np.abs(dst, out=dst)

        dst = out[rows]
        if kind == "chebyshev":
            _fold(term, 0, m, dst, scratch[0], np.maximum)
        else:
            _pairwise_sum(term, 0, m, dst, scratch)
            if kind == "euclidean":
                np.sqrt(dst, out=dst)
    return out


def _split(count: int) -> int:
    """Where numpy's pairwise summation splits more than 128 terms."""
    half = count // 2
    return half - half % 8


def _scratch_count(kind: str, m: int) -> int:
    """The (rows, n) scratch arrays ``pairwise_base`` keeps live at m features
    besides the result block: one for the current term, seven more partial
    sums from 8 terms on, and one held half sum per split level."""
    if kind == "chebyshev" or m < 8:
        return 1
    if m <= _PAIRWISE_BLOCK:
        return 8
    half = _split(m)
    return max(_scratch_count(kind, half), 1 + _scratch_count(kind, m - half))


def _fold(term, lo: int, hi: int, dst, scratch, combine=np.add) -> None:
    """dst = term(lo) combined with term(lo + 1), ..., term(hi - 1) in turn."""
    term(lo, dst)
    for k in range(lo + 1, hi):
        combine(dst, term(k, scratch), out=dst)


def _pairwise_sum(term, lo: int, hi: int, dst, scratch) -> None:
    """dst = the sum of term(lo), ..., term(hi - 1) in numpy's pairwise order.

    ``term(k, buf)`` writes the k-th (rows, n) term into ``buf`` and returns
    it; ``scratch`` holds ``_scratch_count`` free arrays of dst's shape.
    The terms are never negative, so starting from the first term gives the
    bits of numpy's start from 0.
    """
    count = hi - lo
    if count < 8:
        _fold(term, lo, hi, dst, scratch[0])
    elif count <= _PAIRWISE_BLOCK:
        r = [dst, *scratch[1:8]]
        body = hi - count % 8
        for k in range(lo, lo + 8):
            term(k, r[k - lo])
        for k in range(lo + 8, body):
            np.add(r[(k - lo) % 8], term(k, scratch[0]), out=r[(k - lo) % 8])
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            np.add(r[a], r[b], out=r[a])
        for k in range(body, hi):
            np.add(dst, term(k, scratch[0]), out=dst)
    else:
        mid = lo + _split(count)
        _pairwise_sum(term, lo, mid, dst, scratch)
        _pairwise_sum(term, mid, hi, scratch[-1], scratch[:-1])
        np.add(dst, scratch[-1], out=dst)


@dataclass(frozen=True)
class CompositionMetric:
    """A base metric rescaled by a modulus: distance = phi(base(a, b)).

    Stateless and pure; no pairwise matrix is cached here.
    """

    base: str = "euclidean"
    phi: PhiCombination = field(default_factory=identity_phi)

    def __post_init__(self):
        if self.base not in BASE_METRICS:
            raise ValueError(f"unknown base metric {self.base!r}")

    def pairwise(self, A, B) -> np.ndarray:
        """Composed distances between rows of A (q, m) and rows of B (n, m).

        The modulus acts elementwise, so applying it to each row block of
        base distances gives the bits of applying it to all of them at once.
        Each block's base distances go into one scratch array allocated for
        the call, and ``phi_eval`` adds the modulus atom by atom into the
        result in place, with a second one for the atoms' values.
        """
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        out = np.empty((A.shape[0], B.shape[0]))
        for rows, base, atom in _scratch_blocks(A.shape[0], B.shape[0], self.base, A.shape[1]):
            pairwise_base(self.base, A[rows], B, out=base)
            phi_eval(self.phi, base, out=out[rows], scratch=atom)
        return out

    def square(self, X) -> np.ndarray:
        """The (n, n) composed distances among the rows of X, each pair
        computed once: the bits of ``pairwise(X, X)``.

        Each row block is computed against the columns from its first row
        on, and the columns before it are mirrored from the blocks above.
        |a - b| = |b - a| term by term and every entry is summed in one
        fixed order, so an entry and its mirror have the same bits.  The
        scratch arrays are those of ``pairwise``, cut to each block's
        columns.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        out = np.empty((n, n))
        for rows, base, atom in _scratch_blocks(n, n, self.base, X.shape[1], upper=True):
            pairwise_base(self.base, X[rows], X[rows.start:], out=base)
            phi_eval(self.phi, base, out=out[rows, rows.start:], scratch=atom)
            out[rows, : rows.start] = out[: rows.start, rows].T
        return out


def _scratch_blocks(q: int, n: int, kind: str, m: int, upper: bool = False):
    """``row_blocks`` of q rows against n columns, or with ``upper`` against
    the columns from the block's first row on, each with two contiguous
    (rows, columns) arrays cut from one scratch array allocated for the whole
    call: the block's base distances, and the values of one modulus atom at
    a time.  The two together take at most ``TILE_BYTES``.  Each block is a
    whole number of ``pairwise_base``'s own row blocks for ``kind`` and m
    features against n columns, where one of those fits, so that no block
    ends in a short one that pays a full round of ufunc calls."""
    align = _rows_per_tile(8 * n * _scratch_count(kind, m))
    work = None
    for rows in row_blocks(q, 2 * 8 * n, align):
        count, cols = len(range(q)[rows]), n - rows.start if upper else n
        if work is None:  # the first block is the largest
            work = np.empty((2, count * n))
        base, atom = work[:, : count * cols].reshape(2, count, cols)
        yield rows, base, atom
