"""Base metrics on feature vectors and their modulus-composed variants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phi import PhiCombination, identity_phi, phi_eval

BASE_METRICS = ("euclidean", "manhattan", "chebyshev")

#: Byte budget of one row block: the (rows, n, m) difference tensor of
#: ``pairwise_base``, or a (rows, n) block of composed distances, ratios or
#: predictions.  Work done row block by row block has a peak memory of
#: O(TILE_BYTES) on top of its inputs and result.
TILE_BYTES = 2 * 2**20


def row_blocks(rows: int, row_bytes: int):
    """Slices that cover ``range(rows)`` in order, each of as many rows as fit
    in ``TILE_BYTES`` at ``row_bytes`` per row (at least one).

    Zero rows still give one empty slice, so the work on a block, and the
    checks that work makes, run at least once.
    """
    tile = max(1, TILE_BYTES // max(1, row_bytes))
    for start in range(0, max(rows, 1), tile):
        yield slice(start, start + tile)


def pairwise_base(kind: str, A, B) -> np.ndarray:
    """All base distances between rows of A (q, m) and rows of B (n, m).

    Rows of A are taken in ``row_blocks`` of their differences.  Each
    distance is still one reduction over its own m differences, so the
    result does not depend on the block size.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    out = np.empty((A.shape[0], B.shape[0]))
    for rows in row_blocks(A.shape[0], 8 * B.shape[0] * A.shape[1]):
        out[rows] = _reduce(kind, A[rows, None, :] - B[None, :, :])
    return out


def _reduce(kind: str, diff: np.ndarray) -> np.ndarray:
    if kind == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if kind == "manhattan":
        return np.sum(np.abs(diff), axis=-1)
    if kind == "chebyshev":
        return np.max(np.abs(diff), axis=-1)
    raise ValueError(f"unknown base metric {kind!r}; choose from {BASE_METRICS}")


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
        """
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        out = np.empty((A.shape[0], B.shape[0]))
        for rows in row_blocks(A.shape[0], 8 * B.shape[0]):
            out[rows] = phi_eval(self.phi, pairwise_base(self.base, A[rows], B))
        return out
