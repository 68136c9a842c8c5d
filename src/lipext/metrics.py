"""Base metrics on feature vectors and their modulus-composed variants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phi import PhiCombination, identity_phi, phi_eval

BASE_METRICS = ("euclidean", "manhattan", "chebyshev")

#: Byte budget of the (rows, n, m) difference tensor that ``pairwise_base``
#: builds per row block, so its peak memory is O(tile * n * m + q * n).
TILE_BYTES = 2 * 2**20


def pairwise_base(kind: str, A, B) -> np.ndarray:
    """All base distances between rows of A (q, m) and rows of B (n, m).

    Rows of A are taken in blocks of at most ``TILE_BYTES`` of differences.
    Each distance is still one reduction over its own m differences, so the
    result does not depend on the block size.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    q, n = A.shape[0], B.shape[0]
    tile = max(1, TILE_BYTES // max(1, 8 * n * A.shape[1]))
    out = np.empty((q, n))
    # An empty A still makes one (empty) block, so ``kind`` is always checked.
    for start in range(0, max(q, 1), tile):
        block = A[start:start + tile]
        out[start:start + tile] = _reduce(kind, block[:, None, :] - B[None, :, :])
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
        return phi_eval(self.phi, pairwise_base(self.base, A, B))
