"""Base metrics on feature vectors and their modulus-composed variants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phi import PhiCombination, identity_phi, phi_eval

BASE_METRICS = ("euclidean", "manhattan", "chebyshev")


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


def base_distance(kind: str, a, b) -> float:
    """Distance between two feature vectors under the named base metric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_dims(a, b)
    return float(_reduce(kind, a - b))


def pairwise_base(kind: str, A, B) -> np.ndarray:
    """All base distances between rows of A (q, m) and rows of B (n, m)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    _check_dims(A, B)
    return _reduce(kind, A[:, None, :] - B[None, :, :])


def rowwise_base(kind: str, A, B) -> np.ndarray:
    """Base distances between corresponding rows of A and B, both (n, m)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    _check_dims(A, B)
    return _reduce(kind, A - B)


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

    def distance(self, a, b) -> float:
        return float(phi_eval(self.phi, base_distance(self.base, a, b)))

    def pairwise(self, A, B) -> np.ndarray:
        return phi_eval(self.phi, pairwise_base(self.base, A, B))

    def rowwise(self, A, B) -> np.ndarray:
        return phi_eval(self.phi, rowwise_base(self.base, A, B))
