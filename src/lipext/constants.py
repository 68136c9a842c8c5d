"""Finite-sample constants that control index extension error.

For an indexed sample (points a_i, values I_i) under a composed metric, three
quantities are computed exactly by maximizing over the finite pair set:

* ``K`` (coherence): max |I_i - I_j| / d(a_i, a_j), the smallest Lipschitz
  constant of the index with respect to the composed metric.
* ``Q`` (normalization): max d(a_i, a_j) / (|I_i| + |I_j|), the smallest
  Katetov constant.
* ``C``: max |I_i|, the sup norm of the index.

The approximation error of anchor-based extension is bounded by
(K*Q - 1) * C once the index has been shifted so its minimum is zero.
``constants_report`` therefore gives Q and C of the shifted index next to
the raw ones and takes the bound from those; K is the same for both.
Constants can legitimately be infinite (duplicate points with distinct
values, or zero Katetov denominators on distinct points); infinities are
returned as values rather than raised, so optimizers can penalize them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import CompositionMetric, pairwise_base
from .phi import phi_eval


@dataclass(frozen=True, eq=False)
class IndexedSample:
    """Feature vectors with a known index value per row."""

    points: np.ndarray  # (n, m)
    values: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have the same length")
        if pts.shape[0] < 1:
            raise ValueError("sample must contain at least one row")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(vals)):
            raise ValueError("points and values must be finite")
        pts = pts.copy()
        vals = vals.copy()
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ConstantsReport:
    K: float
    Q: float
    C: float
    Q_shifted: float  # Q of the Katetov-shifted index
    C_shifted: float  # C of the Katetov-shifted index
    bound: float  # (K * Q_shifted - 1) * C_shifted
    k_pair: tuple[int, int] | None
    q_pair: tuple[int, int] | None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        def enc(v):
            return "inf" if math.isinf(v) else v

        return {
            "K": enc(self.K),
            "Q": enc(self.Q),
            "C": self.C,
            "Q_shifted": enc(self.Q_shifted),
            "C_shifted": self.C_shifted,
            "bound": enc(self.bound),
            "k_pair": list(self.k_pair) if self.k_pair is not None else None,
            "q_pair": list(self.q_pair) if self.q_pair is not None else None,
            "notes": list(self.notes),
        }


@functools.lru_cache(maxsize=2)
def condensed_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) positions of the pairs i < j of n rows, in
    lexicographic order.

    The two latest sizes are cached: CV repeats (with their nested alpha
    split) and objective evaluations ask for the same sizes many times.
    ``pair_data``, called once per use, builds its own.
    """
    i_idx, j_idx = np.triu_indices(n, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def pair_data(s: IndexedSample, base: str):
    """Condensed upper-triangle pair data in lexicographic (i, j) order.

    Returns (i_idx, j_idx, base distances, |I_i - I_j|, |I_i| + |I_j|).
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two rows")
    i_idx, j_idx = np.triu_indices(n, k=1)
    d_base = pairwise_base(base, s.points, s.points)[i_idx, j_idx]
    v_i, v_j = s.values[i_idx], s.values[j_idx]
    return i_idx, j_idx, d_base, np.abs(v_i - v_j), np.abs(v_i) + np.abs(v_j)


def ratio_max(num: np.ndarray, den: np.ndarray) -> tuple[float, int | None]:
    """Max of num/den over den > 0; +inf if some den <= 0 has num > 0.

    Returns (value, position of the achieving pair), or (0.0, None) when no
    den is positive.  np.argmax keeps the first occurrence, and the
    condensed order is lexicographic, so ties resolve to the smallest (i, j)
    automatically.  When every den is positive, which is the usual case,
    the ratios take a single division and no masking.
    """
    ok = den > 0.0
    if ok.all():
        ratios = num / den
    else:
        violated = ~ok & (num > 0.0)
        if violated.any():
            return math.inf, int(np.argmax(violated))
        if not ok.any():
            return 0.0, None
        ratios = np.divide(num, den, out=np.full(num.shape, -math.inf), where=ok)
    k = int(np.argmax(ratios))
    return float(ratios[k]), k


def coherence_from_pairs(values: np.ndarray, d_phi: np.ndarray) -> float:
    """Coherence constant of ``values`` given their composed pair distances.

    ``d_phi`` holds the distances of the condensed pairs in ``pair_data``
    order, for example sliced from a distance table built once.
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least two rows")
    i_idx, j_idx = condensed_pairs(n)
    return ratio_max(np.abs(values[i_idx] - values[j_idx]), d_phi)[0]


def coherence_constant(s: IndexedSample, cm: CompositionMetric) -> float:
    """Smallest Lipschitz constant of the index; +inf if not coherent."""
    return coherence_from_pairs(s.values, phi_eval(cm.phi, pair_data(s, cm.base)[2]))


def index_bound(s: IndexedSample) -> float:
    """Sup norm of the index values."""
    return float(np.max(np.abs(s.values)))


def error_bound(K: float, Q: float, C: float) -> float:
    """The worst-case anchor-extension error (K*Q - 1) * C.

    Valid for shifted non-negative indices, where K*Q >= 1 is automatic.
    When K*Q < 1 the formula would go negative, which signals inputs outside
    that regime; the bound degrades to 0 with a warning.
    """
    if not (math.isfinite(K) and math.isfinite(Q) and math.isfinite(C)):
        return math.inf
    kq = K * Q
    if kq < 1.0:
        warnings.warn(
            f"K*Q = {kq} < 1: error bound clamped to 0 (input outside the "
            "shifted-index regime)",
            stacklevel=2,
        )
        return 0.0
    return (kq - 1.0) * C


def katetov_shift(s: IndexedSample) -> IndexedSample:
    """Shift values so the minimum is exactly zero; ordering is preserved."""
    return IndexedSample(s.points, s.values - np.min(s.values))


def constants_report(s: IndexedSample, cm: CompositionMetric) -> ConstantsReport:
    """Compute K, Q, C and the error bound with achieving pairs.

    Reported argmax pairs reproduce the max ratio exactly.  Infinite K or Q
    is flagged in ``notes`` together with the offending pair.  The bound is
    that of the Katetov-shifted index, which the theorem covers: it uses
    the shifted Q and C.  Two distinct rows that tie at the minimum both
    shift to 0, so the shifted Q and the bound are infinite.
    """
    i_idx, j_idx, d_base, d_vals, denom = pair_data(s, cm.base)
    d_phi = phi_eval(cm.phi, d_base)

    def pair(k):
        return None if k is None else (int(i_idx[k]), int(j_idx[k]))

    K, k_at = ratio_max(d_vals, d_phi)
    # Katetov pairs with d_phi == 0 impose no constraint, so only distances
    # over a zero denominator can force Q to infinity.
    Q, q_at = ratio_max(d_phi, denom)
    k_pair, q_pair = pair(k_at), pair(q_at)
    C = index_bound(s)
    shifted = katetov_shift(s).values
    Q_shifted, q_shifted_at = ratio_max(
        d_phi, np.abs(shifted[i_idx]) + np.abs(shifted[j_idx])
    )
    C_shifted = float(np.max(shifted))

    notes = []
    if math.isinf(K):
        notes.append(f"not coherent: rows {k_pair} coincide but carry distinct values")
    if math.isinf(Q):
        notes.append(f"not normalizable: rows {q_pair} are distinct with |I|+|I| = 0")
    if math.isinf(Q_shifted):
        notes.append(
            f"shifted index not normalizable: rows {pair(q_shifted_at)} are "
            "distinct and both attain the minimum"
        )
    bound = error_bound(K, Q_shifted, C_shifted)
    return ConstantsReport(
        K, Q, C, Q_shifted, C_shifted, bound, k_pair, q_pair, tuple(notes)
    )
