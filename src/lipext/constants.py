"""Finite-sample constants that control index extension error.

For an indexed sample (points a_i, values I_i) under a composed metric, three
quantities are computed exactly by maximizing over the finite pair set:

* ``K`` (coherence): max |I_i - I_j| / d(a_i, a_j), the smallest Lipschitz
  constant of the index with respect to the composed metric.
* ``Q`` (normalization): max d(a_i, a_j) / (|I_i| + |I_j|), the smallest
  Katetov constant.
* ``C``: max |I_i|, the sup norm of the index.

K and Q are maxima of ratios over the pairs, all reduced by ``ratio_max``
under one rule: 0/0 imposes nothing, and x/0 with x > 0, or a ratio beyond
the float range, makes the constant +inf.  Infinities are returned as
values rather than raised, so optimizers can penalize them.

The approximation error of anchor-based extension is bounded by
(K*Q - 1) * C once the index has been shifted so its minimum is zero.
``constants_report`` therefore gives Q and C of the shifted index next to
the raw ones and takes the bound from those; K is the same for both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import CompositionMetric, pairwise_base, row_blocks
from .phi import atom_values, phi_eval


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


#: How far below 1 the product K*Q may round before ``error_bound`` warns.
KQ_ROUNDING_SLACK = 4 * np.finfo(float).eps


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


def pair_data(s: IndexedSample, base: str):
    """Condensed upper-triangle pair data in lexicographic (i, j) order.

    Returns (i_idx, j_idx, base distances, |I_i - I_j|, |I_i| + |I_j|, and
    |I_i| + |I_j| of the Katetov-shifted index).
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two rows")
    i_idx, j_idx = np.triu_indices(n, k=1)
    d_base = pairwise_base(base, s.points, s.points)[i_idx, j_idx]
    v_i, v_j = s.values[i_idx], s.values[j_idx]
    shifted = katetov_shift(s).values  # non-negative, so no abs
    return (
        i_idx, j_idx, d_base, np.abs(v_i - v_j), np.abs(v_i) + np.abs(v_j),
        shifted[i_idx] + shifted[j_idx],
    )


def undominated(base_d: np.ndarray, gain: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Which items to keep so that every item dropped has a kept dominator.

    Each row of ``base_d`` (rows, items) holds the base distances of a
    separate set of items, ``gain`` (broadcastable to its shape) their
    gains and ``atoms`` (atoms, rows, items) their computed atom values.
    Item q dominates item p when each of q's atom values is <= p's and q's
    gain >= p's.  Every atom value and coefficient is >= 0 and IEEE
    rounding is monotone, so q's ``weighted_sum`` is then <= p's for every
    coefficient vector, bit for bit.

    In each row the items are sorted by (base distance ascending, gain
    descending), and an item's candidate dominator is the first item before
    it of the largest gain so far: a running maximum.  An item is dropped
    only when that candidate dominates it in the computed atom values, so
    whether an atom is monotone never matters for correctness, only for how
    many items are dropped.  The candidate always comes earlier in the
    order, so following dominators ends at a kept item, and no item that
    another item does not dominate is ever dropped.  When the atoms grow
    with the base distance, what is kept is the (base distance, gain)
    staircase, which is the exact front up to equal items.
    """
    gain = np.broadcast_to(gain, base_d.shape)
    order = np.lexsort((-gain, base_d))
    g = np.take_along_axis(gain, order, axis=-1)
    best = np.maximum.accumulate(g, axis=-1)
    rises = np.ones(g.shape, dtype=bool)
    rises[:, 1:] = g[:, 1:] > best[:, :-1]
    first = np.maximum.accumulate(np.where(rises, np.arange(g.shape[-1]), 0), axis=-1)
    items, candidates = order[:, 1:], np.take_along_axis(order, first[:, :-1], axis=-1)
    dropped = best[:, :-1] >= g[:, 1:]
    for a in atoms:
        dropped &= np.take_along_axis(a, candidates, -1) <= np.take_along_axis(a, items, -1)
    keep = np.ones(base_d.shape, dtype=bool)
    np.put_along_axis(keep, items, ~dropped, axis=-1)
    return keep


def pair_front(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(atom values (atoms, P), |I_i - I_j| (P,)) of P pairs i < j of ``s``
    that keep, for every coefficient vector, the bits of ``ratio_max`` over
    all pairs of the gaps |I_i - I_j| and the composed distances.

    A pair that another pair dominates (``undominated``, gain |I_i - I_j|)
    has a ratio no larger, or imposes nothing (0/0); the reduction starts
    at 0.0 and a maximum is exact, so dropping it changes no bit.  The
    base distances and gaps are made in ``coherence_constant``'s row
    blocks, from the points, and each block's pairs are merged into the
    pairs kept so far; memory is O(``TILE_BYTES``) on top of the front.
    The base distances are those of ``pairwise_base`` on the whole square
    and the gaps those of ``coherence_constant``, so the atom values have
    the bits a candidate's ``phi_eval`` would start from.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two rows")
    X, v = s.points, s.values
    base_d, gaps = np.empty(0), np.empty(0)
    for block in row_blocks(n, 8 * n * (len(atoms) + 8)):
        upper = ~np.tri(len(range(n)[block]), n - block.start, dtype=bool)  # j > i
        base_d = np.concatenate([base_d, pairwise_base(base, X[block], X[block.start:])[upper]])
        gaps = np.concatenate([gaps, _value_gaps(v, block)[upper]])
        keep = undominated(base_d[None], gaps, atom_values(atoms, base_d)[:, None])[0]
        base_d, gaps = base_d[keep], gaps[keep]
    return atom_values(atoms, base_d), gaps


def ratio_max(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> float:
    """The largest ratio num/den under the module's ratio rule, 0.0 when no
    pair constrains.  ``out`` (a new array when None, and it may be num or
    den) receives the ratios: NaN for 0/0, +inf for x/0 and overflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.divide(num, den, out=out)
    return float(np.fmax.reduce(ratios, axis=None, initial=0.0))


def coherence_constant(
    s: IndexedSample,
    cm: CompositionMetric,
    d: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> float:
    """Smallest Lipschitz constant of the index; +inf if not coherent.

    ``d`` is a symmetric table of composed distances, for example one built
    once for many fits, and ``rows`` the positions of the rows of ``s`` in
    it; the two come together, one without the other raises
    ``ValueError``, and without them the distances are computed from the
    points.  Either way K is reduced in ``row_blocks``, each row i
    against the columns j >= the block's first row: the distances are
    symmetric, so this covers every pair, and only one block of them is
    held at a time.  A block of ``rows`` is gathered with ``take`` on each
    axis, the table is never copied.  Each block's ratios are reduced by
    ``ratio_max``, which gives the same bits on the condensed pairs.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two rows")
    if (d is None) != (rows is None):
        raise ValueError("a distance table d and its rows come together")

    def distances(block: slice) -> np.ndarray:
        if d is None:
            return cm.pairwise(s.points[block], s.points[block.start:])
        return d.take(rows[block], axis=0).take(rows[block.start:], axis=1)

    K = 0.0
    for block in row_blocks(n, 8 * (n if d is None else len(d))):
        dist = distances(block)  # first, so the ratios reuse what its gather frees
        ratios = _value_gaps(s.values, block)
        K = max(K, ratio_max(ratios, dist, ratios))
        del dist, ratios  # before the next block's distances are made
    return K


def _value_gaps(v: np.ndarray, block: slice) -> np.ndarray:
    """|I_i - I_j| of the rows i in ``block`` against the rows j from its
    first on, a new (rows, n - start) array; a gap beyond the float range
    is +inf, which ``ratio_max`` takes as an overflow of the ratio."""
    with np.errstate(over="ignore"):
        gaps = v[block, None] - v[block.start:]
    return np.abs(gaps, out=gaps)


#: How many of a distance table's largest pair ratios ``largest_ratios`` lists.
LISTED_PAIRS = 256


@dataclass(frozen=True, eq=False)
class LargestRatios:
    """The largest ratios |I_i - I_j| / d_ij over the pairs i < j of a
    table of n rows, descending, with their rows; every pair left off has
    a ratio no larger than the smallest listed one, and 0/0 pairs, which
    impose nothing, are never listed."""

    ratios: np.ndarray
    i: np.ndarray
    j: np.ndarray
    n: int

    def coherence(self, rows: np.ndarray) -> float | None:
        """``coherence_constant`` of the table's ``rows``, the first listed
        ratio with both ends among them; None when no listed pair has both.

        Every pair of ``rows`` that is not listed, or listed later, has a
        ratio no larger, and a listed ratio is the division that
        ``coherence_constant`` makes of the same two numbers, so K has its
        bits.
        """
        member = np.zeros(self.n, dtype=bool)
        member[rows] = True
        hit = member[self.i] & member[self.j]
        return float(self.ratios[hit.argmax()]) if hit.any() else None


def largest_ratios(d: np.ndarray, values: np.ndarray) -> LargestRatios:
    """Up to ``LISTED_PAIRS`` largest pair ratios of the rows with index
    ``values`` under the symmetric table ``d`` of their composed distances.

    The table is read in place in ``coherence_constant``'s row blocks, and
    each block's ratios come from ``ratio_max``'s rule.  A running
    ``floor`` bounds every ratio seen and left off.  In a block with more
    than ``LISTED_PAIRS`` ratios above it, the floor first rises to the
    block's ``LISTED_PAIRS``-th largest ratio, which a partition of the
    block's ratios in place finds, and the block's ratios are made again.
    Then the pairs strictly above the floor join the list, which is cut
    back to its ``LISTED_PAIRS`` largest whenever it grows past them, the
    floor rising to the largest ratio cut.  A cut keeps any listed ratio
    tied with that one, and at the end the list drops the ratios below the
    final floor and keeps those equal to it.  So every pair left off is at
    most the floor, and so at most the smallest listed ratio; ties at the
    cutoff can leave the list short, or empty, but never break that.  On
    top of the table this holds one block of ratios and
    O(``LISTED_PAIRS``) for the list.
    """
    n, size = len(values), LISTED_PAIRS

    def block_ratios(block: slice) -> tuple[np.ndarray, float]:
        """The ratios of the rows in ``block`` against the rows j from its
        first on, -inf at j <= i, which is no pair, and their largest."""
        r = _value_gaps(values, block)
        top = ratio_max(r, d[block, block.start:], r)
        np.copyto(r[:, : len(r)], -math.inf, where=np.tri(len(r), dtype=bool))
        return r, top

    ratios, i, j = np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    floor = -math.inf
    for block in row_blocks(n, 8 * n):
        r, top = block_ratios(block)
        if top <= floor:
            continue
        above = r > floor  # never at a 0/0 pair's NaN
        if np.count_nonzero(above) > size:
            flat = np.fmax(r, -math.inf, out=r).ravel()  # NaN as -inf, below every ratio
            flat.partition(flat.size - size)
            floor = float(flat[flat.size - size])
            del r, flat
            r = block_ratios(block)[0]
            np.greater(r, floor, out=above)
        at = np.flatnonzero(above)
        ratios = np.concatenate([ratios, r.ravel()[at]])
        i = np.concatenate([i, at // r.shape[1] + block.start])
        j = np.concatenate([j, at % r.shape[1] + block.start])
        del r, above
        if len(ratios) > size:
            order = np.argsort(ratios)[::-1]
            floor = max(floor, float(ratios[order[size]]))
            ratios, i, j = ratios[order[:size]], i[order[:size]], j[order[:size]]
    keep = ratios >= floor
    order = np.argsort(ratios[keep])[::-1]
    return LargestRatios(ratios[keep][order], i[keep][order], j[keep][order], n)


def index_bound(s: IndexedSample) -> float:
    """Sup norm of the index values."""
    return float(np.max(np.abs(s.values)))


def error_bound(K: float, Q: float, C: float) -> float:
    """The worst-case anchor-extension error (K*Q - 1) * C.

    Valid for shifted non-negative indices, where K*Q >= 1 is automatic.
    When K*Q < 1 the formula would go negative and the bound degrades to 0.
    A product more than KQ_ROUNDING_SLACK below 1 signals inputs outside
    that regime and warns; one within it is a product of exactly 1 that
    rounded down, and does not.
    """
    if not (math.isfinite(K) and math.isfinite(Q) and math.isfinite(C)):
        return math.inf
    kq = K * Q
    if kq < 1.0:
        if kq < 1.0 - KQ_ROUNDING_SLACK:
            warnings.warn(
                f"K*Q = {kq} < 1: error bound clamped to 0 (input outside the "
                "shifted-index regime)",
                stacklevel=2,
            )
        return 0.0
    return (kq - 1.0) * C


def katetov_shift(s: IndexedSample) -> IndexedSample:
    """Shift values so the minimum is exactly zero; ordering is preserved.

    Raises ``ValueError`` when the range of the values exceeds the float
    range, so that the shifted maximum would be infinite.
    """
    lo, hi = float(np.min(s.values)), float(np.max(s.values))
    if math.isinf(hi - lo):
        raise ValueError(
            f"the index range [{lo!r}, {hi!r}] exceeds the float range when shifted to minimum 0"
        )
    return IndexedSample(s.points, s.values - lo)


def constants_report(s: IndexedSample, cm: CompositionMetric) -> ConstantsReport:
    """Compute K, Q, C and the error bound with achieving pairs.

    A reported pair is the first that attains the constant, None when no
    pair constrains it; an infinite K or Q is flagged in ``notes`` with the
    first pair at a zero denominator, else the first beyond the float range.
    A zero distance under K is named as coinciding rows only when their
    points are equal: a modulus may round a positive distance to 0.
    The bound is that of the Katetov-shifted index, which the theorem
    covers: it uses the shifted Q and C.  Two distinct rows that tie at the
    minimum both shift to 0, so the shifted Q and the bound are infinite.
    """
    i_idx, j_idx, d_base, d_vals, denom, denom_shifted = pair_data(s, cm.base)
    d_phi = phi_eval(cm.phi, d_base)
    ratios = np.empty_like(d_phi)
    notes = []

    def constant(num, den, what, zero_den):
        """(max ratio of num/den, its pair), noting an infinite maximum."""
        value = ratio_max(num, den, ratios)
        at = ratios == value
        if value == math.inf and (at & (den == 0.0)).any():
            at &= den == 0.0  # a zero denominator before an overflow
        k = int(at.argmax())
        if not at[k]:
            return value, None
        pair = (int(i_idx[k]), int(j_idx[k]))
        if value == math.inf:
            if den[k] != 0.0:
                why = "have a ratio beyond the float range"
            elif den is d_phi and not np.array_equal(s.points[pair[0]], s.points[pair[1]]):
                why = "are distinct but their composed distance rounds to 0"
            else:
                why = zero_den
            notes.append(f"{what}: rows {pair} {why}")
        return value, pair

    K, k_pair = constant(d_vals, d_phi, "not coherent", "coincide but carry distinct values")
    # Katetov pairs with d_phi == 0 impose no constraint, so only distances
    # over a zero denominator can force Q to infinity.
    Q, q_pair = constant(d_phi, denom, "not normalizable", "are distinct with |I|+|I| = 0")
    Q_shifted = constant(d_phi, denom_shifted, "shifted index not normalizable",
                         "are distinct and both attain the minimum")[0]
    C = index_bound(s)
    # max(I - min I) rounds like max(I) - min(I): subtraction is monotone.
    C_shifted = float(np.max(s.values) - np.min(s.values))
    bound = error_bound(K, Q_shifted, C_shifted)
    return ConstantsReport(
        K, Q, C, Q_shifted, C_shifted, bound, k_pair, q_pair, tuple(notes)
    )
