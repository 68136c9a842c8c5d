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
values rather than raised, so optimizers can penalize them.  Every scan
over a sample's pairs, the list of their largest ratios
(``largest_ratios``) included, reads them from the points, a block of rows
at a time (``pair_blocks``), so it holds O(``TILE_BYTES``) of them at once.

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

from .metrics import CompositionMetric, base_scratch_size, pairwise_base, row_blocks
from .phi import ATOM_FUNCS, phi_eval


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


def pair_blocks(s: IndexedSample, base: str, row_bytes: int, spare: int = 0):
    """The pairs i < j of ``s``, a block of rows at a time: (rows, upper, d,
    work) for each of the ``row_blocks`` of rows 0 to n - 2 at ``row_bytes``
    per row.  ``d`` holds the base distances of the rows i in the slice
    ``rows`` against the columns j from its first row on, with the bits of
    ``pairwise_base`` on the whole square, and ``upper`` marks the pairs
    j > i: flat position k is the pair (rows.start + k // width, rows.start
    + k % width), so they come in lexicographic order.  The other entries
    are the diagonal, at distance 0, and the mirrors of the block's pairs.

    Every ``d`` is cut from one scratch array allocated for the call, and
    ``pairwise_base``'s partial sums from another, ``work``, a flat array of
    at least ``spare`` times d's size, which the reader may cut its own
    arrays of the block from once it has d.  The next block overwrites
    both: a reader keeps what it needs of a block before it asks for the
    next.
    """
    n = len(s)
    if n < 2:
        raise ValueError("need at least two rows")
    block_d = work = None
    for block in row_blocks(n - 1, row_bytes):
        rows = slice(block.start, min(block.stop, n - 1))
        shape = (rows.stop - rows.start, n - rows.start)
        size = shape[0] * shape[1]
        if work is None:  # the first block is the largest
            block_d = np.empty(size)
            work = np.empty(max(spare * size, base_scratch_size(base, s.points.shape[1], *shape)))
        d = block_d[:size].reshape(shape)
        pairwise_base(base, s.points[rows], s.points[rows.start:], out=d, scratch=work)
        yield rows, np.less.outer(np.arange(shape[0]), np.arange(shape[1])), d, work


def pair_gaps(values: np.ndarray, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """|I_i - I_j| of the rows i in ``rows``, laid out as a block of
    ``pair_blocks``, in ``out`` when given, else in a new array; a gap
    beyond the float range is +inf, which ``ratio_max`` takes as an
    overflow of the ratio."""
    with np.errstate(over="ignore"):
        gaps = np.subtract(values[rows, None], values[rows.start:], out=out)
    return np.abs(gaps, out=gaps)


def pair_sums(values: np.ndarray, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """|I_i| + |I_j| laid out as ``pair_gaps``; a sum beyond the float range is +inf."""
    size = np.abs(values)
    with np.errstate(over="ignore"):
        return np.add(size[rows, None], size[rows.start:], out=out)


def undominated(base_d: np.ndarray, gain: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Which items to keep so that every item dropped has a kept dominator.

    Each row of ``base_d`` (rows, items) holds the base distances of a
    separate set of items, ``gain`` (broadcastable to its shape) their
    gains and ``atoms`` (atoms, rows, items) their computed atom values.
    Item q dominates item p when each of q's atom values is <= p's and q's
    gain >= p's.  Every atom value and coefficient is >= 0 and IEEE
    rounding is monotone, so q's ``weighted_sum`` is then <= p's for every
    coefficient vector, bit for bit; where q's is NaN, a zero coefficient
    times an infinite atom value, p's atom value is infinite too.

    The items of each row are sorted by (base distance ascending, gain
    descending) and go through ``_drop``.  When the atoms grow with the
    base distance, what is kept is the (base distance, gain) staircase,
    which is the exact front up to equal items.
    """
    gain = np.broadcast_to(gain, base_d.shape)
    order = np.lexsort((-gain, base_d))
    # Flat positions, so that each array is gathered with one index array.
    flat = order + base_d.shape[-1] * np.arange(len(base_d))[:, None]
    keep = np.empty(base_d.shape, dtype=bool)
    keep.reshape(-1)[flat] = _drop(gain.reshape(-1)[flat],
                                   np.take(atoms.reshape(len(atoms), -1), flat, axis=1))
    return keep


def _drop(gain: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """``undominated``'s keep mask of items that the caller has put in
    order: ``gain`` (rows, items) and ``atoms`` (atoms, rows, items) hold
    them in it, and so does the mask.

    An item's candidate dominator is the first item before it in the order
    of the largest gain so far: a running maximum.  An item is dropped
    only when that candidate dominates it in the computed atom values, so
    neither the order nor whether an atom is monotone ever matters for
    correctness, only for how many items are dropped.  The candidate
    always comes earlier in the order, so following dominators ends at a
    kept item, and no item that another item does not dominate is ever
    dropped.
    """
    best = np.fmax.accumulate(gain, axis=-1)
    rises = np.ones(gain.shape, dtype=bool)
    rises[:, 1:] = gain[:, 1:] > best[:, :-1]
    # The flat position of each item's candidate: the last rise before it.
    # Every row starts with one, so no run crosses rows, and the positions
    # never fall along a row, so gathering by them reads forwards.
    at = np.flatnonzero(rises)
    candidates = np.repeat(at, np.diff(at, append=rises.size)).reshape(gain.shape)[:, :-1]
    dropped = best[:, :-1] >= gain[:, 1:]
    for a in atoms:
        dropped &= a.reshape(-1)[candidates] <= a[:, 1:]
    keep = np.ones(gain.shape, dtype=bool)
    keep[:, 1:] = ~dropped
    return keep


def pair_front(
    s: IndexedSample, base: str, atoms: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The K and Q fronts of the pairs i < j of ``s``: (atom values (atoms,
    P), gaps |I_i - I_j| (P,), atom values (atoms, R), sums |I_i| + |I_j|
    (R,)) of P and R pairs that keep, for every coefficient vector, the
    bits of ``ratio_max`` over all pairs of the gaps over the composed
    distances (K) and of the composed distances over the sums (Q).  The
    sums are those of the index shifted to minimum 0, which
    ``constants_report`` takes for the shifted Q; where that shift
    overflows, which ``katetov_shift`` raises on, they are +inf.

    A pair that another dominates for K (``undominated``, with the gap as
    the gain) has a ratio no larger, or imposes nothing (0/0).  For Q the
    rule is ``undominated(-d, -sums, -atoms)``: a dominator's composed
    distance is no smaller for every coefficient vector and its sum no
    larger.  That fails only where a dominator's composed distance is NaN,
    a zero coefficient times an infinite atom value that a base distance
    beyond the float range makes, so the pairs with an atom value that is
    not finite join the Q front whole and dominate none.  The reductions
    start at 0.0 and a maximum is exact, so dropping dominated pairs
    changes no bit.

    Both fronts are built in one pass over ``pair_blocks``, and each
    block's base distances, gaps, sums and atom values are cut from its
    ``work``.  A pre-pass sends a block's pairs through ``_drop`` in the
    order of their base distances alone, which one ``np.argsort`` gives,
    ascending for K and descending for Q, with their atom values gathered
    once in that order for both; only the pairs it keeps, with the front
    so far, reach the exact ``undominated``.  The Q front is kept negated,
    so one rule serves both.  Memory is O(``TILE_BYTES``) on top of the
    fronts.  The base distances are those of ``pairwise_base`` on the
    whole square and the gaps and sums those of ``pair_gaps`` and
    ``pair_sums``, so the atom values have the bits a candidate's
    ``phi_eval`` would start from.
    """
    return _fronts(s, base, atoms, True)


def k_front(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``pair_front``'s K front alone, (atom values, gaps), without the
    work of the Q front."""
    return _fronts(s, base, atoms, False)


def _fronts(s: IndexedSample, base: str, atoms: tuple[str, ...], q: bool):
    """``pair_front``'s fronts, the Q front only when ``q``."""
    n, v, na = len(s), s.values, len(atoms)
    width = na + 2 + q  # base distance, gap, the sum when ``q``, atom values
    with np.errstate(over="ignore"):
        shifted = v - v.min()  # ``katetov_shift``'s values
    empty = (np.empty(0), np.empty(0), np.empty((na, 0)))
    fronts = [empty, empty]  # (base distances, gains, atom values) of K, and of Q negated
    loose = []  # the pairs with an atom value that is not finite, (width, pairs) each
    # ``work`` takes the block's pairs, width floats each, their atom values
    # in base-distance order, then one block of gaps or sums.
    for rows, upper, d, work in pair_blocks(s, base, 8 * n * (na + 8), spare=width + na + 1):
        mask, count = upper.ravel(), np.count_nonzero(upper)
        pairs = work[: width * count].reshape(width, count)
        ranked = work[width * count: (width + na) * count].reshape(na, count)
        block = work[(width + na) * count: (width + na) * count + d.size].reshape(d.shape)
        base_d, gaps, values = pairs[0], pairs[1], pairs[width - na:]
        np.compress(mask, d.ravel(), out=base_d)
        np.compress(mask, pair_gaps(v, rows, block).ravel(), out=gaps)
        for a, out in zip(atoms, values):  # the identity returns its input
            np.copyto(out, ATOM_FUNCS[a](base_d, out=out))
        order = np.argsort(base_d)
        np.take(values, order, axis=1, out=ranked)
        fronts[0] = _merge(fronts[0], order, ranked, base_d, gaps, values)
        if not q:
            continue
        sums = pairs[2]
        np.compress(mask, pair_sums(shifted, rows, block).ravel(), out=sums)
        finite = np.isfinite(ranked).all(axis=0)
        if not finite.all():
            loose.append(pairs[:, order[~finite]])
            order, ranked = order[finite], ranked[:, finite]
        np.negative(pairs, out=pairs)
        np.negative(ranked, out=ranked)
        fronts[1] = _merge(fronts[1], order[::-1], ranked[:, ::-1], base_d, sums, values)
    (_, gaps, k_atoms), (_, sums, q_atoms) = fronts
    if not q:
        return k_atoms, gaps
    q_front = np.concatenate([-np.stack([sums, *q_atoms]), *(p[2:] for p in loose)], axis=1)
    return k_atoms, gaps, q_front[1:], q_front[0]


def _merge(front, order: np.ndarray, ranked: np.ndarray, base_d: np.ndarray, gain: np.ndarray,
           atoms: np.ndarray):
    """The (base distances, gains, atom values) ``front`` merged with a
    block's items: those that ``_drop`` keeps taken in ``order``, in which
    ``ranked`` holds their atom values, join the front in their own order,
    and ``undominated`` keeps the front of them all."""
    keep = np.sort(order[_drop(gain[order][None], ranked[:, None])[0]])
    base_d, gain, atoms = (np.concatenate([f, x[..., keep]], axis=-1)
                           for f, x in zip(front, (base_d, gain, atoms)))
    keep = undominated(base_d[None], gain, atoms[:, None])[0]
    return base_d[keep], gain[keep], atoms[:, keep]


def ratio_max(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> float:
    """The largest ratio num/den under the module's ratio rule, 0.0 when no
    pair constrains.  ``out`` (a new array when None, and it may be num or
    den) receives the ratios: NaN for 0/0, +inf for x/0 and overflows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.divide(num, den, out=out)
    return float(np.fmax.reduce(ratios, axis=None, initial=0.0))


def coherence_constant(s: IndexedSample, cm: CompositionMetric) -> float:
    """Smallest Lipschitz constant of the index; +inf if not coherent.

    K is reduced by ``ratio_max`` over each whole block of ``pair_blocks``:
    the entries off its pairs are 0/0 or a mirror of a pair, and a maximum
    is exact, so the blocks give the bits of one reduction over the pairs.
    A block's composed distances and its gaps, then ratios, are cut from
    the ``work`` of ``pair_blocks``, so the call allocates nothing a block.
    """
    v, K = s.values, 0.0
    for rows, _, d, work in pair_blocks(s, cm.base, 8 * len(s) * 4, spare=2):
        d_phi, ratios = work[: 2 * d.size].reshape(2, *d.shape)
        phi_eval(cm.phi, d, out=d_phi, scratch=ratios)
        K = max(K, ratio_max(pair_gaps(v, rows, ratios), d_phi, ratios))
    return K


#: How many of a sample's largest pair ratios ``largest_ratios`` lists.
LISTED_PAIRS = 256


@dataclass(frozen=True, eq=False)
class LargestRatios:
    """The min(``LISTED_PAIRS``, pairs that constrain) largest ratios
    |I_i - I_j| / d_ij over the pairs i < j of a sample of n rows,
    descending, with their rows; every pair left off has a ratio no larger
    than the smallest listed one, and 0/0 pairs are never listed."""

    ratios: np.ndarray
    i: np.ndarray
    j: np.ndarray
    n: int

    def coherence(self, rows: np.ndarray) -> float | None:
        """``coherence_constant`` of the sample's ``rows``, the first listed
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


def largest_ratios(s: IndexedSample, cm: CompositionMetric) -> LargestRatios:
    """Up to ``LISTED_PAIRS`` of the largest ratios |I_i - I_j| / d_ij of
    the composed distances over the pairs i < j of ``s``, from one pass
    over ``pair_blocks``; a sample of one row has no pairs and raises
    ``ValueError``.

    Each block's ratios come from ``ratio_max``'s rule, and only its
    pairs, which ``upper`` marks, are listed.  A running ``floor`` bounds
    every ratio seen and left off.  A block lists its pairs above it, or,
    when more than ``LISTED_PAIRS`` are, its ``LISTED_PAIRS`` largest,
    which one ``np.argpartition`` finds with the entries off its pairs and
    0/0 at -inf; the floor rises to the smallest taken.  The list is cut back to its
    ``LISTED_PAIRS`` largest whenever it grows past them, the floor rising
    to the largest ratio cut if higher.  After each block no listed ratio
    is below the floor, so every pair left off is at most the smallest
    listed one, and the list holds min(``LISTED_PAIRS``, pairs that
    constrain): the floor leaves -inf only when the list fills.  The pass
    holds ``pair_blocks``' scratch, whose ``work`` takes each block's
    modulus and its atom values and then its ratios, the partition's
    indices, and O(``LISTED_PAIRS``) for the list.
    """
    n, v, size = len(s), s.values, LISTED_PAIRS
    ratios, i, j = np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    floor = -math.inf
    for rows, upper, d, work in pair_blocks(s, cm.base, 8 * n * 5, spare=2):
        # r takes the block's atom values, then its ratios; d_phi its modulus.
        r, d_phi = work[: 2 * d.size].reshape(2, *d.shape)
        phi_eval(cm.phi, d, out=d_phi, scratch=r)
        # The largest ratio of the block is that of its pairs: the other
        # entries are 0/0 or mirror one.
        if ratio_max(pair_gaps(v, rows, r), d_phi, r) <= floor:
            continue
        above = (r > floor) & upper  # never at a 0/0 pair's NaN
        flat = r.ravel()
        if np.count_nonzero(above) > size:
            # -inf off the pairs and at 0/0 only: many equal entries slow the selection.
            np.copyto(r, -math.inf, where=~upper)
            np.fmax(r, -math.inf, out=r)
            at = np.argpartition(flat, -size)[-size:].copy()  # a copy frees the rest
            floor = float(flat[at[0]])  # the partition's pivot, the smallest taken
        else:
            at = np.flatnonzero(above)
        ratios = np.concatenate([ratios, flat[at]])
        i = np.concatenate([i, at // r.shape[1] + rows.start])
        j = np.concatenate([j, at % r.shape[1] + rows.start])
        if len(ratios) > size:
            order = np.argsort(ratios)[::-1]
            floor = max(floor, float(ratios[order[size]]))
            ratios, i, j = ratios[order[:size]], i[order[:size]], j[order[:size]]
    order = np.argsort(ratios)[::-1]
    return LargestRatios(ratios[order], i[order], j[order], n)


def index_bound(s: IndexedSample) -> float:
    """Sup norm of the index values."""
    return float(np.max(np.abs(s.values)))


def error_bound(K: float, Q: float, C: float) -> float:
    """The worst-case anchor-extension error (K*Q - 1) * C.

    Valid for shifted non-negative indices, where K*Q >= 1 is automatic.
    When K*Q < 1 the formula would go negative and the bound degrades to 0.
    A product more than KQ_ROUNDING_SLACK below 1 signals inputs outside
    that regime and warns; one within it, a product of exactly 1 that
    rounded down, or C = 0, where the bound is exactly 0, does not.
    """
    if not (math.isfinite(K) and math.isfinite(Q) and math.isfinite(C)):
        return math.inf
    kq = K * Q
    if kq < 1.0:
        if kq < 1.0 - KQ_ROUNDING_SLACK and C != 0.0:
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

    The constants are reduced block by block over ``pair_blocks``, whose
    pairs come in lexicographic order: each block's first pair of highest
    rank replaces the one kept only when it ranks strictly higher, so the
    pair kept is the first over all pairs.  A pair's rank is its ratio,
    then whether it constrains at all, then, for +inf, whether its
    denominator is zero.
    """
    v, shifted = s.values, katetov_shift(s).values
    best = [(0.0, False, False, None)] * 3  # (constant, constrains, zero denominator, pair)
    for rows, upper, d_base, work in pair_blocks(s, cm.base, 8 * len(s) * 12, spare=2):
        d_phi, ratios = work[: 2 * d_base.size].reshape(2, *d_base.shape)
        phi_eval(cm.phi, d_base, out=d_phi, scratch=ratios)
        fractions = ((pair_gaps(v, rows), d_phi), (d_phi, pair_sums(v, rows)),
                     (d_phi, pair_sums(shifted, rows)))
        for c, (num, den) in enumerate(fractions):
            best[c] = max(best[c], _first_max(num, den, rows, upper, ratios), key=lambda b: b[:3])

    notes = []
    for c, (what, zero_den) in enumerate((
        ("not coherent", "coincide but carry distinct values"),
        # Katetov pairs with d_phi == 0 impose no constraint, so only
        # distances over a zero denominator can force Q to infinity.
        ("not normalizable", "are distinct with |I|+|I| = 0"),
        ("shifted index not normalizable", "are distinct and both attain the minimum"),
    )):
        value, _, zero, pair = best[c]
        if value == math.inf:
            if not zero:
                why = "have a ratio beyond the float range"
            elif c == 0 and not np.array_equal(s.points[pair[0]], s.points[pair[1]]):
                why = "are distinct but their composed distance rounds to 0"
            else:
                why = zero_den
            notes.append(f"{what}: rows {pair} {why}")
    (K, _, _, k_pair), (Q, _, _, q_pair), (Q_shifted, *_) = best
    C = index_bound(s)
    # max(I - min I) rounds like max(I) - min(I): subtraction is monotone.
    C_shifted = float(np.max(s.values) - np.min(s.values))
    bound = error_bound(K, Q_shifted, C_shifted)
    return ConstantsReport(K, Q, C, Q_shifted, C_shifted, bound, k_pair, q_pair, tuple(notes))


def _first_max(num: np.ndarray, den: np.ndarray, rows: slice, upper: np.ndarray, ratios: np.ndarray):
    """(``ratio_max`` of num/den, whether a pair attains it, whether its
    denominator is zero, the pair) on a block of ``pair_blocks``: the first
    such pair, for +inf the first at a zero denominator if one is.
    ``ratios`` receives the ratios."""
    value = ratio_max(num, den, ratios)
    at = (ratios == value) & upper
    zero = value == math.inf and bool((at & (den == 0.0)).any())
    if zero:
        at &= den == 0.0
    if not at.any():
        return value, False, False, None
    i, j = divmod(int(at.argmax()), at.shape[1])
    return value, True, zero, (rows.start + i, rows.start + j)
