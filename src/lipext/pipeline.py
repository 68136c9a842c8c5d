"""Data preparation, repeated cross-validation, RMSE and ranking.

The evaluation protocol: min-max scale the features over the whole dataset,
split the indexed rows 70/30 at random, fit on the training side, score RMSE
on the held-out side, and repeat (20 times by default) with consecutive
seeds.  The blend weight alpha is chosen against the held-out side itself,
trading a little optimism for data efficiency; ``honest_alpha`` switches to
a nested split inside the training rows.

Splits only change which indexed rows train, so one pass over the rows'
pairs (``constants.largest_ratios``) lists their largest ratios, and every
fit on a subset of them takes its coherence constant K from the first
listed pair with both rows on its training side, or from the points when
none is listed (``PairTable``).  ``cross_validate`` fits every repeat
first, with no distances, and then makes the composed distances among the
indexed rows once, a block of rows against all of them at a time: each
block serves the predictions of every repeat at its rows, so no n × n
table is held.  A fit on every indexed row, as ``extend`` and ``rank``
make it, takes K from the same list, and a blend's holdout weight reads
the held-out rows' distances from the points (``fit_for_extend``).  A report
holds no measured time, so the same inputs give the same report, bit for
bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import (
    IndexedSample,
    k_front,
    largest_ratios,
    ratio_max,
    undominated,
)
from .extension import (
    METHODS,
    BlockPredictions,
    ExtensionModel,
    FitError,
    check_alpha,
    fit_extension,
    optimal_blend,
    predict,
    predict_in_blocks,
)
from .metrics import CompositionMetric, base_scratch_size, pairwise_base, row_blocks
from .phi import atom_values, check_combination, weighted_sum

#: Seed offset for the nested alpha split, so it never reuses a repeat seed.
_INNER_SPLIT_OFFSET = 7919


@dataclass(eq=False)
class Dataset:
    """Rows of (id, feature vector, optional index value).

    ``index`` is a float array with NaN marking rows whose value is unknown
    (the extension targets).  ``scaling`` holds the per-column (min, max)
    recorded when the dataset was min-max scaled.
    """

    ids: list[str]
    features: np.ndarray  # (n, m)
    index: np.ndarray  # (n,) with NaN for unknown
    feature_names: list[str]
    scaling: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.index = np.asarray(self.index, dtype=float).reshape(-1)
        if not (len(self.ids) == self.features.shape[0] == self.index.shape[0]):
            raise ValueError("ids, features and index must have equal lengths")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def indexed_mask(self) -> np.ndarray:
        return ~np.isnan(self.index)

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        return Dataset(
            [self.ids[i] for i in rows],
            self.features[rows],
            self.index[rows],
            list(self.feature_names),
            self.scaling,
        )

    def indexed_rows(self) -> "Dataset":
        return self.subset(np.flatnonzero(self.indexed_mask))

    def unindexed_rows(self) -> "Dataset":
        return self.subset(np.flatnonzero(~self.indexed_mask))

    def as_sample(self) -> IndexedSample:
        """The indexed rows as a sample for fitting."""
        mask = self.indexed_mask
        return IndexedSample(self.features[mask], self.index[mask])


def minmax_scale(ds: Dataset, fit_on: str = "all") -> Dataset:
    """Map every feature column affinely onto [0, 1].

    Column extremes are taken over all rows by default, indexed and
    unindexed alike, since the whole space is rescaled before any extension;
    ``fit_on="indexed"`` restricts the fit for leakage-sensitive setups.
    The rows fitted on must number at least two.  Constant columns are
    collapsed to 0 with a warning.  Index values are never rescaled.
    """
    if fit_on not in ("all", "indexed"):
        raise ValueError("fit_on must be 'all' or 'indexed'")
    rows = ds.features if fit_on == "all" else ds.features[ds.indexed_mask]
    if rows.shape[0] < 2:
        raise ValueError("scaling needs at least two rows")
    scaling = (rows.min(axis=0), rows.max(axis=0))
    flat = np.flatnonzero(scaling[1] == scaling[0])
    if flat.size:
        names = [ds.feature_names[k] for k in flat]
        warnings.warn(f"constant feature columns {names} collapsed to 0", stacklevel=2)
    return apply_scaling(ds, scaling)


def apply_scaling(ds: Dataset, scaling: tuple[np.ndarray, np.ndarray]) -> Dataset:
    """``ds`` with per-column (min, max) scaling parameters applied to its
    features and recorded; a column with min == max maps to 0."""
    col_min, col_max = scaling
    span = col_max - col_min
    flat = span == 0.0
    features = (ds.features - col_min) / np.where(flat, 1.0, span)
    features[:, flat] = 0.0
    return Dataset(
        list(ds.ids), features, ds.index.copy(), list(ds.feature_names), scaling=scaling
    )


def split(ds: Dataset, train_fraction: float, seed: int, method: str = "random"):
    """Partition rows into (train, test), train size = round(n * fraction).

    ``method="random"`` shuffles with the given seed; ``method="ordered"``
    takes the first rows in file order as training, for datasets pre-sorted
    by some priority such as population.
    """
    train_idx, test_idx = _split_rows(ds.n_rows, train_fraction, seed, method)
    return ds.subset(train_idx), ds.subset(test_idx)


def _train_size(n: int, train_fraction: float) -> int:
    """Training rows of a split of n rows: round(n * fraction), halves up."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    return int(math.floor(n * train_fraction + 0.5))


def _split_rows(n: int, train_fraction: float, seed: int, method: str):
    """Sorted (train, test) row positions of ``split`` on n rows."""
    k = _train_size(n, train_fraction)
    if k == 0 or k == n:
        raise ValueError(f"split of {n} rows at {train_fraction} leaves an empty side")
    if method == "random":
        perm = np.random.default_rng(seed).permutation(n)
        return np.sort(perm[:k]), np.sort(perm[k:])
    if method == "ordered":
        return np.arange(k), np.arange(k, n)
    raise ValueError("split method must be 'random' or 'ordered'")


def rmse(pred, truth) -> float:
    p = np.asarray(pred, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("prediction and truth must be non-empty and equal length")
    return _root_mean_square(p - t)


def _root_mean_square(r: np.ndarray) -> float:
    """sqrt(mean(r ** 2)) of a non-empty (n,) array, squaring r in place.

    ``np.add.reduce`` adds in the order of ``.mean()``, so this has the
    bits of ``math.sqrt((r ** 2).mean())``.
    """
    np.multiply(r, r, out=r)
    return math.sqrt(np.add.reduce(r) / r.size)


def rank(ds: Dataset, predictions) -> list[tuple[int, str, float]]:
    """Rank the unindexed rows by predicted value, descending; ties by id."""
    targets = ds.unindexed_rows()
    values = np.asarray(predictions, dtype=float).reshape(-1)
    if values.shape[0] != targets.n_rows:
        raise ValueError("one prediction per unindexed row is required")
    order = sorted(zip(targets.ids, values), key=lambda t: (-t[1], t[0]))
    return [(r + 1, cid, float(v)) for r, (cid, v) in enumerate(order)]


@dataclass(frozen=True)
class CvReport:
    """Aggregate of one repeated cross-validation run.

    ``per_repeat_rmse`` covers the successful repeats only (failures, e.g.
    from an infinite coherence constant, are counted in ``failed``).
    Statistics use the population standard deviation.  Every field is
    reproducible from the inputs and seed.
    """

    method: str
    repeats: int
    failed: int
    per_repeat_rmse: tuple[float, ...]
    mean: float
    median: float
    std_dev: float


def _cv_stats(values: Sequence[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    return float(np.mean(arr)), _median(arr), float(np.std(arr))


def _median(arr: np.ndarray) -> float:
    """``np.median`` of a non-empty (n,) float array, bit for bit.

    The middle values come from ``np.partition`` at the positions
    ``np.median`` partitions at, and the last position too, where the NaNs
    gather: NaN if any value is NaN, else the mean of the middle value, or
    of the middle two for even n.  ``np.median`` itself would import
    ``numpy.ma`` for its NaN check.
    """
    n = arr.size
    part = np.partition(arr, [n // 2, -1] if n % 2 else [n // 2 - 1, n // 2, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    middle = part[(n - 1) // 2 : n // 2 + 1]
    return float(np.add.reduce(middle) / middle.size)


class PairTable:
    """Fits of ``method`` on subsets of the rows of ``ds``, all indexed,
    with K from one table of the rows' largest pair ratios.

    Every method but linear, which needs no K, lists them once
    (``constants.largest_ratios``): min(``LISTED_PAIRS``, pairs that
    constrain) of them, which serve the K of many subset fits at
    O(``LISTED_PAIRS``) each.  No distance table is built: ``sweep`` makes
    the composed distances that many fits' predictions read a block of
    rows at a time, and ``holdout_alpha`` those of its held-out rows from
    the points.
    """

    def __init__(self, ds: Dataset, cm: CompositionMetric, method: str):
        self.ds = ds
        self.cm = cm
        self.method = method
        self.largest = None
        if method != "linear":
            self.largest = largest_ratios(IndexedSample(ds.features, ds.index), cm)

    def fit(self, rows: np.ndarray, alpha: float | None = None) -> ExtensionModel:
        """``fit_extension`` of the table's method on the given rows, with K
        the first listed ratio with both ends among ``rows``.  When none is
        listed, ``fit_extension`` computes K from the points.  Either has
        the bits of K on a fresh sample of the rows.
        """
        sample = IndexedSample(self.ds.features[rows], self.ds.index[rows])
        K = self.largest.coherence(rows) if self.largest is not None else None
        return fit_extension(sample, self.cm, self.method, alpha, K)

    def sweep(self, fits) -> list[BlockPredictions]:
        """The ``BlockPredictions`` of each (model, train, rows) of ``fits``,
        in order: a whitney, mcshane or blend model fitted on the table's
        rows ``train``, at its rows ``rows``, sorted.

        One pass over ``CompositionMetric.blocks`` of every row against
        every row serves them all.  At each block, each fit with rows in it
        takes their whole rows of the block into the block's ``work``, then
        their columns at its training rows into one array allocated at the
        first block, the largest, for ``BlockPredictions.add``.  The modulus acts
        elementwise and each base distance is one fixed reduction over the
        terms |a - b| = |b - a| of its two rows, so every distance has the
        bits a fresh computation on the fit's rows would give.  Memory is
        O(``TILE_BYTES``) on top of the fits' predictions.
        """
        made = [BlockPredictions(model, len(rows)) for model, _, rows in fits]
        if not fits:
            return made
        X, gathered = self.ds.features, None
        for block, d, work in self.cm.blocks(X, X):
            if gathered is None:  # the first block is the largest
                gathered = np.empty(d.size)
            for (_, train, rows), out in zip(fits, made):
                lo, hi = np.searchsorted(rows, (block.start, block.stop))
                if lo == hi:
                    continue
                count = hi - lo
                whole = work[: count * len(X)].reshape(count, len(X))
                d_fit = gathered[: count * len(train)].reshape(count, len(train))
                # Every index is in range, so "clip" changes none; it spares
                # numpy the copy that "raise" makes into a given ``out``.
                np.take(d, rows[lo:hi] - block.start, axis=0, out=whole, mode="clip")
                np.take(whole, train, axis=1, out=d_fit, mode="clip")
                out.add(slice(lo, hi), d_fit, whole.ravel())
        return made

    def holdout_alpha(
        self, rows: np.ndarray, train_fraction: float, seed: int, split_method: str
    ) -> float | None:
        """Blend weight of a model fitted on one side of ``_holdout_split``
        of ``rows``, against the index values of the other side, whose
        distances are made from the points, for a table of the blend
        method; another method raises ``ValueError``.  None when that split
        is too small.
        """
        if self.method != "blend":
            raise ValueError(f"holdout_alpha needs a blend table, not {self.method!r}")
        split = _holdout_split(len(rows), train_fraction, seed, split_method)
        if split is None:
            return None
        train, held_out = rows[split[0]], rows[split[1]]
        model, X = self.fit(train), self.ds.features[held_out]
        blocks = self.cm.blocks(X, model.training.points)
        return predict_in_blocks(model, len(held_out), blocks, truth=self.ds.index[held_out])[0]


def _holdout_split(n: int, train_fraction: float, seed: int, split_method: str):
    """(train, held-out) row positions of the split of n rows that chooses
    a blend's weight, or None when it would leave fewer than two training
    rows or no held-out row."""
    k = _train_size(n, train_fraction)
    if k < 2 or k == n:
        return None
    return _split_rows(n, train_fraction, seed, split_method)


def fit_for_extend(
    indexed: Dataset,
    cm: CompositionMetric,
    method: str,
    alpha: float | None = None,
    train_fraction: float = 0.7,
    seed: int = 0,
    split_method: str = "random",
) -> ExtensionModel:
    """Fit ``method`` on every row of ``indexed``: the model that extends.

    A blend without ``alpha`` takes its weight from a model fitted on the
    training side of ``_holdout_split``, at the held-out rows
    (``PairTable.holdout_alpha``), then refits on every row with that
    weight frozen.  When the split is too small, the weight is 0.5, with a
    warning; a holdout that cannot be fitted raises its ``FitError``, and a
    bad fraction or split method raises ``ValueError``.  Both fits take K
    from the list of the largest pair ratios, or from the points when no
    listed pair has both ends on the fit's rows.  Every other fit, and any
    fit on one row, which raises ``FitError`` unless it is linear, is
    ``fit_extension`` on every row, with K from the points.
    """
    if method != "blend" or alpha is not None or indexed.n_rows < 2:
        return fit_extension(indexed.as_sample(), cm, method, alpha)
    table, rows = PairTable(indexed, cm, method), np.arange(indexed.n_rows)
    alpha = table.holdout_alpha(rows, train_fraction, seed, split_method)
    if alpha is None:
        warnings.warn("too few indexed rows to estimate alpha; using 0.5", stacklevel=2)
        alpha = 0.5
    return table.fit(rows, alpha)


def cross_validate(
    ds: Dataset,
    method: str,
    cm: CompositionMetric,
    repeats: int = 20,
    seed: int = 0,
    train_fraction: float = 0.7,
    alpha: float | None = None,
    honest_alpha: bool = False,
    split_method: str = "random",
) -> CvReport:
    """Repeatedly split, fit and score; repeat r uses seed + r.

    Repeats where fitting fails, or whose nested ``honest_alpha`` split is
    too small, are excluded from the RMSE statistics and counted.  Every
    fit of every repeat, the nested one included, is made first, with K
    from one list of the largest pair ratios.  Then one
    ``PairTable.sweep`` over the indexed rows makes the whitney, mcshane
    and blend predictions of them all; a standard or linear one is
    ``extension.predict`` at the rows' points.  The blend weights, mixes
    and RMSEs follow, repeat by repeat in order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    check_alpha(alpha)
    indexed = ds.indexed_rows()
    if indexed.n_rows < 2:
        raise ValueError("cross-validation needs at least two indexed rows")
    table = PairTable(indexed, cm, method)
    plans = []  # each repeat's (nested fit, fit), (model, train, rows) each or None
    for r in range(repeats):
        train, test = _split_rows(indexed.n_rows, train_fraction, seed + r, split_method)
        nested = fit = None
        try:
            if method == "blend" and alpha is None and honest_alpha:
                inner_seed = seed + r + _INNER_SPLIT_OFFSET
                split = _holdout_split(len(train), train_fraction, inner_seed, "random")
                if split is None:
                    raise FitError("the nested alpha split is too small")
                inner = train[split[0]]
                nested = (table.fit(inner), inner, train[split[1]])
            fit = (table.fit(train), train, test)
        except FitError:
            pass
        plans.append((nested, fit))
    fits = [f for plan in plans for f in plan if f is not None]
    swept = iter(table.sweep(fits) if method in ("whitney", "mcshane", "blend") else ())

    def predictions(fit, a):  # the next fit in the order of ``fits``
        model, _, rows = fit
        if method in ("standard", "linear"):
            return None, predict(model, indexed.features[rows])
        return next(swept).result(a, indexed.index[rows])

    scores = []
    for nested, fit in plans:
        a = alpha if nested is None else predictions(nested, None)[0]
        if fit is not None:
            scores.append(rmse(predictions(fit, a)[1], indexed.index[fit[2]]))
    if not scores:
        raise FitError("every cross-validation repeat failed to fit")
    mean, median, std = _cv_stats(scores)
    return CvReport(
        method=method,
        repeats=repeats,
        failed=repeats - len(scores),
        per_repeat_rmse=tuple(scores),
        mean=mean,
        median=median,
        std_dev=std,
    )


def objective_test_rmse(
    ds_indexed: Dataset,
    base: str,
    atoms: tuple[str, ...],
    train_fraction: float = 0.7,
    seed: int = 0,
) -> Callable:
    """Held-out RMSE of the alpha-blend extension as a function of coefficients.

    One split is drawn up front and reused for every candidate, so all
    coefficient vectors are compared on identical data.  A candidate's K
    is a maximum of pair ratios, and each Whitney or McShane prediction a
    minimum or maximum over the training rows.  An item that another item
    dominates (``constants.undominated``) never decides one of them, for
    any coefficients: a pair with atom values each no larger and a gap no
    smaller has a ratio no smaller, and a training row with atom values
    each no larger and an index no larger has a Whitney term no larger,
    with an index no smaller a McShane term no smaller.  So the fronts are
    built once, from the points, in row blocks: the K front of the
    training pairs (``k_front``) and, for each test row, the Whitney and
    McShane fronts of its training rows together (``_row_fronts``), padded
    to the widest by repeating one of its own members.  Their atom values
    are held in one (atoms, pairs + test rows * width) stack.

    A candidate is checked by ``check_combination``, the rule of
    ``PhiCombination``, then takes one weighted sum over the stack in
    ``phi_eval``'s order, without the terms of zero coefficients on atoms
    whose values are all finite, K as ``ratio_max`` over the pair part and
    the ``optimal_blend`` on the row part, with numpy's floating-point
    warnings silenced there.  A maximum or minimum over a superset of a front has
    the bits of one over all items, so every candidate scores the bits of a
    refit on the training rows and a blend at the test rows.  An infinite
    K, which no fit survives, and the zero vector, which is not a modulus,
    score +inf.  A split with fewer than two training rows raises
    ``ValueError`` here, since every candidate would be unfittable.

    Every array a candidate writes is allocated here once and reused, so
    the returned function serves one caller at a time.
    """
    train, test = _split_rows(ds_indexed.n_rows, train_fraction, seed, "random")
    if len(train) < 2:
        raise ValueError(
            f"the test-rmse search needs at least two training rows: a split of "
            f"{ds_indexed.n_rows} indexed rows at train_fraction {train_fraction} "
            f"leaves {len(train)}"
        )
    X, values = ds_indexed.features, ds_indexed.index
    train_sample = IndexedSample(X[train], values[train])
    pair_atoms, gaps = k_front(train_sample, base, atoms)
    row_atoms, row_values = _row_fronts(X[test], train_sample, base, atoms)
    n_pairs = len(gaps)
    # The row part is stored front position by front position, test rows
    # contiguous, so a reduction over each row's front runs along the outer
    # axis, which numpy does faster for fronts as narrow as these.
    row_part = row_atoms.transpose(0, 2, 1).reshape(len(atoms), -1)
    stack = np.concatenate([pair_atoms, row_part], axis=1)
    truth = values[test]
    # scratch takes each later atom's term, then the pair ratios.
    d, scratch = np.empty((2, stack.shape[1]))
    pair_d, ratios = d[:n_pairs], scratch[:n_pairs]
    D = d[n_pairs:].reshape(row_values.shape[::-1]).T
    blend = optimal_blend(np.asfortranarray(row_values), D, truth)
    # A zero coefficient times an atom's finite values adds +0.0 to sums
    # that are >= +0.0, which changes no bit, so such terms are left out;
    # about half the swarm's coordinates sit at 0, the edge of its box.
    finite = np.isfinite(stack).all(axis=1).tolist()

    def objective(lam: np.ndarray) -> float:
        coeffs = tuple(map(float, lam))
        if len(coeffs) == len(atoms) and not any(coeffs):
            return math.inf  # the zero vector is not a modulus
        check_combination(atoms, coeffs)
        terms = [k for k, c in enumerate(coeffs) if c or not finite[k]]
        weighted_sum([coeffs[k] for k in terms], [stack[k] for k in terms], d, scratch)
        K = ratio_max(gaps, pair_d, ratios)
        if K == math.inf:
            return math.inf
        with np.errstate(all="ignore"):
            pred = blend(K)[1]
        return _root_mean_square(np.subtract(pred, truth, out=pred))

    return objective


def _row_fronts(
    queries: np.ndarray, train: IndexedSample, base: str, atoms: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(atom values (atoms, q, w), index values (q, w)) of the training rows
    that each of the q query rows keeps for its Whitney and McShane
    predictions: those that ``undominated`` keeps with the index, or its
    negative, as the gain, and those that no other row exceeds in every
    atom value.  The last are kept because a composed distance that
    overflows to +inf makes a NaN term when K = 0, and any such distance
    of a row is then one of theirs too.  Each row's kept training rows
    come in their order, and a row with fewer than the widest w repeats
    its last one, which changes no minimum or maximum.  The base distances
    are made in ``row_blocks`` of query rows, as ``pairwise_base`` gives
    them, into a block and with partial sums cut from two arrays allocated
    at the first block, the largest.
    """
    (n, m), fronts, own = train.points.shape, [], None
    for block in row_blocks(len(queries), 8 * n * (2 * len(atoms) + 8)):
        rows = queries[block]
        if own is None:
            own = np.empty((len(rows), n))
            scratch = np.empty(base_scratch_size(base, m, len(rows), n))
        base_d = pairwise_base(base, rows, train.points, out=own[: len(rows)], scratch=scratch)
        values = atom_values(atoms, base_d)
        keep = undominated(base_d, train.values, values)
        keep |= undominated(base_d, -train.values, values)
        keep |= undominated(-base_d, 0.0, -values)
        count = np.count_nonzero(keep, axis=1)
        kept = np.argsort(~keep, axis=1, kind="stable")  # each row's kept columns first
        kept = np.take_along_axis(kept, np.minimum(np.arange(count.max()), count[:, None] - 1), 1)
        fronts.append((kept, np.take_along_axis(values, kept[None], axis=-1)))
    width = max(kept.shape[1] for kept, _ in fronts)

    def widen(a):  # repeat each row's last column up to the width
        return a[..., np.minimum(np.arange(width), a.shape[-1] - 1)]

    kept = np.concatenate([widen(kept) for kept, _ in fronts])
    return np.concatenate([widen(a) for _, a in fronts], axis=1), train.values[kept]
