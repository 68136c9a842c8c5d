"""Data preparation, repeated cross-validation, RMSE and ranking.

The evaluation protocol: min-max scale the features over the whole dataset,
split the indexed rows 70/30 at random, fit on the training side, score RMSE
on the held-out side, and repeat (20 times by default) with consecutive
seeds.  The blend weight alpha is chosen against the held-out side itself,
trading a little optimism for data efficiency; ``honest_alpha`` switches to
a nested split inside the training rows.

Splits only change which indexed rows train, so the composed distances
among the indexed rows are computed once (``PairTable``) and every split
slices them.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import IndexedSample, condensed_pairs
from .extension import (
    METHODS,
    ExtensionModel,
    FitError,
    check_alpha,
    fit_extension,
    predict,
    predict_from_distances,
)
from .metrics import CompositionMetric
from .phi import ATOM_FUNCS, PhiCombination, weighted_sum
from .swarm import nudge_lambda

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
    Constant columns are collapsed to 0 with a warning.  Index values are
    never rescaled.
    """
    if ds.n_rows < 2:
        raise ValueError("scaling needs at least two rows")
    if fit_on not in ("all", "indexed"):
        raise ValueError("fit_on must be 'all' or 'indexed'")
    rows = ds.features if fit_on == "all" else ds.features[ds.indexed_mask]
    scaling = (rows.min(axis=0), rows.max(axis=0))
    flat = np.flatnonzero(scaling[1] == scaling[0])
    if flat.size:
        names = [ds.feature_names[k] for k in flat]
        warnings.warn(f"constant feature columns {names} collapsed to 0", stacklevel=2)
    return Dataset(
        list(ds.ids), apply_scaling(ds.features, scaling), ds.index.copy(),
        list(ds.feature_names), scaling=scaling,
    )


def apply_scaling(features: np.ndarray, scaling: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Re-apply stored (min, max) scaling parameters to raw features."""
    col_min, col_max = scaling
    span = col_max - col_min
    flat = span == 0.0
    out = (np.asarray(features, dtype=float) - col_min) / np.where(flat, 1.0, span)
    out[:, flat] = 0.0
    return out


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
    return float(np.sqrt(np.mean((p - t) ** 2)))


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
    Statistics use the population standard deviation.  Timing is wall time
    per repeat, averaged, with the one-off distance table build shared out
    over the repeats; it is measurement metadata, not reproducible.
    """

    method: str
    repeats: int
    failed: int
    per_repeat_rmse: tuple[float, ...]
    mean: float
    median: float
    std_dev: float
    seconds_per_iteration: float

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "repeats": self.repeats,
            "failed": self.failed,
            "per_repeat_rmse": list(self.per_repeat_rmse),
            "mean": self.mean,
            "median": self.median,
            "std_dev": self.std_dev,
            "seconds_per_iteration": self.seconds_per_iteration,
        }


def _cv_stats(values: Sequence[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    return float(np.mean(arr)), float(np.median(arr)), float(np.std(arr))


class PairTable:
    """Composed distances among the rows of ``ds``, all indexed, built once.

    Fits and predictions on subsets of the rows slice the table instead of
    recomputing distances.  The modulus acts elementwise and each entry is
    the base reduction over the same two rows, so a slice has the bits that
    a fresh computation on the subset would give.  The table is read-only
    once built, so threads may share it.  ``distances=False`` skips the
    table for the linear method, which needs none.  Memory is O(n^2).
    """

    def __init__(self, ds: Dataset, cm: CompositionMetric, distances: bool = True):
        self.ds = ds
        self.cm = cm
        self.D = cm.pairwise(ds.features, ds.features) if distances else None

    def pairs(self, rows: np.ndarray) -> np.ndarray:
        """Distances of the pairs of ``rows``, in ``pair_data`` order."""
        i_idx, j_idx = condensed_pairs(len(rows))
        return self.D[rows[i_idx], rows[j_idx]]

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances from ``rows`` (one per result row) to ``cols``."""
        return self.D[np.ix_(rows, cols)]

    def fit(self, rows: np.ndarray, method: str, alpha: float | None = None) -> ExtensionModel:
        """``fit_extension`` on the given rows."""
        sample = IndexedSample(self.ds.features[rows], self.ds.index[rows])
        d_pairs = None if method == "linear" else self.pairs(rows)
        return fit_extension(sample, self.cm, method, alpha, d_pairs)

    def predict(
        self, model: ExtensionModel, train: np.ndarray, rows: np.ndarray, alpha=None
    ) -> tuple[float | None, np.ndarray]:
        """(blend weight, predictions) at ``rows`` of a model fitted on ``train``.

        A blend without ``alpha`` takes the optimal weight against the
        index values at ``rows``.
        """
        if model.method == "linear":
            return None, predict(model, self.ds.features[rows])
        truth = self.ds.index[rows]
        return predict_from_distances(model, self.block(rows, train), alpha, truth)

    def holdout_alpha(
        self, rows: np.ndarray, train_fraction: float, seed: int, split_method: str
    ) -> float:
        """Blend weight of a model fitted on one side of a split of ``rows``."""
        train, held_out = _split_rows(len(rows), train_fraction, seed, split_method)
        train, held_out = rows[train], rows[held_out]
        return self.predict(self.fit(train, "blend"), train, held_out)[0]


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

    A blend without ``alpha`` takes its weight from a holdout first: fit on
    one side of a split of the rows and take the ``optimal_alpha`` against
    the other side.  It then refits on every row with that weight frozen.
    When the split would leave an empty side or fewer than two training
    rows, the weight is 0.5, with a warning; a holdout that cannot be fitted
    raises its ``FitError``, and a bad fraction or split method raises
    ``ValueError``.  The holdout and the final fit share one distance
    table.
    """
    table = PairTable(indexed, cm, distances=method != "linear")
    rows = np.arange(indexed.n_rows)
    if method != "blend":
        return table.fit(rows, method)
    if alpha is None:
        k = _train_size(indexed.n_rows, train_fraction)
        if k < 2 or k == indexed.n_rows:
            warnings.warn("too few indexed rows to estimate alpha; using 0.5", stacklevel=2)
            alpha = 0.5
        else:
            alpha = table.holdout_alpha(rows, train_fraction, seed, split_method)
    return table.fit(rows, "blend", alpha)


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
    workers: int | None = None,
) -> CvReport:
    """Repeatedly split, fit and score; repeat r uses seed + r.

    Repeats where fitting fails are excluded from the RMSE statistics and
    counted.  The distances among the indexed rows are computed once, and
    each repeat slices them.  Repeats are independent, so with ``workers``
    above 1 they run on a thread pool of that size, with results assembled
    in repeat order; None means 1.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    check_alpha(alpha)
    indexed = ds.indexed_rows()
    if indexed.n_rows < 2:
        raise ValueError("cross-validation needs at least two indexed rows")
    t0 = time.perf_counter()
    table = PairTable(indexed, cm, distances=method != "linear")
    build_seconds = time.perf_counter() - t0

    def one_repeat(r: int) -> tuple[float | None, float]:
        t0 = time.perf_counter()
        train, test = _split_rows(indexed.n_rows, train_fraction, seed + r, split_method)
        a = alpha
        try:
            if method == "blend" and a is None and honest_alpha:
                inner_seed = seed + r + _INNER_SPLIT_OFFSET
                a = table.holdout_alpha(train, train_fraction, inner_seed, "random")
            model = table.fit(train, method)
            score = rmse(table.predict(model, train, test, a)[1], indexed.index[test])
        except FitError:
            score = None
        return score, time.perf_counter() - t0

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one_repeat, range(repeats)))
    else:
        outcomes = [one_repeat(r) for r in range(repeats)]

    scores = tuple(s for s, _ in outcomes if s is not None)
    seconds = (build_seconds + sum(t for _, t in outcomes)) / repeats
    if not scores:
        raise FitError("every cross-validation repeat failed to fit")
    mean, median, std = _cv_stats(scores)
    return CvReport(
        method=method,
        repeats=repeats,
        failed=repeats - len(scores),
        per_repeat_rmse=scores,
        mean=mean,
        median=median,
        std_dev=std,
        seconds_per_iteration=seconds,
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
    coefficient vectors are compared on identical data.  Each atom is
    applied once to the base distances of the training pairs and of the
    test x train block; a candidate then weights and sums those stacks in
    ``phi_eval``'s order.  Unfittable candidates score +inf.  A split with
    fewer than two training rows raises ``ValueError`` here, since every
    candidate would be unfittable.
    """
    train, test = _split_rows(ds_indexed.n_rows, train_fraction, seed, "random")
    if len(train) < 2:
        raise ValueError(
            f"the test-rmse search needs at least two training rows: a split of "
            f"{ds_indexed.n_rows} indexed rows at train_fraction {train_fraction} "
            f"leaves {len(train)}"
        )
    # Under the identity modulus the table holds the base distances.
    table = PairTable(ds_indexed, CompositionMetric(base))
    pairs, block = table.pairs(train), table.block(test, train)
    pair_atoms = [ATOM_FUNCS[a](pairs) for a in atoms]
    block_atoms = [ATOM_FUNCS[a](block) for a in atoms]
    train_sample = IndexedSample(ds_indexed.features[train], ds_indexed.index[train])
    truth = ds_indexed.index[test]

    def objective(lam: np.ndarray) -> float:
        lam = nudge_lambda(lam)
        phi = PhiCombination(atoms, tuple(float(v) for v in lam))
        cm = CompositionMetric(base, phi)
        d_pairs = weighted_sum(phi.coefficients, pair_atoms, pairs)
        try:
            model = fit_extension(train_sample, cm, "blend", None, d_pairs)
        except FitError:
            return math.inf
        d_block = weighted_sum(phi.coefficients, block_atoms, block)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pred = predict_from_distances(model, d_block, truth=truth)[1]
        return rmse(pred, truth)

    return objective
