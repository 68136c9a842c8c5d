"""Data preparation, repeated cross-validation, error metrics and ranking.

The evaluation protocol: min-max scale the features over the whole dataset,
split the indexed rows 70/30 at random, fit on the training side, score RMSE
on the held-out side, and repeat (20 times by default) with consecutive
seeds.  The blend weight alpha is chosen against the held-out side itself,
trading a little optimism for data efficiency; ``honest_alpha`` switches to
a nested split inside the training rows.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import IndexedSample
from .extension import METHODS, FitError, blend_with_alpha, fit_extension, predict
from .metrics import CompositionMetric
from .phi import PhiCombination
from .swarm import nudge_lambda

#: Seed offset for the nested alpha split, so it never reuses a repeat seed.
_INNER_SPLIT_OFFSET = 7919

THREADS_ENV_VAR = "LIPEXT_THREADS"


def _worker_count(requested: int | None) -> int:
    cap = os.environ.get(THREADS_ENV_VAR)
    cap = max(1, int(cap)) if cap else None
    if requested is None:
        return cap if cap is not None else 1
    requested = max(1, requested)
    return min(requested, cap) if cap is not None else requested


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
    col_min = rows.min(axis=0)
    col_max = rows.max(axis=0)
    span = col_max - col_min
    flat = span == 0.0
    if np.any(flat):
        names = [ds.feature_names[k] for k in np.flatnonzero(flat)]
        warnings.warn(f"constant feature columns {names} collapsed to 0", stacklevel=2)
    scaled = (ds.features - col_min) / np.where(flat, 1.0, span)
    scaled[:, flat] = 0.0
    return Dataset(
        list(ds.ids), scaled, ds.index.copy(), list(ds.feature_names),
        scaling=(col_min.copy(), col_max.copy()),
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
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = ds.n_rows
    k = int(math.floor(n * train_fraction + 0.5))
    if k == 0 or k == n:
        raise ValueError(f"split of {n} rows at {train_fraction} leaves an empty side")
    if method == "random":
        perm = np.random.default_rng(seed).permutation(n)
        train_idx = np.sort(perm[:k])
        test_idx = np.sort(perm[k:])
    elif method == "ordered":
        train_idx = np.arange(k)
        test_idx = np.arange(k, n)
    else:
        raise ValueError("split method must be 'random' or 'ordered'")
    return ds.subset(train_idx), ds.subset(test_idx)


def rmse(pred, truth) -> float:
    p = np.asarray(pred, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("prediction and truth must be non-empty and equal length")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(pred, truth) -> float:
    p = np.asarray(pred, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("prediction and truth must be non-empty and equal length")
    return float(np.mean(np.abs(p - t)))


def smape(pred, truth) -> float:
    """Symmetric mean absolute percentage error in [0, 2]; 0/0 terms count 0."""
    p = np.asarray(pred, dtype=float).reshape(-1)
    t = np.asarray(truth, dtype=float).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("prediction and truth must be non-empty and equal length")
    den = np.abs(p) + np.abs(t)
    terms = np.where(den > 0.0, 2.0 * np.abs(p - t) / np.where(den > 0.0, den, 1.0), 0.0)
    return float(np.mean(terms))


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
    per repeat, averaged; it is measurement metadata, not reproducible.
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


def holdout_alpha(
    ds: Dataset,
    cm: CompositionMetric,
    train_fraction: float,
    seed: int,
    split_method: str = "random",
) -> float:
    """Blend weight of a model fitted on one side of a split of ``ds``.

    The weight is the ``optimal_alpha`` against the other side.
    """
    train, held_out = split(ds, train_fraction, seed, split_method)
    model = fit_extension(train.as_sample(), cm, "blend")
    return blend_with_alpha(model, held_out.features, truth=held_out.index)[0]


def _fit_and_score(
    train: Dataset,
    test: Dataset,
    method: str,
    cm: CompositionMetric,
    alpha: float | None,
    honest_alpha: bool,
    inner_seed: int,
    train_fraction: float,
) -> float:
    if method == "blend" and alpha is None and honest_alpha:
        alpha = holdout_alpha(train, cm, train_fraction, inner_seed)
    model = fit_extension(train.as_sample(), cm, method)
    if method == "blend":
        return rmse(blend_with_alpha(model, test.features, alpha, test.index)[1], test.index)
    return rmse(predict(model, test.features), test.index)


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
    counted.  Repeats are independent, so they may run on a small thread
    pool (capped by the LIPEXT_THREADS environment variable) with results
    assembled in repeat order.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    indexed = ds.indexed_rows()
    if indexed.n_rows < 2:
        raise ValueError("cross-validation needs at least two indexed rows")

    def one_repeat(r: int) -> tuple[float | None, float]:
        t0 = time.perf_counter()
        train, test = split(indexed, train_fraction, seed + r, split_method)
        try:
            score = _fit_and_score(
                train, test, method, cm, alpha, honest_alpha,
                seed + r + _INNER_SPLIT_OFFSET, train_fraction,
            )
        except FitError:
            score = None
        return score, time.perf_counter() - t0

    n_workers = _worker_count(workers)
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(one_repeat, range(repeats)))
    else:
        outcomes = [one_repeat(r) for r in range(repeats)]

    scores = tuple(s for s, _ in outcomes if s is not None)
    seconds = float(np.mean([t for _, t in outcomes]))
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


def cv_repeat_rows(report: CvReport) -> list[tuple[int, float]]:
    """Flat (repeat, rmse) rows for the per-repeat CSV."""
    return [(r + 1, v) for r, v in enumerate(report.per_repeat_rmse)]


def objective_test_rmse(
    ds_indexed: Dataset,
    base: str,
    atoms: tuple[str, ...],
    train_fraction: float = 0.7,
    seed: int = 0,
) -> Callable:
    """Held-out RMSE of the alpha-blend extension as a function of coefficients.

    One split is drawn up front and reused for every candidate, so all
    coefficient vectors are compared on identical data.  Unfittable
    candidates score +inf.
    """
    train, test = split(ds_indexed, train_fraction, seed)
    train_sample = train.as_sample()

    def objective(lam: np.ndarray) -> float:
        lam = nudge_lambda(lam)
        phi = PhiCombination(atoms, tuple(float(v) for v in lam))
        cm = CompositionMetric(base, phi)
        try:
            model = fit_extension(train_sample, cm, "blend")
        except FitError:
            return math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pred = blend_with_alpha(model, test.features, truth=test.index)[1]
        return rmse(pred, test.index)

    return objective
