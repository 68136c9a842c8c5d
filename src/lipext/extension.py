"""Index extension from a training sample to the rest of the space.

Four Lipschitz methods and a least-squares baseline are provided.  Writing
d for the composed metric and K for the coherence constant of the training
values:

* whitney:  F(x) = min_y { I(y) + K d(x, y) }, the largest K-Lipschitz
  extension of the training values.
* mcshane:  F(x) = max_y { I(y) - K d(x, y) }, the smallest one.
* blend:    (1 - alpha) * whitney + alpha * mcshane, with alpha chosen in
  closed form against a reference set (``optimal_alpha``).
* standard: anchor at the row a0 that minimizes the index and predict
  min(I) + K d(a0, x).  On finite data this is the whole approximation,
  and its training error is bounded by (K*Q - 1) * C.
* linear:   ordinary least squares on the features, with no metric and no
  coherence constant.

``BlockPredictions`` is the one step from distances to the other
Lipschitz predictions; a standard one reads the distances to a0 alone.  A
prediction depends only on its own row, so it works through the queries
in row blocks, taking the distances of one block at a time, from the
points (``predict``) or from blocks of distances that serve many fits,
and row-by-row calls give the same bits as one batch call.
``fit_extension`` takes a given K, and ``BlockPredictions`` the composed
distances, so callers that make distances once for many fits get the
same bits as fresh computation.  ``optimal_blend`` gives a blend's bits
for many constants K at one set of query rows, in buffers reused between
calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import IndexedSample, coherence_constant, katetov_shift
from .metrics import CompositionMetric

METHODS = ("mcshane", "whitney", "blend", "standard", "linear")


class FitError(ValueError):
    """The sample cannot be fitted (too few rows, or infinite coherence constant)."""


@dataclass(frozen=True, eq=False)
class ExtensionModel:
    """Immutable fitted state shared by all prediction rules."""

    training: IndexedSample
    cm: CompositionMetric
    K: float | None  # None for linear
    method: str
    alpha: float | None = None  # blend only
    anchor: int | None = None  # standard only: row index of the minimizer
    offset: float = 0.0  # standard only: the index at the anchor, its minimum
    coefficients: np.ndarray | None = None  # linear only: intercept first

    def __post_init__(self):
        check_alpha(self.alpha)


def check_alpha(alpha: float | None) -> None:
    """Reject a blend weight outside [0, 1]; None means "not chosen yet"."""
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def fit_extension(
    s: IndexedSample,
    cm: CompositionMetric,
    method: str = "blend",
    alpha: float | None = None,
    K: float | None = None,
) -> ExtensionModel:
    """Fit an extension model on an indexed sample.

    K is the coherence constant of ``s`` as given, which needs at least two
    rows: ``K`` when given, else ``coherence_constant(s, cm)``.  An
    infinite constant means the values are not Lipschitz for the chosen
    metric and nothing can be extended; ``linear`` needs no constant and
    fits regardless.  The standard method keeps the sample as given and
    anchors at the first row where the index is least, whose value is its
    offset; a sample whose values span more than the float range, which
    ``katetov_shift`` cannot shift to minimum 0, raises its ``ValueError``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "linear":
        return ExtensionModel(s, cm, None, "linear", coefficients=linear_fit(s))
    if len(s) < 2:
        raise FitError(f"{method} fit needs at least two rows")
    if method == "standard":
        katetov_shift(s)  # for its check of the values' span alone
    k_val = coherence_constant(s, cm) if K is None else K
    if not math.isfinite(k_val):
        why = ("duplicate points carry distinct values" if _conflicting_duplicates(s)
               else "a ratio |I_i - I_j| / d exceeds the float range")
        raise FitError(f"coherence constant is infinite: {why}")
    if method == "standard":
        anchor = int(np.argmin(s.values))
        return ExtensionModel(s, cm, k_val, method, anchor=anchor, offset=float(s.values[anchor]))
    return ExtensionModel(s, cm, k_val, method, alpha=alpha)


def _conflicting_duplicates(s: IndexedSample) -> bool:
    """Whether two rows of ``s`` share their point but not their value."""
    return len(np.unique(s.points, axis=0)) < len(np.unique(np.c_[s.points, s.values], axis=0))


def linear_fit(s: IndexedSample) -> np.ndarray:
    """Ordinary least squares through the normal equations, intercept first.

    Singular systems get a 1e-10 ridge jitter on the diagonal, which also
    yields a near-minimum-norm solution when underdetermined.  Coefficients
    that are not finite even then, as when the sums of the values overflow,
    raise ``FitError``; numpy's floating-point warnings are silenced here.
    """
    X = np.hstack([np.ones((len(s), 1)), s.points])
    with np.errstate(all="ignore"):
        G = X.T @ X
        b = X.T @ s.values
        try:
            coeffs = np.linalg.solve(G, b)
            if not np.all(np.isfinite(coeffs)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            coeffs = np.linalg.solve(G + 1e-10 * np.eye(G.shape[0]), b)
    if not np.all(np.isfinite(coeffs)):
        raise FitError("linear fit has coefficients that are not finite")
    return coeffs


def _whitney(values: np.ndarray, KD: np.ndarray, out=None, work=None) -> np.ndarray:
    """Whitney predictions from the training values, broadcastable to the
    shape of K times the (q, n) distances.  ``work`` (q, n), which may be
    KD itself, receives the terms I(y) + K d(x, y), and ``out`` (q,) their
    row minima, when given."""
    return np.minimum.reduce(np.add(values, KD, out=work), axis=1, out=out)


def _mcshane(values: np.ndarray, KD: np.ndarray, out=None, work=None) -> np.ndarray:
    """McShane predictions, the row maxima of I(y) - K d(x, y), as ``_whitney``."""
    return np.maximum.reduce(np.subtract(values, KD, out=work), axis=1, out=out)


def _mix(a: float, whitney: np.ndarray, mcshane: np.ndarray, out=None, work=None) -> np.ndarray:
    """The blend (1 - a) * whitney + a * mcshane.  ``out`` and ``work``,
    which may be the inputs themselves, receive the two terms when given."""
    out = np.multiply(1.0 - a, whitney, out=out)
    out += np.multiply(a, mcshane, out=work)
    return out


class BlockPredictions:
    """The predictions of a whitney, mcshane or blend model at q query rows,
    made a block of rows at a time, the one step from composed distances to
    them.

    ``add(rows, d, work)`` takes the block of query rows in the slice
    ``rows``: d holds their composed distances to the model's training
    rows, and ``work`` is a flat float array of at least d's size.  Each
    prediction depends only on its own row, so the blocks, and the order
    they come in, do not change its bits.  ``add`` overwrites both: K·d
    goes into d in place, a blend's Whitney terms into ``work``, and every
    other term into K·d itself, so it allocates nothing.  The constructor
    adds each block of ``blocks``, which may make them one at a time.  A
    blend keeps its Whitney and McShane predictions, and
    ``result(alpha, truth)`` mixes them once every row is added: with
    ``alpha`` when given, else with the ``optimal_alpha`` over all q rows
    against ``truth``.  It returns the (blend weight, predictions), the
    weight None for whitney and mcshane.  Standard models, which read the
    distances to one anchor, are not taken.  Of the model it keeps K, the
    method and the training values, not the training points, so a caller
    may hold many of them before any ``add``.
    """

    def __init__(self, m: ExtensionModel, q: int, blocks=()):
        if m.method not in ("whitney", "mcshane", "blend"):
            raise ValueError(f"method {m.method!r} does not predict from distances")
        self.K, self.method, self.values = m.K, m.method, m.training.values
        self.first = np.empty(q)  # a blend's Whitney predictions
        self.mcshane = np.empty(q) if m.method == "blend" else None
        for rows, d, work in blocks:
            self.add(rows, d, work)

    def add(self, rows: slice, d: np.ndarray, work: np.ndarray) -> None:
        values = self.values
        KD = np.multiply(self.K, d, out=d)
        if self.method == "mcshane":
            _mcshane(values, KD, self.first[rows], KD)
        elif self.method == "whitney":
            _whitney(values, KD, self.first[rows], KD)
        else:
            _whitney(values, KD, self.first[rows], work[: d.size].reshape(d.shape))
            _mcshane(values, KD, self.mcshane[rows], KD)

    def result(self, alpha: float | None = None, truth=None) -> tuple[float | None, np.ndarray]:
        if self.mcshane is None:
            return None, self.first
        a = optimal_alpha(truth, self.first, self.mcshane) if alpha is None else alpha
        return a, _mix(a, self.first, self.mcshane)


def whitney_batch(m: ExtensionModel, X) -> np.ndarray:
    """Whitney's predictions at X from the training values and K of ``m``."""
    return predict(replace(m, method="whitney"), X)


def mcshane_batch(m: ExtensionModel, X) -> np.ndarray:
    """McShane's predictions at X, as ``whitney_batch``."""
    return predict(replace(m, method="mcshane"), X)


def predict(m: ExtensionModel, X) -> np.ndarray:
    """Batch prediction dispatched on the fitted method.

    A linear model takes the least-squares product, a standard one the
    distances to its anchor alone, and the others ``BlockPredictions`` of
    the blocks of ``CompositionMetric.blocks``, made from the points.  A
    blend without an alpha raises ``ValueError``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if m.method == "linear":
        return np.hstack([np.ones((X.shape[0], 1)), X]) @ m.coefficients
    if m.method == "standard":
        return m.offset + m.K * m.cm.pairwise(X, m.training.points[m.anchor, None])[:, 0]
    if m.method == "blend" and m.alpha is None:
        raise ValueError("blend requires an alpha (fit one or pass it)")
    return BlockPredictions(m, X.shape[0], m.cm.blocks(X, m.training.points)).result(m.alpha)[1]


def optimal_alpha(i_true, i_whitney, i_mcshane) -> float:
    """Closed-form least-squares blend weight, clamped to [0, 1].

    Minimizes sum((I - ((1-a)*W + a*M))^2) over a in [0, 1].  The objective
    is a convex quadratic in a, so clamping the stationary point

        a0 = sum((W - I) * (W - M)) / sum((W - M)^2)

    to the unit interval yields the constrained minimizer.  When W == M
    pointwise every alpha is optimal; 0.5 is returned with a warning.  A
    sum that overflows is taken again of the inputs divided by their
    largest magnitude, which leaves a0 as it is, and numpy's floating-point
    warnings are silenced.
    """
    t = np.asarray(i_true, dtype=float).reshape(-1)
    w = np.asarray(i_whitney, dtype=float).reshape(-1)
    m = np.asarray(i_mcshane, dtype=float).reshape(-1)
    if not (t.shape == w.shape == m.shape) or t.size == 0:
        raise ValueError("inputs must be non-empty and of equal length")
    with np.errstate(all="ignore"):
        a = _alpha(t, w, m)
    if a is None:
        warnings.warn(
            "degenerate blend: whitney and mcshane coincide on the reference "
            "set, any alpha is optimal; returning 0.5",
            stacklevel=2,
        )
        return 0.5
    return a


def _alpha(t: np.ndarray, w: np.ndarray, m: np.ndarray, gap=None, work=None) -> float | None:
    """``optimal_alpha`` of (q,) float arrays, unchecked and without its
    warning: None where that warns.  ``gap`` and ``work`` (q,), distinct from the inputs,
    receive W - M and the products when given.  The sums are ``np.add.reduce``,
    which adds in the order of ``.sum()``.  When a sum is not finite though
    every input is, a difference or product overflowed, and the weight is
    that of the inputs divided by their largest magnitude.  numpy's
    floating-point warnings are the caller's to silence."""
    gap = np.subtract(w, m, out=gap)
    denom = float(np.add.reduce(np.multiply(gap, gap, out=work)))
    if denom == 0.0:
        return None
    num = float(np.add.reduce(np.multiply(np.subtract(w, t, out=work), gap, out=work)))
    if not (math.isfinite(num) and math.isfinite(denom)):
        top = float(np.abs(np.stack((t, w, m))).max())
        if top < math.inf:  # every input is finite: no sum overflows below
            return _alpha(t / top, w / top, m / top)
    return min(1.0, max(0.0, num / denom))


def optimal_blend(values: np.ndarray, D: np.ndarray, truth: np.ndarray):
    """``at(K)``: the (weight, predictions) of ``BlockPredictions`` for a
    blend model with constant K, at the query rows of the (q, n) distances
    ``D``, weighted against ``truth``.

    ``values`` are the training values, broadcastable to D's shape: the
    (n,) values of every query row's n training rows, or a (q, n) array of
    each row's own, for rows that each keep their own training rows.  ``at``
    reads D afresh at each call, so the caller may rewrite it in between.
    It forms K * D once per call, in one of two work arrays allocated here
    in D's memory layout, and ``_whitney`` and ``_mcshane`` take their
    terms into the other.  Its (q,) arrays are allocated here too, and it
    returns the predictions in one of them, which the next call
    overwrites.  A degenerate blend takes the weight 0.5, as
    ``optimal_alpha`` gives it, without the warning.
    """
    KD, terms = np.empty_like(D), np.empty_like(D)
    first, second, gap, work = np.empty((4, D.shape[0]))

    def at(K: float) -> tuple[float, np.ndarray]:
        np.multiply(K, D, out=KD)
        _whitney(values, KD, first, terms)
        _mcshane(values, KD, second, terms)
        a = _alpha(truth, first, second, gap, work)
        if a is None:
            a = 0.5
        return a, _mix(a, first, second, first, second)

    return at
