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

Predictions are vectorized over rows.  A Lipschitz prediction depends only
on its own row, so row-by-row calls give the same bits as one batch call.
``fit_extension`` and ``predict_from_distances`` can take the composed
distances as given instead of computing them from the points, so callers
that slice one distance table for many fits get the same bits as fresh
computation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import IndexedSample, coherence_constant, coherence_from_pairs, katetov_shift
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
    offset: float = 0.0  # standard only: pre-shift minimum of the index
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
    d_pairs: np.ndarray | None = None,
) -> ExtensionModel:
    """Fit an extension model on an indexed sample.

    K is the coherence constant computed on ``s``, which needs at least two
    rows.  An infinite constant means the values are not Lipschitz for the
    chosen metric and nothing can be extended; ``linear`` needs no constant
    and fits regardless.  The standard method shifts the sample to zero
    minimum and anchors at the argmin of the shifted values (ties go to the
    lowest row index).

    ``d_pairs`` holds the composed distances of the pairs of ``s`` in
    ``constants.pair_data`` order; None computes them from the points.  The
    distances do not change under the standard method's shift, so one slice
    serves every method.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "linear":
        return ExtensionModel(s, cm, None, "linear", coefficients=linear_fit(s))
    if len(s) < 2:
        raise FitError(f"{method} fit needs at least two rows")
    if method == "standard":
        offset = float(np.min(s.values))
        s = katetov_shift(s)
    if d_pairs is None:
        k_val = coherence_constant(s, cm)
    else:
        k_val = coherence_from_pairs(s.values, d_pairs)
    if method == "standard":
        if not math.isfinite(k_val):
            raise FitError("coherence constant is infinite: standard index unfittable")
        anchor = int(np.argmin(s.values))
        return ExtensionModel(s, cm, k_val, "standard", anchor=anchor, offset=offset)
    if not math.isfinite(k_val):
        raise FitError("coherence constant is infinite: duplicate points carry distinct values")
    return ExtensionModel(s, cm, k_val, method, alpha=alpha)


def linear_fit(s: IndexedSample) -> np.ndarray:
    """Ordinary least squares through the normal equations, intercept first.

    Singular systems get a 1e-10 ridge jitter on the diagonal, which also
    yields a near-minimum-norm solution when underdetermined.
    """
    X = np.hstack([np.ones((len(s), 1)), s.points])
    G = X.T @ X
    b = X.T @ s.values
    try:
        coeffs = np.linalg.solve(G, b)
        if not np.all(np.isfinite(coeffs)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coeffs = np.linalg.solve(G + 1e-10 * np.eye(G.shape[0]), b)
    return coeffs


def linear_predict(coeffs: np.ndarray, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([np.ones((X.shape[0], 1)), X]) @ coeffs


def _dphi_to_training(m: ExtensionModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return m.cm.pairwise(X, m.training.points)


def _whitney(m: ExtensionModel, D: np.ndarray) -> np.ndarray:
    return np.min(m.training.values[None, :] + m.K * D, axis=1)


def _mcshane(m: ExtensionModel, D: np.ndarray) -> np.ndarray:
    return np.max(m.training.values[None, :] - m.K * D, axis=1)


def predict_from_distances(
    m: ExtensionModel, D: np.ndarray, alpha: float | None = None, truth=None
) -> tuple[float | None, np.ndarray]:
    """(blend weight, predictions) of a Lipschitz model from distances.

    ``D`` (q, n) holds the composed distances of the query rows to the
    model's training rows.  A blend model mixes with ``alpha`` when given,
    else with the ``optimal_alpha`` against ``truth``, and raises
    ``ValueError`` with neither; the other methods return None as the
    weight.
    """
    if m.method == "whitney":
        return None, _whitney(m, D)
    if m.method == "mcshane":
        return None, _mcshane(m, D)
    if m.method == "standard":
        return None, m.offset + m.K * D[:, m.anchor]
    if m.method != "blend":
        raise ValueError(f"method {m.method!r} does not predict from distances")
    if alpha is None and truth is None:
        raise ValueError("blend requires an alpha (fit one or pass it)")
    i_w, i_m = _whitney(m, D), _mcshane(m, D)
    a = optimal_alpha(truth, i_w, i_m) if alpha is None else alpha
    return a, (1.0 - a) * i_w + a * i_m


def whitney_batch(m: ExtensionModel, X) -> np.ndarray:
    return _whitney(m, _dphi_to_training(m, X))


def mcshane_batch(m: ExtensionModel, X) -> np.ndarray:
    return _mcshane(m, _dphi_to_training(m, X))


def predict(m: ExtensionModel, X) -> np.ndarray:
    """Batch prediction dispatched on the fitted method."""
    if m.method == "linear":
        return linear_predict(m.coefficients, X)
    return predict_from_distances(m, _dphi_to_training(m, X), m.alpha)[1]


def optimal_alpha(i_true, i_whitney, i_mcshane) -> float:
    """Closed-form least-squares blend weight, clamped to [0, 1].

    Minimizes sum((I - ((1-a)*W + a*M))^2) over a in [0, 1].  The objective
    is a convex quadratic in a, so clamping the stationary point

        a0 = sum((W - I) * (W - M)) / sum((W - M)^2)

    to the unit interval yields the constrained minimizer.  When W == M
    pointwise every alpha is optimal; 0.5 is returned with a warning.
    """
    t = np.asarray(i_true, dtype=float).reshape(-1)
    w = np.asarray(i_whitney, dtype=float).reshape(-1)
    m = np.asarray(i_mcshane, dtype=float).reshape(-1)
    if not (t.shape == w.shape == m.shape) or t.size == 0:
        raise ValueError("inputs must be non-empty and of equal length")
    gap = w - m
    denom = float(np.sum(gap * gap))
    if denom == 0.0:
        warnings.warn(
            "degenerate blend: whitney and mcshane coincide on the reference "
            "set, any alpha is optimal; returning 0.5",
            stacklevel=2,
        )
        return 0.5
    a0 = float(np.sum((w - t) * gap)) / denom
    return min(1.0, max(0.0, a0))
