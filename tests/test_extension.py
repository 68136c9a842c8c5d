import math
from dataclasses import replace

import numpy as np
import pytest

from lipext.constants import (
    IndexedSample,
    coherence_constant,
    constants_report,
    index_bound,
    katetov_shift,
)
from lipext.extension import (
    FitError,
    fit_extension,
    mcshane_batch,
    optimal_alpha,
    predict,
    predict_from_distances,
    whitney_batch,
)
from lipext.metrics import CompositionMetric
from lipext.phi import identity_phi

import oracles
from helpers import random_combination, scaled

IDENTITY = CompositionMetric("euclidean", identity_phi())


def line_sample(xs, values):
    return IndexedSample(np.array(xs, dtype=float).reshape(-1, 1), values)


def at(batch, model, x, *args) -> float:
    """One prediction from a batch routine, at the single point x."""
    return float(batch(model, np.asarray(x, dtype=float)[None, :], *args)[0])


def blend(model, X, alpha) -> np.ndarray:
    """Blend of ``model``'s extensions at X with the weight ``alpha``."""
    return predict(replace(model, method="blend", alpha=alpha), X)


@pytest.fixture
def two_point_model():
    # Points {0, 2} with values (0, 2); the coherence constant is 1.
    return fit_extension(line_sample([0.0, 2.0], [0.0, 2.0]), IDENTITY, "whitney")


def test_whitney_between_points(two_point_model):
    assert at(whitney_batch, two_point_model, [1.0]) == 1.0


def test_whitney_beyond_points(two_point_model):
    assert at(whitney_batch, two_point_model, [3.0]) == 3.0


def test_mcshane_values(two_point_model):
    assert at(mcshane_batch, two_point_model, [3.0]) == 1.0
    assert at(mcshane_batch, two_point_model, [1.0]) == 1.0


def test_interpolation_at_training_points():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = int(rng.integers(2, 20)), int(rng.integers(1, 5))
        s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 10.0, n))
        phi = random_combination(rng)
        model = fit_extension(s, CompositionMetric("euclidean", phi), "whitney")
        assert np.max(np.abs(whitney_batch(model, s.points) - s.values)) <= 1e-9
        assert np.max(np.abs(mcshane_batch(model, s.points) - s.values)) <= 1e-9


def test_blend_endpoints(two_point_model):
    x = [0.7]
    assert at(blend, two_point_model, x, 0.0) == at(whitney_batch, two_point_model, x)
    assert at(blend, two_point_model, x, 1.0) == at(mcshane_batch, two_point_model, x)


def test_blend_midpoint(two_point_model):
    assert at(blend, two_point_model, [3.0], 0.5) == 2.0


def test_blend_alpha_out_of_range(two_point_model):
    with pytest.raises(ValueError):
        at(blend, two_point_model, [1.0], 1.5)
    with pytest.raises(ValueError):
        fit_extension(line_sample([0.0, 1.0], [0.0, 1.0]), IDENTITY, "blend", alpha=-0.1)


def test_sandwich_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, m = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 10.0, n))
        cm = CompositionMetric("euclidean", random_combination(rng))
        model = fit_extension(s, cm, "whitney")
        X = rng.uniform(-0.5, 1.5, size=(100, m))
        alpha = float(rng.uniform())
        w = whitney_batch(model, X)
        mc = mcshane_batch(model, X)
        bl = blend(model, X, alpha)
        assert np.all(mc <= w + 1e-9)
        assert np.all(mc - 1e-9 <= bl) and np.all(bl <= w + 1e-9)


def test_predictions_are_lipschitz():
    rng = np.random.default_rng(2)
    s = IndexedSample(rng.uniform(size=(15, 3)), rng.uniform(0.0, 5.0, 15))
    cm = CompositionMetric("euclidean", random_combination(rng))
    model = fit_extension(s, cm, "whitney")
    X = rng.uniform(-0.5, 1.5, size=(200, 3))
    Y = rng.uniform(-0.5, 1.5, size=(200, 3))
    gaps = np.diagonal(cm.pairwise(X, Y))
    for batch in (whitney_batch, mcshane_batch, lambda m, Z: blend(m, Z, 0.3)):
        fx = batch(model, X)
        fy = batch(model, Y)
        assert np.all(np.abs(fx - fy) <= model.K * gaps + 1e-9)


def test_optimal_alpha_closed_form():
    assert optimal_alpha([2.0, 6.0], [5.0, 7.0], [1.0, 3.0]) == 0.5


def test_optimal_alpha_endpoints():
    i_w = [4.0, 9.0, 1.0]
    i_m = [2.0, 3.0, 0.0]
    assert optimal_alpha(i_w, i_w, i_m) == 0.0
    assert optimal_alpha(i_m, i_w, i_m) == 1.0


def test_optimal_alpha_beats_grid():
    rng = np.random.default_rng(3)
    grid = [k / 1000.0 for k in range(1001)]
    for _ in range(30):
        n = int(rng.integers(1, 12))
        truth = rng.uniform(-5.0, 5.0, n).tolist()
        i_w = rng.uniform(-5.0, 5.0, n).tolist()
        i_m = rng.uniform(-5.0, 5.0, n).tolist()
        a0 = optimal_alpha(truth, i_w, i_m)
        best = oracles.blend_sse(truth, i_w, i_m, a0)
        for a in grid:
            assert best <= oracles.blend_sse(truth, i_w, i_m, a) + 1e-9


def test_optimal_alpha_degenerate_warns():
    same = [1.0, 2.0]
    with pytest.warns(UserWarning, match="degenerate blend"):
        assert optimal_alpha([0.0, 1.0], same, same) == 0.5


def test_optimal_alpha_bad_lengths():
    with pytest.raises(ValueError):
        optimal_alpha([1.0], [1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        optimal_alpha([], [], [])


def test_standard_fit_exact_recovery():
    s = line_sample([0.0, 1.0], [0.0, 2.0])
    model = fit_extension(s, IDENTITY, "standard")
    assert model.K == 2.0
    assert model.anchor == 0
    assert at(predict, model, [1.0]) == 2.0
    assert at(predict, model, [0.0]) == 0.0


def test_standard_fit_affine_line():
    s = line_sample([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    model = fit_extension(s, IDENTITY, "standard")
    assert model.K == 1.0
    assert model.anchor == 0
    assert np.array_equal(predict(model, s.points), [0.0, 1.0, 2.0])


def test_standard_prediction_at_anchor_is_pre_shift_min():
    rng = np.random.default_rng(4)
    s = IndexedSample(rng.uniform(size=(8, 2)), rng.uniform(3.0, 9.0, 8))
    model = fit_extension(s, IDENTITY, "standard")
    anchor_point = model.training.points[model.anchor]
    assert at(predict, model, anchor_point) == float(np.min(s.values))


def test_standard_anchor_tie_breaks_on_lowest_row():
    s = line_sample([0.0, 1.0, 2.0], [5.0, 3.0, 3.0])
    model = fit_extension(s, IDENTITY, "standard")
    assert model.anchor == 1


def test_unfittable_when_constant_infinite():
    s = line_sample([1.0, 1.0], [0.0, 2.0])
    with pytest.raises(FitError):
        fit_extension(s, IDENTITY, "whitney")
    with pytest.raises(FitError):
        fit_extension(s, IDENTITY, "standard")


@pytest.mark.filterwarnings("ignore:K\\*Q")
def test_standard_error_bounded_on_training_rows():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n, m = int(rng.integers(2, 25)), int(rng.integers(1, 5))
        s = katetov_shift(
            IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 10.0, n))
        )
        cm = CompositionMetric("euclidean", random_combination(rng))
        K = coherence_constant(s, cm)
        Q = constants_report(s, cm).Q
        if not (math.isfinite(K) and math.isfinite(Q)):
            continue
        bound = (K * Q - 1.0) * index_bound(s)
        model = fit_extension(s, cm, "standard")
        errors = np.abs(predict(model, s.points) - s.values)
        assert np.max(errors) <= bound + 1e-9
        w_model = fit_extension(s, cm, "whitney")
        w_errors = np.abs(predict(w_model, s.points) - s.values)
        assert np.max(w_errors) <= bound + 1e-9


def test_coefficient_scaling_leaves_predictions_unchanged():
    rng = np.random.default_rng(6)
    s = IndexedSample(rng.uniform(size=(12, 3)), rng.uniform(0.0, 10.0, 12))
    phi = random_combination(rng)
    X = rng.uniform(size=(40, 3))
    for c in (0.1, 3.0, 42.0):
        base_cm = CompositionMetric("euclidean", phi)
        scaled_cm = CompositionMetric("euclidean", scaled(phi, c))
        for method in ("whitney", "mcshane", "standard"):
            m1 = fit_extension(s, base_cm, method)
            m2 = fit_extension(s, scaled_cm, method)
            np.testing.assert_allclose(predict(m1, X), predict(m2, X), rtol=1e-9)
        b1 = fit_extension(s, base_cm, "blend", alpha=0.3)
        b2 = fit_extension(s, scaled_cm, "blend", alpha=0.3)
        np.testing.assert_allclose(predict(b1, X), predict(b2, X), rtol=1e-9)


def test_matches_double_loop_oracles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 10.0, n))
        phi = random_combination(rng)
        cm = CompositionMetric("euclidean", phi)
        K = coherence_constant(s, cm)
        model = fit_extension(s, cm, "whitney")
        std_model = fit_extension(s, cm, "standard")
        pts = s.points.tolist()
        vals = s.values.tolist()
        for _ in range(5):
            x = rng.uniform(size=m)
            args = (pts, vals, "euclidean", phi.atoms, phi.coefficients, K)
            assert at(whitney_batch, model, x) == pytest.approx(
                oracles.whitney(*args, x.tolist()), rel=1e-12, abs=1e-12
            )
            assert at(mcshane_batch, model, x) == pytest.approx(
                oracles.mcshane(*args, x.tolist()), rel=1e-12, abs=1e-12
            )
            assert at(predict, std_model, x) == pytest.approx(
                oracles.standard(*args, x.tolist()), rel=1e-12, abs=1e-12
            )


def test_empty_training_rejected():
    with pytest.raises((FitError, ValueError)):
        fit_extension(IndexedSample(np.empty((0, 1)), []), IDENTITY, "whitney")


@pytest.mark.parametrize("method", ["whitney", "mcshane", "blend", "standard"])
@pytest.mark.parametrize("given", [False, True], ids=["points", "pairs"])
def test_one_row_lipschitz_fit_is_unfittable(method, given):
    one = IndexedSample(np.array([[0.5]]), [3.0])
    d_pairs = np.empty(0) if given else None
    with pytest.raises(FitError, match="at least two rows"):
        fit_extension(one, IDENTITY, method, d_pairs=d_pairs)
    assert fit_extension(one, IDENTITY, "linear").method == "linear"


def test_batch_and_single_agree():
    rng = np.random.default_rng(8)
    s = IndexedSample(rng.uniform(size=(9, 2)), rng.uniform(0.0, 4.0, 9))
    X = rng.uniform(size=(6, 2))
    for method in ("mcshane", "whitney", "blend", "standard"):
        model = fit_extension(s, IDENTITY, method, alpha=0.25 if method == "blend" else None)
        batch = predict(model, X)
        singles = [predict(model, x[None, :])[0] for x in X]
        assert np.array_equal(batch, singles), method


def test_blend_from_distances_picks_optimal_alpha_and_mixes():
    rng = np.random.default_rng(9)
    s = IndexedSample(rng.uniform(size=(12, 3)), rng.uniform(0.0, 5.0, 12))
    model = fit_extension(s, CompositionMetric("euclidean", random_combination(rng)), "blend")
    X = rng.uniform(size=(20, 3))
    D = model.cm.pairwise(X, model.training.points)
    truth = rng.uniform(0.0, 5.0, 20)
    i_w, i_m = whitney_batch(model, X), mcshane_batch(model, X)
    a, pred = predict_from_distances(model, D, truth=truth)
    assert a == optimal_alpha(truth, i_w, i_m)
    assert np.array_equal(pred, (1.0 - a) * i_w + a * i_m)
    assert np.array_equal(pred, blend(model, X, a))
    assert predict_from_distances(model, D, 0.3)[0] == 0.3
    with pytest.raises(ValueError, match="blend requires an alpha"):
        predict(model, X)


def test_linear_fits_where_coherence_is_infinite():
    s = line_sample([1.0, 1.0, 2.0], [0.0, 2.0, 4.0])
    with pytest.raises(FitError):
        fit_extension(s, IDENTITY, "whitney")
    model = fit_extension(s, IDENTITY, "linear")
    assert model.K is None
    np.testing.assert_allclose(predict(model, [[3.0]]), [7.0], rtol=1e-9)
