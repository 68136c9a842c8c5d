import math
import warnings

import numpy as np
import pytest

from lipext.constants import IndexedSample
from lipext.extension import (
    FitError,
    fit_extension,
    linear_fit,
    linear_predict,
    predict,
    predict_from_distances,
)
from lipext.metrics import CompositionMetric
from lipext.phi import ATOM_NAMES, LINEAR_BASIS, SQRT_BASIS, PhiCombination, identity_phi
from lipext.pipeline import (
    _INNER_SPLIT_OFFSET,
    CvReport,
    Dataset,
    cross_validate,
    fit_for_extend,
    minmax_scale,
    objective_test_rmse,
    rank,
    rmse,
    split,
)

from helpers import random_combination, scaled

IDENTITY = CompositionMetric("euclidean", identity_phi())


def make_dataset(features, index, ids=None):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and len(index) > 1:
        features = features.T
    ids = ids or [f"row{i}" for i in range(len(index))]
    names = [f"f{k}" for k in range(features.shape[1])]
    return Dataset(ids, features, np.asarray(index, dtype=float), names)


def table1_like():
    features = np.array(
        [
            [88.0, 88.6, 69.3],
            [68.6, 52.9, 58.7],
            [77.2, 65.0, 72.2],
            [61.0, 78.2, 61.0],
            [47.5, 36.2, 48.6],
            [65.4, 67.0, 72.6],
        ]
    )
    index = [63.0, 49.0, 57.0, np.nan, 48.0, np.nan]
    ids = ["New York", "Los Angeles", "Chicago", "Toronto", "Houston", "Montreal"]
    return Dataset(ids, features, np.array(index), ["walk", "transit", "bike"])


def test_minmax_endpoints_forced():
    ds = minmax_scale(table1_like())
    walk = ds.features[:, 0]
    assert walk[4] == 0.0  # Houston holds the minimum
    assert walk[0] == 1.0  # New York holds the maximum
    assert np.all((ds.features >= 0.0) & (ds.features <= 1.0))


def test_minmax_constant_column_warns():
    ds = make_dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), [1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="constant"):
        scaled = minmax_scale(ds)
    assert np.all(scaled.features[:, 0] == 0.0)


def test_minmax_unit_column_unchanged():
    ds = make_dataset([0.0, 1.0], [1.0, 2.0])
    scaled = minmax_scale(ds)
    assert np.array_equal(scaled.features[:, 0], [0.0, 1.0])


def test_minmax_idempotent():
    ds = minmax_scale(table1_like())
    again = minmax_scale(ds)
    assert np.max(np.abs(again.features - ds.features)) <= 1e-12


def test_minmax_does_not_touch_index():
    ds = minmax_scale(table1_like())
    assert np.array_equal(ds.index[[0, 1, 2, 4]], [63.0, 49.0, 57.0, 48.0])


def test_split_sizes():
    ds = make_dataset(np.arange(10.0), np.arange(10.0))
    train, test = split(ds, 0.7, seed=0)
    assert (train.n_rows, test.n_rows) == (7, 3)


def test_split_seed_determinism():
    ds = make_dataset(np.arange(20.0), np.arange(20.0))
    a1, b1 = split(ds, 0.7, seed=5)
    a2, b2 = split(ds, 0.7, seed=5)
    assert a1.ids == a2.ids and b1.ids == b2.ids


def test_split_101_rows():
    ds = make_dataset(np.arange(101.0), np.arange(101.0))
    train, test = split(ds, 0.7, seed=1)
    assert (train.n_rows, test.n_rows) == (71, 30)


def test_split_disjoint_covering_many_seeds():
    ds = make_dataset(np.arange(17.0), np.arange(17.0))
    for seed in range(1000):
        train, test = split(ds, 0.4, seed=seed)
        assert sorted(train.ids + test.ids) == sorted(ds.ids)
        assert not set(train.ids) & set(test.ids)


def test_split_rejects_degenerate():
    ds = make_dataset(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        split(ds, 0.01, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0.999, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.2, seed=0)


def test_split_ordered():
    ds = make_dataset(np.arange(10.0), np.arange(10.0))
    train, test = split(ds, 0.7, seed=0, method="ordered")
    assert train.ids == [f"row{i}" for i in range(7)]
    assert test.ids == [f"row{i}" for i in range(7, 10)]


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0], [0.0]) == 3.0
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_linear_fit_exact_line():
    s = IndexedSample(np.array([[0.0], [1.0]]), [1.0, 3.0])
    coeffs = linear_fit(s)
    assert coeffs == pytest.approx([1.0, 2.0], abs=1e-9)


def test_linear_fit_constant_target():
    s = IndexedSample(np.array([[0.0], [1.0], [2.0]]), [4.0, 4.0, 4.0])
    coeffs = linear_fit(s)
    assert coeffs[0] == pytest.approx(4.0, abs=1e-9)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-9)


def test_linear_fit_recovers_affine_generator():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(30, 4))
    beta = np.array([2.0, -1.0, 0.5, 3.0, -0.25])
    y = beta[0] + X @ beta[1:]
    s = IndexedSample(X, y)
    coeffs = linear_fit(s)
    residual = np.max(np.abs(linear_predict(coeffs, X) - y))
    assert residual <= 1e-8


def test_linear_fit_singular_system_survives():
    # Duplicate column makes the normal equations singular.
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    s = IndexedSample(X, [2.0, 4.0, 6.0])
    coeffs = linear_fit(s)
    assert np.max(np.abs(linear_predict(coeffs, X) - s.values)) <= 1e-4


def test_rank_ordering():
    ds = make_dataset([0.0, 1.0], [np.nan, np.nan], ids=["Toronto", "Montreal"])
    rows = rank(ds, [60.0, 62.0])
    assert rows == [(1, "Montreal", 62.0), (2, "Toronto", 60.0)]


def test_rank_tie_breaks_alphabetically():
    ds = make_dataset([0.0, 1.0, 2.0], [np.nan] * 3, ids=["b", "a", "c"])
    rows = rank(ds, [5.0, 5.0, 5.0])
    assert [r[1] for r in rows] == ["a", "b", "c"]


def test_rank_is_a_permutation():
    rng = np.random.default_rng(1)
    ids = [f"city{i}" for i in range(22)]
    ds = make_dataset(np.arange(22.0), [np.nan] * 22, ids=ids)
    rows = rank(ds, rng.uniform(0.0, 100.0, 22))
    assert len(rows) == 22
    assert sorted(r[1] for r in rows) == sorted(ids)
    assert [r[0] for r in rows] == list(range(1, 23))


@pytest.mark.filterwarnings("ignore:degenerate blend")
def test_cv_exact_on_affine_line():
    # One-dimensional affine data: both extensions interpolate the line
    # exactly, so the held-out error vanishes (and the blend degenerates).
    ds = make_dataset([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    report = cross_validate(ds, "blend", IDENTITY, repeats=1, seed=0)
    assert report.per_repeat_rmse[0] <= 1e-9


def test_cv_deterministic_apart_from_timing():
    ds = minmax_scale(table1_like())
    r1 = cross_validate(ds, "blend", IDENTITY, repeats=20, seed=3)
    r2 = cross_validate(ds, "blend", IDENTITY, repeats=20, seed=3)
    assert r1.per_repeat_rmse == r2.per_repeat_rmse
    assert (r1.mean, r1.median, r1.std_dev) == (r2.mean, r2.median, r2.std_dev)
    assert r1.failed == r2.failed == 0


def test_cv_statistics_consistent():
    ds = minmax_scale(table1_like())
    report = cross_validate(ds, "whitney", IDENTITY, repeats=20, seed=7)
    arr = np.asarray(report.per_repeat_rmse)
    assert abs(report.mean - float(np.mean(arr))) <= 1e-12
    assert abs(report.median - float(np.median(arr))) <= 1e-12
    assert abs(report.std_dev - float(np.std(arr))) <= 1e-12
    assert len(report.per_repeat_rmse) == 20
    assert report.seconds_per_iteration >= 0.0


def test_cv_all_methods_run():
    ds = minmax_scale(table1_like())
    for method in ("mcshane", "whitney", "blend", "standard", "linear"):
        report = cross_validate(ds, method, IDENTITY, repeats=3, seed=2)
        assert report.method == method
        assert report.failed == 0
        assert all(v >= 0.0 for v in report.per_repeat_rmse)


def test_cv_honest_alpha_mode():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng.uniform(size=(30, 2)), rng.uniform(0.0, 10.0, 30))
    report = cross_validate(ds, "blend", IDENTITY, repeats=5, seed=1, honest_alpha=True)
    assert report.failed == 0


def test_cv_counts_failed_repeats():
    # Duplicate points with distinct values make some splits unfittable.
    ds = make_dataset([0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    report = cross_validate(ds, "whitney", IDENTITY, repeats=20, seed=0)
    assert report.failed > 0
    assert len(report.per_repeat_rmse) == 20 - report.failed


def test_cv_scale_invariance_of_rmse():
    ds = minmax_scale(table1_like())
    phi = PhiCombination(("identity", "log1p"), (1.0, 0.5))
    base = cross_validate(ds, "blend", CompositionMetric("euclidean", phi), repeats=5, seed=9)
    for c in (0.1, 3.0, 42.0):
        rescaled = cross_validate(
            ds, "blend", CompositionMetric("euclidean", scaled(phi, c)), repeats=5, seed=9
        )
        for a, b in zip(base.per_repeat_rmse, rescaled.per_repeat_rmse):
            assert a == pytest.approx(b, rel=1e-9)


def test_cv_repeat_rows_shape():
    # cv_repeats.csv has one (repeat, rmse) row per entry of per_repeat_rmse.
    ds = minmax_scale(table1_like())
    report = cross_validate(ds, "standard", IDENTITY, repeats=4, seed=0)
    assert report.failed == 0
    assert len(report.per_repeat_rmse) == report.repeats == 4
    assert all(math.isfinite(v) and v >= 0.0 for v in report.per_repeat_rmse)
    assert report.to_json_dict()["per_repeat_rmse"] == list(report.per_repeat_rmse)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alpha": 1.5}, "alpha must lie in"),
        ({"alpha": -0.1}, "alpha must lie in"),
        ({"alpha": math.nan}, "alpha must lie in"),
        ({"repeats": 0}, "repeats must be"),
    ],
)
def test_cv_rejects_out_of_range_arguments(kwargs, message):
    ds = minmax_scale(table1_like())
    with pytest.raises(ValueError, match=message):
        cross_validate(ds, "blend", IDENTITY, **kwargs)


def test_cv_workers_do_not_change_results():
    ds = minmax_scale(table1_like())
    serial = cross_validate(ds, "blend", IDENTITY, repeats=8, seed=4)
    threaded = cross_validate(ds, "blend", IDENTITY, repeats=8, seed=4, workers=4)
    assert serial.per_repeat_rmse == threaded.per_repeat_rmse


def test_objective_test_rmse_finite_and_penalizes_unfittable():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.uniform(size=(20, 3)), rng.uniform(0.0, 10.0, 20))
    atoms = ("identity", "log1p")
    obj = objective_test_rmse(ds, "euclidean", atoms, seed=2)
    val = obj(np.array([1.0, 0.0]))
    assert math.isfinite(val) and val >= 0.0
    # Identical coefficients give identical values: the split is frozen.
    assert obj(np.array([1.0, 0.0])) == val


def test_objective_test_rmse_rejects_one_training_row():
    ds = make_dataset([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="2 indexed rows at train_fraction 0.7 leaves 1"):
        objective_test_rmse(ds, "euclidean", ("identity",))


def test_cv_counts_one_row_inner_split_as_failed():
    # Four rows at 0.6 train on two; the honest inner split of those two
    # trains on one, which cannot be fitted.
    ds = make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(FitError, match="every cross-validation repeat failed"):
        cross_validate(ds, "blend", IDENTITY, repeats=3, train_fraction=0.6, honest_alpha=True)


def test_fit_for_extend_falls_back_only_on_too_few_training_rows():
    clash = make_dataset([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError):
            fit_for_extend(clash, IDENTITY, "blend", split_method="ordered")
        for bad in ({"split_method": "bogus"}, {"train_fraction": 1.5}):
            with pytest.raises(ValueError):
                fit_for_extend(clash, IDENTITY, "blend", **bad)
    two = make_dataset([0.0, 1.0], [1.0, 2.0])  # one training row at 0.7
    with pytest.warns(UserWarning, match="too few indexed rows"):
        assert fit_for_extend(two, IDENTITY, "blend").alpha == 0.5


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(["a"], np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), ["f0"])
    with pytest.raises(ValueError):
        Dataset(["a"], np.array([[np.inf]]), np.array([1.0]), ["f0"])


# ---------------------------------------------------------------------------
# equivalence of the shared distance table with fitting each split afresh


def smooth_dataset(n=200, m=3, seed=0, duplicates=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, m))
    y = 1.0 + X @ rng.uniform(0.5, 1.5, m) + 0.25 * np.sin(6.0 * X[:, 0])
    y = y + 0.01 * rng.normal(size=n)
    y[rng.choice(n, n // 10, replace=False)] = np.nan
    if duplicates:
        # A conflicting duplicate: repeats that train on both rows fail.
        X[1] = X[0]
        y[0], y[1] = 1.0, 2.0
    return make_dataset(X, y)


def blend_at(model, X, alpha=None, truth=None):
    """(weight, predictions) of a blend model at X, distances computed afresh."""
    return predict_from_distances(model, model.cm.pairwise(X, model.training.points), alpha, truth)


def naive_cv(ds, method, cm, repeats, seed, alpha, honest_alpha, split_method):
    """Split, fit on the training rows and predict the test rows, from scratch."""
    indexed = ds.indexed_rows()
    scores = []
    for r in range(repeats):
        train, test = split(indexed, 0.7, seed + r, split_method)
        a = alpha
        try:
            if method == "blend" and a is None and honest_alpha:
                inner, held = split(train, 0.7, seed + r + _INNER_SPLIT_OFFSET)
                model = fit_extension(inner.as_sample(), cm, "blend")
                a = blend_at(model, held.features, truth=held.index)[0]
            model = fit_extension(train.as_sample(), cm, method)
        except FitError:
            continue
        if method == "blend":
            pred = blend_at(model, test.features, a, test.index)[1]
        else:
            pred = predict(model, test.features)
        scores.append(rmse(pred, test.index))
    return tuple(scores)


@pytest.mark.filterwarnings("ignore:degenerate blend")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("honest_alpha", [False, True])
@pytest.mark.parametrize("split_method", ["random", "ordered"])
@pytest.mark.parametrize("method", ["mcshane", "whitney", "blend", "standard", "linear"])
def test_cv_matches_fitting_each_split_afresh(method, split_method, honest_alpha, workers):
    ds = smooth_dataset()
    phi = random_combination(np.random.default_rng(1), ATOM_NAMES)
    cm = CompositionMetric("euclidean", phi)
    report = cross_validate(
        ds, method, cm, repeats=6, seed=3, honest_alpha=honest_alpha,
        split_method=split_method, workers=workers,
    )
    expected = naive_cv(ds, method, cm, 6, 3, None, honest_alpha, split_method)
    assert report.per_repeat_rmse == expected
    assert report.failed == 0


@pytest.mark.parametrize("kind", ["manhattan", "chebyshev"])
@pytest.mark.parametrize("method", ["mcshane", "whitney", "blend", "standard"])
def test_cv_matches_afresh_with_failed_repeats_and_fixed_alpha(kind, method):
    ds = smooth_dataset(seed=2, duplicates=True)
    cm = CompositionMetric(kind, PhiCombination(SQRT_BASIS, (0.5, 1.0, 2.0, 0.25)))
    report = cross_validate(ds, method, cm, repeats=10, seed=0, alpha=0.3, workers=2)
    expected = naive_cv(ds, method, cm, 10, 0, 0.3, False, "random")
    assert report.per_repeat_rmse == expected
    assert report.failed == 10 - len(expected) > 0


def naive_test_rmse(ds, base, atoms, lam, seed):
    train, test = split(ds, 0.7, seed)
    lam = np.asarray(lam, dtype=float)
    if np.all(lam == 0.0):
        lam = np.eye(len(atoms))[0] * 1e-9
    cm = CompositionMetric(base, PhiCombination(atoms, tuple(float(v) for v in lam)))
    try:
        model = fit_extension(train.as_sample(), cm, "blend")
    except FitError:
        return math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = blend_at(model, test.features, truth=test.index)[1]
    return rmse(pred, test.index)


@pytest.mark.parametrize(
    "base, atoms", [("euclidean", LINEAR_BASIS), ("manhattan", SQRT_BASIS)]
)
def test_objective_test_rmse_matches_refitting(base, atoms):
    ds = smooth_dataset(seed=5).indexed_rows()
    obj = objective_test_rmse(ds, base, atoms, seed=4)
    rng = np.random.default_rng(6)
    lams = [np.zeros(len(atoms))] + list(rng.uniform(0.0, 10.0, size=(200, len(atoms))))
    lams[1][1:] = 0.0  # one single-atom candidate
    for lam in lams:
        assert obj(lam) == naive_test_rmse(ds, base, atoms, lam, 4)


def test_objective_test_rmse_infinite_on_conflicting_duplicates():
    # Four copies of one point with distinct values: at least two of them
    # land on the training side.
    ds = make_dataset([[0.0]] * 4 + [[1.0], [2.0], [3.0], [4.0]], np.arange(8.0))
    obj = objective_test_rmse(ds, "euclidean", LINEAR_BASIS, seed=0)
    lam = np.array([1.0, 0.5, 0.0, 2.0])
    assert naive_test_rmse(ds, "euclidean", LINEAR_BASIS, lam, 0) == math.inf
    assert obj(lam) == math.inf
