import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lipext import constants, metrics
from lipext.constants import (
    IndexedSample,
    coherence_constant,
    katetov_shift,
    ratio_max,
    undominated,
)
from lipext.dataio import json_text
from lipext.extension import (
    FitError,
    fit_extension,
    linear_fit,
    predict,
    predict_in_blocks,
)
from lipext.metrics import BASE_METRICS, CompositionMetric, pairwise_base
from lipext.phi import (
    ATOM_NAMES,
    LINEAR_BASIS,
    SQRT_BASIS,
    PhiCombination,
    atom_values,
    identity_phi,
)
from lipext.pipeline import (
    _INNER_SPLIT_OFFSET,
    CvReport,
    Dataset,
    PairTable,
    _median,
    _split_rows,
    cross_validate,
    fit_for_extend,
    minmax_scale,
    objective_test_rmse,
    rank,
    rmse,
    split,
)

from helpers import distance_blocks, predict_from, random_combination, record_blocks, scaled, tiles

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


@pytest.mark.parametrize("index", [[np.nan, np.nan, np.nan], [1.0, np.nan, np.nan]])
def test_minmax_needs_two_rows_to_fit_on(index):
    ds = make_dataset([0.0, 1.0, 2.0], index)
    assert minmax_scale(ds).features[2, 0] == 1.0
    with pytest.raises(ValueError, match="needs at least two rows"):
        minmax_scale(ds, fit_on="indexed")


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
    model = fit_extension(IndexedSample(X, y), IDENTITY, "linear")
    residual = np.max(np.abs(predict(model, X) - y))
    assert residual <= 1e-8


def test_linear_fit_singular_system_survives():
    # Duplicate column makes the normal equations singular.
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    s = IndexedSample(X, [2.0, 4.0, 6.0])
    model = fit_extension(s, IDENTITY, "linear")
    assert np.max(np.abs(predict(model, X) - s.values)) <= 1e-4


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
    assert r1 == r2  # the report holds no timing


def test_cv_statistics_consistent():
    ds = minmax_scale(table1_like())
    report = cross_validate(ds, "whitney", IDENTITY, repeats=20, seed=7)
    arr = np.asarray(report.per_repeat_rmse)
    assert abs(report.mean - float(np.mean(arr))) <= 1e-12
    assert abs(report.median - float(np.median(arr))) <= 1e-12
    assert abs(report.std_dev - float(np.std(arr))) <= 1e-12
    assert len(report.per_repeat_rmse) == 20


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
    assert json.loads(json_text(report))["per_repeat_rmse"] == list(report.per_repeat_rmse)


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


def test_rmse_sums_in_the_order_of_mean():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000):
        p, t = rng.normal(size=(2, n))
        assert rmse(p, t) == math.sqrt(((p - t) ** 2).mean())


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("n", range(1, 14))
def test_cv_median_matches_numpy_bit_for_bit(n):
    # Ties, signed zeros, an infinity and NaNs at odd and even lengths.
    rng = np.random.default_rng(n)
    pool = np.array([0.0, -0.0, 0.1, 0.2, 1.5, 1.5, -3.0, math.inf])
    for trial in range(60):
        arr = rng.choice(pool, n) if trial % 2 else rng.normal(size=n)
        if trial % 5 == 0:
            arr[rng.integers(n, size=1 + trial % 3)] = math.nan
        assert _bits(_median(arr)) == _bits(np.median(arr))


def test_objective_test_rmse_finite_and_penalizes_unfittable():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.uniform(size=(20, 3)), rng.uniform(0.0, 10.0, 20))
    atoms = ("identity", "log1p")
    obj = objective_test_rmse(ds, "euclidean", atoms, seed=2)
    val = obj(np.array([1.0, 0.0]))
    assert math.isfinite(val) and val >= 0.0
    # Identical coefficients give identical values: the split is frozen.
    assert obj(np.array([1.0, 0.0])) == val
    # Rows 10-19 repeat the points of rows 0-9 with other values.  Fourteen
    # training rows from ten such pairs hold both rows of at least four, so
    # K is infinite and no candidate can be fitted.
    X, y = ds.features.copy(), ds.index.copy()
    X[10:], y[10:] = X[:10], y[:10] + 1.0
    unfittable = objective_test_rmse(make_dataset(X, y), "euclidean", atoms, seed=2)
    for lam in ([1.0, 0.0], [0.0, 3.0], [0.2, 5.0]):
        assert unfittable(np.array(lam)) == math.inf


@pytest.mark.parametrize(
    "lam, message",
    [
        ([1.0, 0.0, 0.0], "4 atoms but 3 coefficients"),
        ([0.0] * 5, "4 atoms but 5 coefficients"),
        ([1.0, -0.5, 0.0, 0.0], "finite and >= 0"),
        ([0.0, 0.0, 0.0, -1.0], "finite and >= 0"),
        ([1.0, math.nan, 0.0, 0.0], "finite and >= 0"),
        ([math.nan, 0.0, 0.0, 0.0], "finite and >= 0"),
        ([0.0, 0.0, math.inf, 0.0], "finite and >= 0"),
    ],
)
def test_objective_test_rmse_checks_each_candidate_first(lam, message):
    # A wrong length, a negative, a NaN or an inf coefficient is an error,
    # as ``PhiCombination`` makes it, even where the rest of the vector is
    # zero; only the zero vector of the right length scores +inf.
    obj = objective_test_rmse(smooth_dataset(n=30, seed=1).indexed_rows(), "euclidean", LINEAR_BASIS)
    with pytest.raises(ValueError, match=message):
        obj(np.array(lam))
    assert obj(np.zeros(4)) == obj(np.array([-0.0] * 4)) == math.inf


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


@pytest.mark.parametrize("train_fraction", [0.9, 0.2])
def test_cv_counts_too_small_inner_split_as_failed(train_fraction):
    # Six rows at 0.9 train on five, whose inner split at 0.9 holds none
    # out; at 0.2 they train on one, whose inner split trains on none.
    ds = make_dataset(np.arange(6.0), [0.0, 1.0, 4.0, 2.0, 3.0, 5.0])
    with pytest.raises(FitError, match="every cross-validation repeat failed"):
        cross_validate(ds, "blend", IDENTITY, repeats=3, train_fraction=train_fraction,
                       honest_alpha=True)


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
# equivalence of cv's shared list and sweep with fitting each split afresh


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
    D = model.cm.pairwise(X, model.training.points)
    return predict_in_blocks(model, len(D), distance_blocks(D), alpha, truth)


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
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("honest_alpha", [False, True])
@pytest.mark.parametrize("split_method", ["random", "ordered"])
@pytest.mark.parametrize("method", ["mcshane", "whitney", "blend", "standard", "linear"])
def test_cv_matches_fitting_each_split_afresh(method, split_method, honest_alpha, seed):
    ds = smooth_dataset()
    phi = random_combination(np.random.default_rng(1), ATOM_NAMES)
    cm = CompositionMetric("euclidean", phi)
    report = cross_validate(
        ds, method, cm, repeats=6, seed=seed, honest_alpha=honest_alpha,
        split_method=split_method,
    )
    expected = naive_cv(ds, method, cm, 6, seed, None, honest_alpha, split_method)
    assert report.per_repeat_rmse == expected
    assert report.failed == 0


@pytest.mark.parametrize("kind", ["manhattan", "chebyshev"])
@pytest.mark.parametrize("method", ["mcshane", "whitney", "blend", "standard"])
def test_cv_matches_afresh_with_failed_repeats_and_fixed_alpha(kind, method):
    ds = smooth_dataset(seed=2, duplicates=True)
    cm = CompositionMetric(kind, PhiCombination(SQRT_BASIS, (0.5, 1.0, 2.0, 0.25)))
    report = cross_validate(ds, method, cm, repeats=10, seed=0, alpha=0.3)
    expected = naive_cv(ds, method, cm, 10, 0, 0.3, False, "random")
    assert report.per_repeat_rmse == expected
    assert report.failed == 10 - len(expected) > 0


@pytest.mark.filterwarnings("ignore:degenerate blend")
@pytest.mark.parametrize("tile", [1, 3, 50])
@pytest.mark.parametrize("method, alpha, honest_alpha", [
    ("whitney", None, False), ("mcshane", None, False), ("standard", None, False),
    ("linear", None, False), ("blend", None, False), ("blend", None, True), ("blend", 0.3, False),
])
def test_cv_sweep_in_row_blocks_matches_fitting_each_split_afresh(method, alpha, honest_alpha,
                                                                   tile, monkeypatch):
    # cv's sweep takes every indexed row against every one a block of rows
    # at a time: blocks of one row, of three, and of 50, which split each
    # repeat's 54 test rows and the nested fit's held-out rows across
    # blocks.  Repeats that train on a conflicting duplicate fail, some
    # after their nested fit succeeds.
    ds = smooth_dataset(seed=2, duplicates=True)
    n = ds.indexed_rows().n_rows
    cm = CompositionMetric("manhattan", PhiCombination(SQRT_BASIS, (0.5, 1.0, 2.0, 0.25)))
    expected = naive_cv(ds, method, cm, 10, 0, alpha, honest_alpha, "random")
    sizes, blocks = [], CompositionMetric.blocks

    def recording(self, A, B, out=None):
        for block in blocks(self, A, B, out):
            sizes.append(len(range(len(A))[block[0]]))
            yield block

    monkeypatch.setattr(CompositionMetric, "blocks", recording)
    # Base distances, d and work: three (rows, n) arrays a block.
    monkeypatch.setattr(metrics, "TILE_BYTES", 3 * 8 * n * tile)
    report = cross_validate(ds, method, cm, repeats=10, seed=0, alpha=alpha,
                            honest_alpha=honest_alpha)
    assert report.per_repeat_rmse == expected
    assert report.failed == 10 - len(expected)
    assert report.failed > 0 or method == "linear"
    if method not in ("standard", "linear"):
        assert sizes == tiles(n, tile)  # one sweep serves every repeat


def naive_test_rmse(ds, base, atoms, lam, seed):
    train, test = split(ds, 0.7, seed)
    lam = np.asarray(lam, dtype=float)
    if np.all(lam == 0.0):
        return math.inf  # not a modulus
    cm = CompositionMetric(base, PhiCombination(atoms, tuple(float(v) for v in lam)))
    try:
        model = fit_extension(train.as_sample(), cm, "blend")
    except FitError:
        return math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = blend_at(model, test.features, truth=test.index)[1]
    return rmse(pred, test.index)


def equal_duplicates_dataset():
    """Indexed rows where every fifth row repeats the point and the value of
    the row before it, so some training pairs are 0/0 and some test rows lie
    at distance 0 from a training row."""
    ds = smooth_dataset(n=120, seed=8).indexed_rows()
    X, y = ds.features.copy(), ds.index.copy()
    copies = np.arange(1, ds.n_rows, 5)
    X[copies], y[copies] = X[copies - 1], y[copies - 1]
    return make_dataset(X, y)


def rmse_candidates(n_atoms, rng):
    """The zero vector, single-atom rays (the first of them the identity
    lambda (1, 0, ..., 0) scaled by 1e-9) and random vectors, some of them
    with zeros."""
    lams = [np.zeros(n_atoms)]
    lams += [c * e for e in np.eye(n_atoms) for c in (1e-9, 0.3, 7.0)]
    lams += list(rng.uniform(0.0, 10.0, size=(51, n_atoms)))
    sparse = rng.uniform(0.0, 10.0, size=(20, n_atoms))
    sparse[rng.uniform(size=sparse.shape) < 0.5] = 0.0
    return lams + list(sparse)


@pytest.mark.parametrize("atoms", [LINEAR_BASIS, SQRT_BASIS])
@pytest.mark.parametrize("base", ["euclidean", "manhattan", "chebyshev"])
def test_objective_test_rmse_matches_refitting(base, atoms):
    # 6 metric and basis pairs x 2 samples x 84 vectors = 1,008 candidates.
    rng = np.random.default_rng(6)
    for ds in (smooth_dataset(seed=5).indexed_rows(), equal_duplicates_dataset()):
        obj = objective_test_rmse(ds, base, atoms, seed=4)
        lams = rmse_candidates(len(atoms), rng)
        assert len(lams) == 84
        for lam in lams:
            assert obj(lam) == naive_test_rmse(ds, base, atoms, lam, 4)


def grid_dataset():
    """100 indexed rows on a 7 x 7 grid, each valued by its grid point
    among seven levels: distances and values tie, and duplicated points
    carry equal values (0/0 pairs), but for test row 2, which repeats the
    point of a training row with another value."""
    rng = np.random.default_rng(31)
    X = rng.integers(0, 7, size=(100, 2)) / 6.0
    y = 1.0 + np.floor(3.0 * X.sum(axis=1))
    train, test = _split_rows(100, 0.7, 4, "random")
    X[test[2]], y[test[2]] = X[train[0]], y[train[0]] + 5.0
    return make_dataset(X, y)


def scaled_index_dataset(factor):
    """``smooth_dataset`` with every index value times ``factor``."""
    ds = smooth_dataset(seed=5).indexed_rows()
    return make_dataset(ds.features, factor * ds.index)


def far_rows_dataset():
    """``smooth_dataset`` with every seventh row's features times 1e300, so
    that euclidean base distances to those rows overflow to +inf and the
    atoms' values there are +inf, pi/2 or NaN."""
    ds = smooth_dataset(seed=5).indexed_rows()
    X = ds.features.copy()
    X[::7] *= 1e300
    return make_dataset(X, ds.index)


def test_objective_test_rmse_test_rows_keep_fronts_of_different_widths():
    # The Whitney and McShane fronts alone already differ in width from
    # one test row to another, so the datasets below pad row fronts.
    for ds in (grid_dataset(), scaled_index_dataset(1.0)):
        train, test = _split_rows(ds.n_rows, 0.7, 4, "random")
        base_d = pairwise_base("manhattan", ds.features[test], ds.features[train])
        values, atoms = ds.index[train], atom_values(SQRT_BASIS, base_d)
        keep = undominated(base_d, values, atoms) | undominated(base_d, -values, atoms)
        width = np.count_nonzero(keep, axis=1)
        assert width.min() < width.max()


@pytest.mark.parametrize("tile", [None, 1])
@pytest.mark.parametrize(
    "ds, special",
    [(grid_dataset(), math.inf), (scaled_index_dataset(1e150), math.inf),
     (scaled_index_dataset(1e-150), math.inf), (scaled_index_dataset(0.0), math.nan),
     (far_rows_dataset(), math.nan)],
    ids=["ties-and-duplicates", "huge-index", "tiny-index", "constant-index", "far-rows"],
)
def test_objective_test_rmse_on_fronts_matches_refitting_at_the_edges(ds, special, tile, monkeypatch):
    # Besides ``rmse_candidates``, rays at 5e-324, 1e-310 and 1e-160, alone
    # and next to a coefficient of 1: the composed distances round to 0 or
    # to subnormals, which ties them, and on the huge index the ratios
    # overflow.  The tiny index keeps some of those candidates finite.  Rays
    # at 1e308 next to another make far distances overflow to +inf, which
    # the constant index, where K = 0, turns into NaN predictions.  On the
    # far rows a zero coefficient times an infinite atom value makes NaN
    # distances, so those terms of the weighted sum are not left out.  The
    # overflows warn in both versions.  With a ``tile`` of one row a block,
    # the pair front is merged over every row block and the row fronts
    # built a test row at a time.
    if tile is not None:
        monkeypatch.setattr(metrics, "TILE_BYTES", 8 * ds.n_rows * 16 * tile)
    rng = np.random.default_rng(37)
    scores = []
    for base, basis in (("manhattan", SQRT_BASIS), ("euclidean", LINEAR_BASIS)):
        lams = rmse_candidates(4, rng)
        for e in np.eye(4):
            lams += [c * e + np.roll(e, 1) for c in (5e-324, 1e-310, 1e-160)]
            lams += [c * e for c in (5e-324, 1e-310, 1e-160)] + [1e308 * (e + np.roll(e, 1))]
        with np.errstate(over="ignore", invalid="ignore"):
            obj = objective_test_rmse(ds, base, basis, seed=4)
            got = [repr(obj(lam)) for lam in lams]
            assert got == [repr(naive_test_rmse(ds, base, basis, lam, 4)) for lam in lams]
        scores += got
    assert repr(special) in scores and any(map(math.isfinite, map(float, scores)))


def test_objective_test_rmse_buffers_carry_no_state():
    # A search reuses its arrays from one candidate to the next, so each
    # candidate must score the same forwards, backwards and after each kind
    # of early return: the zero vector, a NaN coefficient (a ValueError)
    # and ``tiny``.  Its composed distances below 0.5 round to 0, so close
    # training pairs become conflicting duplicates and K is infinite only
    # after the weighted sum has overwritten the distances.
    ds = smooth_dataset(seed=5).indexed_rows()
    obj = objective_test_rmse(ds, "euclidean", LINEAR_BASIS, seed=4)
    tiny = np.array([5e-324, 0.0, 0.0, 0.0])
    assert obj(tiny) == math.inf

    def early_return(k):
        if k % 3 == 2:
            with pytest.raises(ValueError, match="finite and >= 0"):
                obj(np.array([1.0, math.nan, 0.0, 0.0]))
        else:
            assert obj((np.zeros(4), tiny)[k % 3]) == math.inf

    lams = [lam for lam in rmse_candidates(4, np.random.default_rng(13)) if lam.any()]
    forwards = [obj(lam) for lam in lams]
    backwards = [obj(lam) for lam in lams[::-1]][::-1]
    interleaved = []
    for k, lam in enumerate(lams):
        early_return(k)
        interleaved.append(obj(lam))
    assert all(map(math.isfinite, forwards))
    assert forwards == backwards == interleaved


def test_objective_test_rmse_candidates_allocate_no_block():
    # 234 indexed rows: a 70 x 164 test x train block of 90 KiB and 13,366
    # training pairs.  After the first call, candidates write only into the
    # arrays that the search allocated once.
    ds = smooth_dataset(n=260, seed=3).indexed_rows()
    train, test = _split_rows(ds.n_rows, 0.7, 1, "random")
    block_bytes = 8 * len(test) * len(train)
    assert block_bytes >= 64 * 2**10
    obj = objective_test_rmse(ds, "euclidean", LINEAR_BASIS, seed=1)
    lams = np.random.default_rng(2).uniform(0.1, 10.0, size=(51, 4))
    assert math.isfinite(obj(lams[0]))
    tracemalloc.start()
    try:
        values = [obj(lam) for lam in lams[1:]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(map(math.isfinite, values))
    assert peak < block_bytes / 4


def test_objective_test_rmse_builds_fronts_under_a_memory_ceiling():
    # 1,000 indexed rows, 700 training and 300 test: a stack of four atoms
    # over the 244,650 training pairs and the test x train block would be
    # 14.5 MB.  The fronts are built in row blocks from the points.
    ds = smooth_dataset(n=1111, seed=9).indexed_rows()
    assert ds.n_rows == 1000
    tracemalloc.start()
    try:
        obj = objective_test_rmse(ds, "euclidean", LINEAR_BASIS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert math.isfinite(obj(np.ones(4)))


def test_objective_test_rmse_infinite_on_conflicting_duplicates():
    # Four copies of one point with distinct values: at least two of them
    # land on the training side.
    ds = make_dataset([[0.0]] * 4 + [[1.0], [2.0], [3.0], [4.0]], np.arange(8.0))
    obj = objective_test_rmse(ds, "euclidean", LINEAR_BASIS, seed=0)
    lam = np.array([1.0, 0.5, 0.0, 2.0])
    assert naive_test_rmse(ds, "euclidean", LINEAR_BASIS, lam, 0) == math.inf
    assert obj(lam) == math.inf


def test_extend_fit_and_predict_stay_under_memory_ceilings():
    # 2,000 indexed rows: a distance table alone would be 30.5 MiB.  The
    # blend's fit builds none: its pass over the pairs and its holdout
    # predictions from the points each hold a few arrays allocated once per
    # call, the block scratch and pairwise_base's partial sums.
    rng = np.random.default_rng(19)
    features = rng.uniform(size=(2000, 10))
    indexed = make_dataset(features, features @ rng.uniform(size=10))
    targets = rng.uniform(size=(3000, 10))
    tracemalloc.start()
    try:
        model = fit_for_extend(indexed, IDENTITY, "blend")
        fit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        predict(model, targets)
        predict_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit_peak < 2.5 * metrics.TILE_BYTES
    assert predict_peak < 2 * metrics.TILE_BYTES


@pytest.mark.parametrize("method, alpha", [("whitney", None), ("mcshane", None),
                                           ("standard", None), ("blend", 0.3), ("blend", None)])
def test_a_fit_for_extend_without_a_holdout_builds_no_table(method, alpha):
    # 2,000 indexed rows: the table would be 30.5 MiB.  A fit on every row
    # takes K from the points, a tile of pairs at a time, with the bits of
    # coherence_constant, and a blend's holdout weight is that of a table.
    rng = np.random.default_rng(97)
    features = rng.uniform(size=(2000, 10))
    indexed = make_dataset(features, features @ rng.uniform(size=10))
    tracemalloc.start()
    try:
        model = fit_for_extend(indexed, IDENTITY, method, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * metrics.TILE_BYTES
    assert model.K == coherence_constant(indexed.as_sample(), IDENTITY)
    if method == "blend" and alpha is None:
        table = PairTable(indexed, IDENTITY, "blend")
        alpha = table.holdout_alpha(np.arange(2000), 0.7, 0, "random")
    assert model.alpha == alpha


def _ties(rng):
    """48 rows on a line, I = 2x: every pair's ratio is 2.0 under identity."""
    x = np.arange(48) / 16
    return make_dataset(x[:, None], 2 * x)


def _duplicates(rng):
    """30 random rows and 8 copies of some of them with their values: 0/0 pairs."""
    features = rng.uniform(size=(30, 2))
    values = features @ [1.0, 3.0] + 0.1 * rng.uniform(size=30)
    copies = rng.integers(0, 30, 8)
    return make_dataset(np.vstack([features, features[copies]]), np.r_[values, values[copies]])


def _steep_end(rng):
    """20 rows whose steepest pair is the last two, off an ordered split's
    training side: with one listed pair, the holdout's K comes from the points."""
    features = np.c_[np.arange(20.0), rng.uniform(0.0, 0.1, 20)]
    features[19, 0] = 18.01
    values = 0.5 * features[:, 0]
    values[19] += 5.0
    return make_dataset(features, values)


@pytest.mark.parametrize("kind", BASE_METRICS)
@pytest.mark.parametrize("phi", ["identity", "random"])
@pytest.mark.parametrize("data, split_method, listed", [
    ("random", "random", None), ("ties", "random", None), ("ties", "ordered", 5),
    ("duplicates", "random", None), ("duplicates", "random", 3), ("steep_end", "ordered", 1),
])
def test_a_blend_fit_for_extend_matches_fitting_afresh(kind, phi, data, split_method, listed,
                                                      monkeypatch):
    # fit_for_extend takes K from the list of the largest pair ratios, or
    # from the points when no listed pair is on a fit's rows, and its
    # holdout predicts from the points.  K and alpha must have the bits of
    # fits on fresh samples of the holdout's training rows and of every
    # row, with any warning the same.
    rng = np.random.default_rng(61)
    indexed = {"random": lambda r: make_dataset(r.uniform(size=(40, 3)), r.uniform(0.0, 5.0, 40)),
               "ties": _ties, "duplicates": _duplicates, "steep_end": _steep_end}[data](rng)
    cm = CompositionMetric(kind, identity_phi() if phi == "identity" else random_combination(rng))
    if listed is not None:
        monkeypatch.setattr(constants, "LISTED_PAIRS", listed)
    train, held_out = _split_rows(indexed.n_rows, 0.7, 4, split_method)
    X, v = indexed.features, indexed.index
    with warnings.catch_warnings(record=True) as fresh_warnings:
        warnings.simplefilter("always")
        holdout = fit_extension(IndexedSample(X[train], v[train]), cm, "blend")
        alpha = blend_at(holdout, X[held_out], truth=v[held_out])[0]
        expected = fit_extension(indexed.as_sample(), cm, "blend", alpha)
    with warnings.catch_warnings(record=True) as listed_warnings:
        warnings.simplefilter("always")
        model = fit_for_extend(indexed, cm, "blend", seed=4, split_method=split_method)
    assert [str(w.message) for w in listed_warnings] == [str(w.message) for w in fresh_warnings]
    assert (model.K, model.alpha, model.method) == (expected.K, expected.alpha, "blend")
    if data == "steep_end":
        table = PairTable(indexed, cm, "blend")
        assert table.largest.coherence(train) is None  # the holdout's K is from the points
        assert table.largest.coherence(np.arange(indexed.n_rows)) is not None


@pytest.mark.parametrize("alpha", [None, 0.3])
@pytest.mark.parametrize("method", ["whitney", "mcshane", "blend", "standard", "linear"])
def test_a_one_row_fit_for_extend_raises_fit_error_but_linear_fits(method, alpha):
    one = make_dataset([[0.5]], [3.0])
    if method == "linear":
        assert fit_for_extend(one, IDENTITY, method, alpha).method == "linear"
    else:
        with pytest.raises(FitError, match=f"{method} fit needs at least two rows"):
            fit_for_extend(one, IDENTITY, method, alpha)


@pytest.mark.parametrize("method, honest_alpha", [("blend", False), ("blend", True),
                                                  ("whitney", False), ("standard", False)])
def test_cv_holds_a_few_tiles_not_a_distance_table(method, honest_alpha):
    # 1,500 indexed rows: a table of their distances would be 17.2 MiB,
    # 8.6 tiles.  The list of the largest ratios holds under one tile, and
    # the sweep a block of every row against every row, the gathered
    # distances of one fit's rows in it, and pairwise_base's partial sums;
    # the fits and their predictions (about 1.7 MiB with the nested ones)
    # stay with the repeats.
    rng = np.random.default_rng(83)
    features = rng.uniform(size=(1500, 5))
    ds = make_dataset(features, features @ rng.uniform(size=5))
    tracemalloc.start()
    try:
        cross_validate(ds, method, IDENTITY, honest_alpha=honest_alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * metrics.TILE_BYTES


@pytest.mark.parametrize("method", ["whitney", "mcshane", "blend", "standard"])
def test_table_fits_and_predictions_in_blocks_match_one_shot(method, monkeypatch):
    # A fit on a subset of the table's rows takes K from its list, and the
    # sweep gathers a prediction's distances from blocks of every row
    # against every row (a standard prediction takes its anchor's distances
    # from the points); they must give the bits of a fit with K from the
    # pairwise square and of predict_in_blocks on its copied block, taken
    # in one block at the default TILE_BYTES (a standard model reads the
    # anchor's column of that block).
    rng = np.random.default_rng(23)
    n, m, tile = 30, 3, 4
    cm = CompositionMetric("manhattan", random_combination(rng))
    table = PairTable(make_dataset(rng.uniform(size=(n, m)), rng.uniform(0.0, 5.0, n)), cm, method)
    X = table.ds.features
    train, held_out = _split_rows(n, 0.6, 3, "random")
    sample = IndexedSample(X[train], table.ds.index[train])
    alphas = (None, 0.3) if method == "blend" else (None,)
    square = cm.pairwise(X, X)
    i, j = np.triu_indices(len(train), k=1)
    K = ratio_max(np.abs(sample.values[i] - sample.values[j]), square[np.ix_(train, train)][i, j])
    model = fit_extension(sample, cm, method, K=K)
    truth = table.ds.index[held_out]
    D = square[np.ix_(held_out, train)]
    one_shot = [predict_from(model, D, a, truth) for a in alphas]
    # Base distances, d and work: ``tile`` rows a block of the sweep.
    monkeypatch.setattr(metrics, "TILE_BYTES", 3 * 8 * n * tile)
    fitted = table.fit(train)
    assert fitted.K == model.K
    assert (fitted.anchor, fitted.offset) == (model.anchor, model.offset)
    for a, (weight, expected) in zip(alphas, one_shot):
        if method == "standard":
            swept = (None, predict(fitted, X[held_out]))
        else:
            swept = table.sweep([(fitted, train, held_out)])[0].result(a, truth)
        for blocked in (swept, predict_from(model, D, a, truth)):
            assert blocked[0] == weight
            assert np.array_equal(blocked[1], expected)


@pytest.mark.parametrize("method", ["whitney", "mcshane", "standard", "linear"])
def test_holdout_alpha_refuses_a_table_of_another_method(method):
    # Only a blend gives a weight; None would read as "split too small".
    rng = np.random.default_rng(29)
    table = PairTable(make_dataset(rng.uniform(size=(20, 2)), rng.uniform(0.0, 5.0, 20)), IDENTITY, method)
    with pytest.raises(ValueError, match=f"holdout_alpha needs a blend table, not '{method}'"):
        table.holdout_alpha(np.arange(20), 0.7, 0, "random")


def _listed_table(features, index, cm=IDENTITY, method="whitney"):
    return PairTable(make_dataset(features, index), cm, method)


def _list_in_tiles(monkeypatch, n, tile):
    """Patch ``TILE_BYTES`` so that the pass of ``largest_ratios`` over n rows,
    which budgets five (rows, n) arrays a row block, takes ``tile`` rows a
    block; returns the list that records the block sizes of every pass."""
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * 5 * tile)
    return record_blocks(monkeypatch, constants)


def _fresh_K(table, rows):
    """``coherence_constant`` on a sample made afresh from the table's rows."""
    return coherence_constant(
        IndexedSample(table.ds.features[rows], table.ds.index[rows]), table.cm
    )


def _check_list(table):
    """The list is descending, of pairs i < j, min(``LISTED_PAIRS``, pairs
    that are not 0/0) long, and no pair left off has a larger ratio than
    the last listed."""
    listed, v, X = table.largest, table.ds.index, table.ds.features
    with np.errstate(all="ignore"):
        ratios = np.abs(v[:, None] - v) / table.cm.pairwise(X, X)
    constrain = np.count_nonzero(~np.isnan(ratios[np.triu_indices(len(v), k=1)]))
    assert len(listed.ratios) == min(constants.LISTED_PAIRS, constrain)
    assert np.all(listed.i < listed.j)
    assert np.all(listed.ratios[:-1] >= listed.ratios[1:])
    assert np.array_equal(listed.ratios, ratios[listed.i, listed.j])
    off = np.triu(np.ones(ratios.shape, dtype=bool), k=1)
    off[listed.i, listed.j] = False
    if len(listed.ratios):
        assert not np.any(ratios[off] > listed.ratios[-1])


def _check_subsets(table, subsets):
    """Each subset's K, listed or not, and the K of a fit on it by each
    Lipschitz method, on a table of that method, against
    ``coherence_constant`` on a fresh sample.  Returns how many subsets the
    list served."""
    tables = [PairTable(table.ds, table.cm, m) for m in ("whitney", "mcshane", "blend", "standard")]
    served = 0
    for rows in subsets:
        expected = _fresh_K(table, rows)
        listed = table.largest.coherence(rows)
        if listed is not None:
            served += 1
            assert listed == expected
        for method_table in tables:
            if math.isfinite(expected):
                assert method_table.fit(rows).K == expected
            else:
                with pytest.raises(FitError):
                    method_table.fit(rows)
    return served


def _splits(n, seeds, train_fraction=0.7):
    """The random training rows of each seed, then the nested training rows
    that ``honest_alpha`` takes inside them."""
    for seed in seeds:
        train = _split_rows(n, train_fraction, seed, "random")[0]
        yield train
        yield train[_split_rows(len(train), train_fraction, seed + _INNER_SPLIT_OFFSET, "random")[0]]


@pytest.mark.parametrize("growing", [False, True])
@pytest.mark.parametrize("tile", [None, 3])
def test_listed_K_matches_a_fresh_sample_on_random_and_nested_subsets(tile, growing, monkeypatch):
    # Three-row blocks carry the floor and the cut-backs over many blocks;
    # values that grow down the rows give every block larger ratios than
    # the blocks above, so the floor rises past pairs already listed.
    rng = np.random.default_rng(61)
    n = 60
    cm = CompositionMetric("manhattan", random_combination(rng))
    if tile is not None:
        sizes = _list_in_tiles(monkeypatch, n, tile)
        monkeypatch.setattr(constants, "LISTED_PAIRS", 20)
    index = rng.uniform(0.0, 5.0, n) * (np.geomspace(1.0, 1e3, n) if growing else 1.0)
    table = _listed_table(rng.uniform(size=(n, 3)), index, cm)
    if tile is not None:
        assert sizes == tiles(n - 1, tile)
    _check_list(table)
    assert len(table.largest.ratios) > constants.LISTED_PAIRS // 2
    assert _check_subsets(table, _splits(n, range(20))) > 30


def test_a_standard_table_fit_takes_the_K_of_the_sample_as_given():
    # Shifting the index to minimum 0 leaves K as it is in theory, but
    # (I_i - min) - (I_j - min) can round otherwise than I_i - I_j: so it
    # does on about one random six-row sample in eight.  A standard fit
    # takes K on the values as given, as ``constants`` reports it.
    rng = np.random.default_rng(89)
    shifted_differs = 0
    for _ in range(100):
        features, index = rng.uniform(size=(6, 2)), rng.uniform(-5.0, 20.0, 6)
        table = PairTable(make_dataset(features, index), IDENTITY, "standard")
        rows = np.sort(rng.choice(6, size=rng.integers(2, 7), replace=False))
        sample = IndexedSample(features[rows], index[rows])
        K = coherence_constant(sample, IDENTITY)
        assert table.fit(rows).K == K
        shifted_differs += coherence_constant(katetov_shift(sample), IDENTITY) != K
    assert shifted_differs > 0


def test_a_floor_that_rises_past_a_listed_pair_drops_it(monkeypatch):
    # Blocks of two rows, two pairs listed.  Rows 0-1 list their two
    # largest, (1, 2) at 9.5 and (1, 3) at 5.25, and set the floor at 5.25;
    # rows 2-3 have three pairs above it, so they list their two largest,
    # (2, 3) at 20 and (3, 4) at 10.6, and the floor rises to 10.6.  (1, 2)
    # and (1, 3) must then go: they are below it.
    sizes = _list_in_tiles(monkeypatch, 6, 2)
    monkeypatch.setattr(constants, "LISTED_PAIRS", 2)
    table = _listed_table(np.arange(6.0).reshape(-1, 1), [0.0, 0.5, 10.0, -10.0, 0.6, 0.7])
    assert sizes == [2, 2, 1]
    _check_list(table)
    assert (table.largest.ratios.tolist(), table.largest.i.tolist(), table.largest.j.tolist()) \
        == ([20.0, 10.6], [2, 3], [3, 4])
    subsets = [np.flatnonzero([(mask >> k) & 1 for k in range(6)]) for mask in range(2**6)]
    _check_subsets(table, [rows for rows in subsets if len(rows) >= 2])


@pytest.mark.parametrize("size", [1, 256])
def test_listed_K_with_infinite_and_zero_over_zero_pairs(size, monkeypatch):
    # Rows 0 and 1, and rows 4 and 5, coincide with distinct values (+inf);
    # rows 2 and 3 with equal ones (0/0, which imposes nothing).  A list of
    # one ends at a tie of the two infinite pairs and lists one of them.
    monkeypatch.setattr(constants, "LISTED_PAIRS", size)
    rng = np.random.default_rng(67)
    n = 24
    features = rng.uniform(size=(n, 2))
    index = rng.uniform(0.0, 5.0, n)
    features[1], features[3], features[5], index[3] = features[0], features[2], features[4], index[2]
    table = _listed_table(features, index)
    _check_list(table)
    listed = table.largest
    infinite = {(int(i), int(j)) for r, i, j in zip(listed.ratios, listed.i, listed.j) if r == math.inf}
    if size == 1:
        assert len(infinite) == 1 and infinite < {(0, 1), (4, 5)}
    else:
        assert infinite == {(0, 1), (4, 5)}
    subsets = [np.arange(n), np.arange(1, n), np.arange(2, n), np.array([2, 3]),
               np.array([2, 3, 5]), np.array([0, 1, 7]), *_splits(n, range(10))]
    _check_subsets(table, subsets)
    assert table.largest.coherence(np.array([2, 3])) is None  # a 0/0 pair is never listed
    assert table.fit(np.array([2, 3])).K == 0.0


def test_listed_K_of_a_sample_of_only_zero_over_zero_pairs_is_zero():
    table = _listed_table(np.ones((6, 2)), np.full(6, 3.0), method="blend")
    assert len(table.largest.ratios) == 0
    for rows in (np.arange(6), np.array([1, 4])):
        assert table.largest.coherence(rows) is None
        assert table.fit(rows).K == 0.0 == _fresh_K(table, rows)


@pytest.mark.parametrize("size, tile", [(3, None), (14, None), (5, 2), (14, 2)])
def test_listed_K_with_ties_at_the_cutoff(size, tile, monkeypatch):
    # On the integer line with I = 2x every ratio is exactly 2.0, and the
    # last row's larger value gives its 11 pairs more, all distinct.  A
    # list of 14 has its cutoff among the ties at 2.0 and lists three of
    # them; blocks of two rows cut a list of 5 back as it grows.  Subsets
    # without the last row are served by a listed tie, or fall back.
    monkeypatch.setattr(constants, "LISTED_PAIRS", size)
    sizes = _list_in_tiles(monkeypatch, 12, tile) if tile is not None else None
    x = np.arange(12, dtype=float)
    index = 2.0 * x
    index[-1] += 5.0
    table = _listed_table(x.reshape(-1, 1), index, method="mcshane")
    assert sizes is None or sizes == tiles(11, tile)
    _check_list(table)
    assert len(table.largest.ratios) == size
    assert np.all(table.largest.ratios[:11] > 2.0)
    assert np.all(table.largest.ratios[11:] == 2.0)
    subsets = [np.arange(11), np.arange(12), np.array([0, 5, 11]), np.array([3, 4]),
               *_splits(12, range(10))]
    _check_subsets(table, subsets)
    assert table.largest.coherence(np.arange(11)) == (2.0 if size > 11 else None)
    assert table.fit(np.arange(11)).K == 2.0


def test_a_table_of_only_ties_lists_a_full_list():
    # On the integer line with I = 2x every one of the 44,850 ratios is
    # exactly 2.0: the first block has more pairs than the list, and the
    # list takes LISTED_PAIRS of them, every one a cutoff tie.
    n = 300
    x = np.arange(n, dtype=float)
    table = _listed_table(x.reshape(-1, 1), 2.0 * x)
    _check_list(table)
    assert len(table.largest.ratios) == constants.LISTED_PAIRS
    assert np.all(table.largest.ratios == 2.0)
    assert _check_subsets(table, _splits(n, range(10))) > 0


def test_a_table_of_fewer_pairs_than_the_list_lists_them_all():
    rng = np.random.default_rng(71)
    n = 5
    table = _listed_table(rng.uniform(size=(n, 2)), rng.uniform(0.0, 5.0, n))
    assert n * (n - 1) // 2 < constants.LISTED_PAIRS
    assert len(table.largest.ratios) == n * (n - 1) // 2
    _check_list(table)
    subsets = [np.flatnonzero([(mask >> k) & 1 for k in range(n)]) for mask in range(2**n)]
    subsets = [rows for rows in subsets if len(rows) >= 2]
    assert _check_subsets(table, subsets) == len(subsets)


@pytest.mark.parametrize("size", [1, 2])
def test_a_short_list_leaves_K_to_the_points(size, monkeypatch):
    monkeypatch.setattr(constants, "LISTED_PAIRS", size)
    rng = np.random.default_rng(73)
    n = 30
    table = _listed_table(rng.uniform(size=(n, 3)), rng.uniform(0.0, 5.0, n))
    _check_list(table)
    excluded = np.setdiff1d(np.arange(n), np.r_[table.largest.i, table.largest.j])
    assert table.largest.coherence(excluded) is None
    # A fit on rows with no listed pair takes K from the points, and
    # ``_check_subsets`` checks it against a fresh sample's, bit for bit.
    assert _check_subsets(table, [excluded, *_splits(n, range(10))]) < 21


def test_building_the_list_holds_under_one_tile():
    # 2,000 rows.  The one pass over the pairs holds a fifth of a tile
    # each of base distances, of their modulus, of pairwise_base's partial
    # sums, which then take the atom values and ratios, and of the
    # partition's indices, besides the list and the rows' sample: 0.89
    # tiles on random data and 0.86 on the integer line with I = 2x, where
    # every pair ties at 2.0.  Both partition their first block.  The
    # partition's indices kept into the next block, or a second block of
    # ratios, would pass one tile.
    rng = np.random.default_rng(79)
    features = rng.uniform(size=(2000, 4))
    line = np.arange(2000, dtype=float)
    for ds in (make_dataset(features, features @ rng.uniform(size=4)),
               make_dataset(line.reshape(-1, 1), 2.0 * line)):
        tracemalloc.start()
        try:
            table = PairTable(ds, IDENTITY, "whitney")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.95 * metrics.TILE_BYTES
        assert len(table.largest.ratios) == constants.LISTED_PAIRS
