import functools
import math
import tracemalloc
import warnings
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
    optimal_blend,
    predict,
    predict_in_blocks,
    whitney_batch,
)
from lipext import constants, metrics
from lipext.metrics import CompositionMetric, pairwise_base
from lipext.phi import PhiCombination, identity_phi, phi_eval
from lipext.pipeline import Dataset, PairTable

import oracles
from helpers import distance_blocks, predict_from, random_combination, record_blocks, scaled, tiles

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


def test_optimal_alpha_sums_in_the_order_of_sum():
    # The weight's sums are ``np.add.reduce``; they must give the bits of
    # the closed form's ``.sum()`` at lengths on both sides of numpy's
    # pairwise-summation blocks.
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 300, 1001):
        w, m = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        t = 0.7 * w + 0.3 * m + 0.1 * (w - m) * rng.normal(size=n)
        gap = w - m
        a0 = float(((w - t) * gap).sum()) / float((gap * gap).sum())
        assert 0.0 < a0 < 1.0
        assert optimal_alpha(t, w, m) == a0


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


@pytest.mark.parametrize("method", ["whitney", "mcshane", "blend", "standard"])
def test_every_method_names_the_cause_of_an_infinite_constant(method):
    with pytest.raises(FitError, match="duplicate points carry distinct values"):
        fit_extension(line_sample([1.0, 1.0], [0.0, 2.0]), IDENTITY, method)
    tiny = CompositionMetric("euclidean", PhiCombination(("identity",), (1e-320,)))
    with pytest.raises(FitError, match=r"a ratio \|I_i - I_j\| / d exceeds the float range"):
        fit_extension(line_sample([0.0, 1.0], [0.0, 10.0]), tiny, method)


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
@pytest.mark.parametrize("table", [False, True], ids=["points", "pairs"])
def test_one_row_lipschitz_fit_is_unfittable(method, table):
    # From the points, and from a table of listed pairs, on a one-row
    # subset of its rows.
    one = IndexedSample(np.array([[0.5]]), [3.0])
    ds = Dataset(["a", "b", "c"], [[0.5], [0.0], [1.0]], [3.0, 1.0, 2.0], ["x"])
    with pytest.raises(FitError, match="at least two rows"):
        if table:
            PairTable(ds, IDENTITY, method).fit(np.array([0]))
        else:
            fit_extension(one, IDENTITY, method)
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
    a, pred = predict_in_blocks(model, len(D), distance_blocks(D), truth=truth)
    assert a == optimal_alpha(truth, i_w, i_m)
    assert np.array_equal(pred, (1.0 - a) * i_w + a * i_m)
    assert np.array_equal(pred, blend(model, X, a))
    assert predict_in_blocks(model, len(D), distance_blocks(D), 0.3)[0] == 0.3
    with pytest.raises(ValueError, match="blend requires an alpha"):
        predict(model, X)


def test_optimal_blend_matches_predict_in_blocks():
    # ``at`` reads D afresh at each call and reuses its buffers, and each
    # call gives the bits of a blend model's ``predict_in_blocks``, with
    # the training values shared by every row or given per row, here with
    # each row's training rows in an order of its own.
    rng = np.random.default_rng(21)
    s = IndexedSample(rng.uniform(size=(15, 3)), rng.uniform(0.0, 5.0, 15))
    X, truth = rng.uniform(size=(9, 3)), rng.uniform(0.0, 5.0, 9)
    D, D_rows = np.empty((2, 9, 15))
    order = np.argsort(rng.uniform(size=(9, 15)), axis=1)
    at = optimal_blend(s.values, D, truth)
    at_rows = optimal_blend(s.values[order], D_rows, truth)
    for _ in range(6):
        model = fit_extension(s, CompositionMetric("manhattan", random_combination(rng)), "blend")
        D[:] = model.cm.pairwise(X, s.points)
        D_rows[:] = np.take_along_axis(D, order, axis=1)
        expected_a, expected = predict_in_blocks(model, len(D), distance_blocks(D), truth=truth)
        for blend in (at, at_rows):
            a, pred = blend(model.K)
            assert a == expected_a
            assert np.array_equal(pred, expected)


def test_optimal_blend_takes_half_without_warning_when_degenerate():
    # Equal training values and K = 0: Whitney and McShane coincide, so
    # ``optimal_alpha`` would warn and give 0.5.
    D, truth = np.ones((3, 4)), np.array([1.0, 2.0, 3.0])
    at = optimal_blend(np.full(4, 2.0), D, truth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, pred = at(0.0)
    assert a == 0.5
    assert np.array_equal(pred, np.full(3, 2.0))


def test_linear_fits_where_coherence_is_infinite():
    s = line_sample([1.0, 1.0, 2.0], [0.0, 2.0, 4.0])
    with pytest.raises(FitError):
        fit_extension(s, IDENTITY, "whitney")
    model = fit_extension(s, IDENTITY, "linear")
    assert model.K is None
    np.testing.assert_allclose(predict(model, [[3.0]]), [7.0], rtol=1e-9)


@pytest.mark.parametrize("method", ["whitney", "mcshane", "blend", "standard"])
def test_predict_tiles_match_one_untiled_call(method, monkeypatch):
    rng = np.random.default_rng(17)
    n, m, tile = 8, 3, 4
    cm = CompositionMetric("manhattan", random_combination(rng))
    s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 5.0, n))
    model = fit_extension(s, cm, method, alpha=0.3 if method == "blend" else None)
    queries = [rng.uniform(size=(q, m)) for q in (1, tile - 1, tile, tile + 1, 3 * tile)]
    # One block each at the default TILE_BYTES.
    distances = [phi_eval(cm.phi, pairwise_base(cm.base, X, s.points)) for X in queries]
    untiled = [predict_from(model, D, model.alpha)[1] for D in distances]
    # Distances to the n training rows, ``tile`` queries per block.
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * tile)
    for X, expected in zip(queries, untiled):
        assert np.array_equal(predict(model, X), expected)
    assert predict(model, np.empty((0, m))).shape == (0,)
    with pytest.raises(ValueError, match="dimension mismatch"):
        predict(model, np.empty((0, m + 1)))


@pytest.mark.parametrize("batch", [whitney_batch, mcshane_batch])
def test_batch_predictions_hold_one_block_of_distances(batch):
    # 3,000 queries against 2,000 training rows: the whole (q, n) product
    # of distances would be 46 MiB, and each block of them is at most 2 MiB.
    rng = np.random.default_rng(19)
    features = rng.uniform(size=(2000, 10))
    s = IndexedSample(features, features @ rng.uniform(size=10))
    model = fit_extension(s, IDENTITY, "blend")
    targets = rng.uniform(size=(3000, 10))
    tracemalloc.start()
    try:
        batch(model, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_standard_predicts_from_its_anchor_alone():
    # A standard prediction reads one distance per query, to the anchor.  At
    # 3,000 queries against 2,000 training rows, and 600 held-out rows
    # against 600 training rows of a table, as cv predicts them, the peaks
    # stay far below one block of distances to every training row (2 MiB),
    # and the bits are those of K times that block, read at the anchor's
    # column.
    rng = np.random.default_rng(29)
    cm = CompositionMetric("euclidean", PhiCombination(("sqrt", "sqrt_rational"), (1.0, 0.75)))
    features = rng.uniform(size=(2000, 10))
    model = fit_extension(IndexedSample(features, features @ rng.uniform(size=10)), cm, "standard")
    targets = rng.uniform(size=(3000, 10))
    rows = features[:1200]
    table = PairTable(Dataset([f"r{i}" for i in range(1200)], rows,
                              rng.uniform(1.0, 5.0, 1200), [f"f{j}" for j in range(10)]),
                      cm, "standard")
    train, held_out = np.arange(0, 1200, 2), np.arange(1, 1200, 2)
    table_model = table.fit(train)
    expected = [
        model.offset + (model.K * cm.pairwise(targets, model.training.points))[:, model.anchor],
        table_model.offset
        + (table_model.K * cm.pairwise(rows, rows)[np.ix_(held_out, train)])[:, table_model.anchor],
    ]
    for run, reference in zip(
        (lambda: predict(model, targets), lambda: predict(table_model, rows[held_out])),
        expected,
    ):
        tracemalloc.start()
        try:
            pred = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(pred, reference)
        assert peak < 2**19


@pytest.mark.parametrize("sample", ["random", "duplicate-heavy"])
def test_oracles_agree_at_n_200(sample, monkeypatch):
    rng = np.random.default_rng(61)
    n, m = 200, 3
    if sample == "random":
        points = rng.uniform(size=(n, m))
        values = rng.uniform(0.0, 20.0, n)
    else:
        # 25 distinct points, each repeated with the value it always carries.
        distinct = rng.uniform(size=(25, m))
        pick = rng.integers(0, 25, n)
        points, values = distinct[pick], (distinct @ rng.uniform(size=m) * 10.0)[pick]
    s = IndexedSample(points, values)
    cm = CompositionMetric("euclidean", random_combination(rng))
    phi = cm.phi
    pts, vals = s.points.tolist(), s.values.tolist()
    K_o, Q_o, _ = oracles.constants(pts, vals, "euclidean", phi.atoms, phi.coefficients)
    close = functools.partial(pytest.approx, rel=1e-12, abs=1e-12)
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * 4 * 7)  # seven rows per K block
    sizes = record_blocks(monkeypatch, constants)
    ds = Dataset([f"r{i}" for i in range(n)], s.points, s.values, [f"f{j}" for j in range(m)])
    assert coherence_constant(s, cm) == close(K_o)
    assert sizes == tiles(n - 1, 7)
    assert PairTable(ds, cm, "whitney").fit(np.arange(n)).K == close(K_o)
    report = constants_report(s, cm)
    assert (report.K, report.Q) == (close(K_o), close(Q_o))

    X = rng.uniform(-0.2, 1.2, size=(30, m))
    whitney = fit_extension(s, cm, "whitney")
    standard = fit_extension(s, cm, "standard")
    blend = replace(whitney, method="blend", alpha=0.4)
    args = (pts, vals, "euclidean", phi.atoms, phi.coefficients, whitney.K)
    w_o = np.array([oracles.whitney(*args, x.tolist()) for x in X])
    m_o = np.array([oracles.mcshane(*args, x.tolist()) for x in X])
    s_o = [oracles.standard(*args, x.tolist()) for x in X]
    assert predict(whitney, X) == close(w_o)
    assert predict(replace(whitney, method="mcshane"), X) == close(m_o)
    assert predict(blend, X) == close(0.6 * w_o + 0.4 * m_o)
    assert predict(standard, X) == close(s_o)
