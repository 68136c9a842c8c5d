import math
import tracemalloc

import numpy as np
import pytest

from lipext import metrics
from lipext.metrics import (
    BASE_METRICS,
    CompositionMetric,
    pairwise_base,
)
from lipext.phi import ATOM_NAMES, PhiCombination, identity_phi, phi_eval

from helpers import distance, one_shot_pairwise, random_combination, scaled
from oracles import base_dist


def base_distance(kind, a, b) -> float:
    return distance(CompositionMetric(kind), a, b)


def test_identical_points_have_zero_distance():
    assert base_distance("euclidean", (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0


def test_two_city_euclidean_distance():
    new_york = (88.0, 88.6, 69.3)
    chicago = (77.2, 65.0, 72.2)
    d = base_distance("euclidean", new_york, chicago)
    assert d == pytest.approx(base_dist("euclidean", new_york, chicago), rel=1e-12)
    assert d == pytest.approx(26.1153, abs=1e-4)


def test_manhattan_unit_square():
    assert base_distance("manhattan", (0.0, 0.0), (1.0, 1.0)) == 2.0


def test_chebyshev():
    assert base_distance("chebyshev", (0.0, 5.0), (3.0, 1.0)) == 4.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pairwise_base("euclidean", [(1.0,)], [(1.0, 2.0)])
    with pytest.raises(ValueError):
        CompositionMetric().pairwise([(1.0,)], [(1.0, 2.0)])


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        pairwise_base("cosine", [(0.0,)], [(1.0,)])
    with pytest.raises(ValueError):
        CompositionMetric("cosine", identity_phi())


def test_composed_zero_on_equal_points():
    rng = np.random.default_rng(0)
    for kind in BASE_METRICS:
        phi = random_combination(rng)
        cm = CompositionMetric(kind, phi)
        a = rng.uniform(size=4)
        assert distance(cm, a, a) == 0.0


def test_composed_log_value():
    cm = CompositionMetric("euclidean", PhiCombination(("log1p",), (1.0,)))
    assert distance(cm, (0.0,), (math.e - 1.0,)) == pytest.approx(1.0, rel=1e-12)


def test_identity_composition_reduces_to_base():
    rng = np.random.default_rng(1)
    A, B = rng.uniform(size=(2, 100, 3))
    cm = CompositionMetric("euclidean", identity_phi())
    assert np.array_equal(cm.pairwise(A, B), pairwise_base("euclidean", A, B))


def test_pairwise_matches_single():
    rng = np.random.default_rng(2)
    A = rng.uniform(size=(7, 4))
    B = rng.uniform(size=(5, 4))
    for kind in BASE_METRICS:
        D = pairwise_base(kind, A, B)
        assert D.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                assert D[i, j] == base_distance(kind, A[i], B[j])
                assert D[i, j] == pytest.approx(base_dist(kind, A[i], B[j]), rel=1e-12)


def _random_phis(rng, n_combos=20):
    phis = [PhiCombination((name,), (1.0,)) for name in ATOM_NAMES]
    phis += [random_combination(rng) for _ in range(n_combos)]
    return phis


def test_metric_axioms_on_random_triples():
    # Lighter version of the acceptance gate: every ordered triple of 20
    # random points (8000 triples) per modulus, through ``pairwise``.
    rng = np.random.default_rng(3)
    P = np.random.default_rng(4).uniform(size=(20, 5))
    for kind in BASE_METRICS:
        base = pairwise_base(kind, P, P)
        for phi in _random_phis(rng, n_combos=5):
            D = CompositionMetric(kind, phi).pairwise(P, P)
            assert np.array_equal(D, D.T)  # symmetry, exact
            assert np.all(D[base > 0.0] > 0.0)  # positivity off the diagonal
            # triangle inequality: D[i, k] <= D[i, j] + D[j, k]
            assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :] + 1e-9)


def test_monotone_compatibility_with_base():
    rng = np.random.default_rng(6)
    phi = random_combination(rng)
    cm = CompositionMetric("euclidean", phi)
    for _ in range(200):
        a, b, c = rng.uniform(size=(3, 3))
        base_ab, base_ac = pairwise_base("euclidean", [a], [b, c])[0]
        if base_ab == base_ac:
            continue
        composed_ab, composed_ac = cm.pairwise([a], [b, c])[0]
        assert (base_ab < base_ac) == (composed_ab < composed_ac)


def test_coefficient_scaling_scales_distance():
    rng = np.random.default_rng(8)
    phi = random_combination(rng)
    for c in (0.5, 3.0, 42.0):
        cm = CompositionMetric("euclidean", phi)
        cm_scaled = CompositionMetric("euclidean", scaled(phi, c))
        a, b = rng.uniform(size=(2, 4))
        assert distance(cm_scaled, a, b) == pytest.approx(
            c * distance(cm, a, b), rel=1e-12
        )


# Below 8 features numpy adds them in sequence, from 8 to 128 in 8 strided
# partial sums, and above 128 it splits them in two: every branch and each
# boundary between them.
PAIRWISE_WIDTHS = (*range(1, 21), 64, 127, 128, 129, 200)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "chebyshev"])
def test_pairwise_tiles_match_one_shot_bit_for_bit(kind, monkeypatch):
    # The pin on the summation order: one column at a time, block by block,
    # must give the bits of the one-shot tensor reduction.
    rng = np.random.default_rng(3)
    n = 16
    monkeypatch.setattr(metrics, "TILE_BYTES", 2**14)  # keeps 3 tiles small
    for m in PAIRWISE_WIDTHS:
        tile = max(1, metrics.TILE_BYTES // (8 * n * metrics._scratch_count(kind, m)))
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)  # columns of very different sizes
        B = rng.uniform(-5.0, 5.0, size=(n, m)) * scales
        # One row, around one tile, and whole tiles with an empty remainder.
        for q in (1, tile - 1, tile, tile + 1, 3 * tile):
            A = rng.uniform(-5.0, 5.0, size=(q, m)) * scales
            assert np.array_equal(pairwise_base(kind, A, B), one_shot_pairwise(kind, A, B)), (m, q)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan", "chebyshev"])
def test_composed_pairwise_tiles_match_one_shot_bit_for_bit(kind, monkeypatch):
    rng = np.random.default_rng(5)
    n, m, tile = 16, 3, 5
    phi = PhiCombination(("sqrt", "log1p", "rational"), (0.7, 2.0, 1.3))
    cm = CompositionMetric(kind, phi)
    B = rng.uniform(-5.0, 5.0, size=(n, m))
    queries = [rng.uniform(-5.0, 5.0, size=(q, m)) for q in (1, tile - 1, tile, tile + 1, 3 * tile)]
    one_shot = [phi_eval(phi, pairwise_base(kind, A, B)) for A in queries]
    # The modulus then runs on blocks of ``tile`` rows of base distances.
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * tile)
    for A, expected in zip(queries, one_shot):
        assert np.array_equal(cm.pairwise(A, B), expected)
    assert cm.pairwise(np.empty((0, m)), B).shape == (0, n)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cm.pairwise(np.empty((0, m + 1)), B)


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_square_matches_pairwise_of_the_points_with_themselves(kind, monkeypatch):
    # Each pair is computed once and mirrored; the mirror must keep the bits.
    rng = np.random.default_rng(6)
    cm = CompositionMetric(kind, PhiCombination(ATOM_NAMES, rng.uniform(0.1, 2.0, len(ATOM_NAMES))))
    tile = 4
    for m in (2, 9, 130):
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        for n in (1, tile - 1, tile, tile + 1, 3 * tile):
            X = rng.uniform(-5.0, 5.0, size=(n, m)) * scales
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "TILE_BYTES", 8 * n * tile)  # ``tile`` rows a block
                square = cm.square(X)
            assert np.array_equal(square, cm.pairwise(X, X)), (m, n)
            assert np.array_equal(square, square.T)
    assert cm.square(np.empty((0, 3))).shape == (0, 0)


def test_pairwise_empty_query_block():
    for m in (2, 8, 130):
        B = np.ones((4, m))
        for kind in BASE_METRICS:
            assert pairwise_base(kind, np.empty((0, m)), B).shape == (0, 4)
        with pytest.raises(ValueError, match="unknown base metric"):
            pairwise_base("cosine", np.empty((0, m)), B)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_base("euclidean", np.empty((0, m + 1)), B)


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_pairwise_without_features_is_zero(kind):
    D = pairwise_base(kind, np.empty((3, 0)), np.empty((2, 0)))
    assert D.shape == (3, 2)
    assert np.array_equal(D, np.zeros((3, 2)))


def _traced_peak(kind, A, B):
    tracemalloc.start()
    try:
        pairwise_base(kind, A, B)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairwise_peak_memory_is_bounded_by_the_tile():
    rng = np.random.default_rng(4)
    A, B = rng.uniform(size=(2000, 10)), rng.uniform(size=(500, 10))
    # One (q, n, m) difference tensor and its square would need 160 MB.
    assert _traced_peak("euclidean", A, B) < 32 * 2**20


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_pairwise_peak_memory_with_many_features(kind):
    # At m = 200 eight partial sums, the current term and a held half sum are
    # live at once; the row blocks are sized for all of them.
    rng = np.random.default_rng(5)
    A, B = rng.uniform(size=(2000, 200)), rng.uniform(size=(500, 200))
    peak = _traced_peak(kind, A, B)
    assert peak < 32 * 2**20
    # Beyond the result and B transposed, one tile of scratch and the
    # buffers of numpy's broadcasting subtract (about 128 KiB).
    assert peak < 8 * 2000 * 500 + B.nbytes + metrics.TILE_BYTES + 2**18
