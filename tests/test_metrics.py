import math

import numpy as np
import pytest

from lipext.metrics import (
    BASE_METRICS,
    CompositionMetric,
    base_distance,
    pairwise_base,
    rowwise_base,
)
from lipext.phi import ATOM_NAMES, PhiCombination, identity_phi, random_combination

from oracles import base_dist


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
        base_distance("euclidean", (1.0,), (1.0, 2.0))
    cm = CompositionMetric()
    with pytest.raises(ValueError):
        cm.distance((1.0,), (1.0, 2.0))


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        base_distance("cosine", (0.0,), (1.0,))
    with pytest.raises(ValueError):
        CompositionMetric("cosine", identity_phi())


def test_composed_zero_on_equal_points():
    rng = np.random.default_rng(0)
    for kind in BASE_METRICS:
        phi = random_combination(rng)
        cm = CompositionMetric(kind, phi)
        a = rng.uniform(size=4)
        assert cm.distance(a, a) == 0.0


def test_composed_log_value():
    cm = CompositionMetric("euclidean", PhiCombination(("log1p",), (1.0,)))
    assert cm.distance((0.0,), (math.e - 1.0,)) == pytest.approx(1.0, rel=1e-12)


def test_identity_composition_reduces_to_base():
    rng = np.random.default_rng(1)
    cm = CompositionMetric("euclidean", identity_phi())
    for _ in range(100):
        a, b = rng.uniform(size=(2, 3))
        assert cm.distance(a, b) == base_distance("euclidean", a, b)


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


def _random_phis(rng, n_combos=20):
    phis = [PhiCombination((name,), (1.0,)) for name in ATOM_NAMES]
    phis += [random_combination(rng) for _ in range(n_combos)]
    return phis


def test_metric_axioms_on_random_triples():
    # Lighter version of the acceptance gate: 1000 triples per modulus.
    rng = np.random.default_rng(3)
    a, b, c = np.random.default_rng(4).uniform(size=(3, 1000, 5))
    for kind in BASE_METRICS:
        d_ab = rowwise_base(kind, a, b)
        for phi in _random_phis(rng, n_combos=5):
            cm = CompositionMetric(kind, phi)
            ab = cm.rowwise(a, b)
            ba = cm.rowwise(b, a)
            bc = cm.rowwise(b, c)
            ac = cm.rowwise(a, c)
            assert np.array_equal(ab, ba)  # symmetry, exact
            assert np.all(ab[d_ab > 0] > 0.0)  # positivity off the diagonal
            assert np.all(ac <= ab + bc + 1e-9)  # triangle inequality


def test_monotone_compatibility_with_base():
    rng = np.random.default_rng(6)
    phi = random_combination(rng)
    cm = CompositionMetric("euclidean", phi)
    for _ in range(200):
        a, b, c = rng.uniform(size=(3, 3))
        base_ab = base_distance("euclidean", a, b)
        base_ac = base_distance("euclidean", a, c)
        if base_ab == base_ac:
            continue
        composed_ab = cm.distance(a, b)
        composed_ac = cm.distance(a, c)
        assert (base_ab < base_ac) == (composed_ab < composed_ac)


def test_coefficient_scaling_scales_distance():
    rng = np.random.default_rng(8)
    phi = random_combination(rng)
    for c in (0.5, 3.0, 42.0):
        cm = CompositionMetric("euclidean", phi)
        cm_scaled = CompositionMetric("euclidean", phi.scaled(c))
        a, b = rng.uniform(size=(2, 4))
        assert cm_scaled.distance(a, b) == pytest.approx(
            c * cm.distance(a, b), rel=1e-12
        )
