import math

import numpy as np
import pytest

from lipext.constants import IndexedSample, katetov_shift
from lipext.constants import coherence_constant, normalization_constant
from lipext.metrics import CompositionMetric
from lipext.phi import PhiCombination
from lipext.swarm import PsoConfig, nudge_lambda, objective_kq, pso_minimize


def sphere(lam):
    return float(np.sum((lam - 1.0) ** 2))


def test_sphere_minimum_found():
    result = pso_minimize(sphere, dim=3, cfg=PsoConfig(seed=42))
    assert result.best_objective <= 1e-4
    assert np.all(np.abs(result.best_lambda - 1.0) <= 0.01)


def test_constant_objective():
    result = pso_minimize(lambda lam: 7.0, dim=2, cfg=PsoConfig(iterations=30, seed=1))
    assert result.best_objective == 7.0
    assert np.all(result.history == 7.0)


def test_history_non_increasing():
    result = pso_minimize(sphere, dim=4, cfg=PsoConfig(seed=3))
    assert np.all(np.diff(result.history) <= 0.0)


def test_same_seed_bitwise_identical():
    cfg = PsoConfig(seed=99)
    r1 = pso_minimize(sphere, dim=3, cfg=cfg)
    r2 = pso_minimize(sphere, dim=3, cfg=cfg)
    assert np.array_equal(r1.best_lambda, r2.best_lambda)
    assert r1.best_objective == r2.best_objective
    assert np.array_equal(r1.history, r2.history)


def test_different_seeds_differ():
    r1 = pso_minimize(sphere, dim=3, cfg=PsoConfig(seed=0, iterations=5))
    r2 = pso_minimize(sphere, dim=3, cfg=PsoConfig(seed=1, iterations=5))
    assert not np.array_equal(r1.best_lambda, r2.best_lambda)


def test_nan_objective_treated_as_infinite():
    def patchy(lam):
        if lam[0] > 5.0:
            return float("nan")
        return sphere(lam)

    result = pso_minimize(patchy, dim=2, cfg=PsoConfig(seed=5))
    assert math.isfinite(result.best_objective)
    assert result.best_lambda[0] <= 5.0


def test_best_lambda_in_bounds_and_not_zero():
    # An objective that pushes toward the all-zero corner.
    result = pso_minimize(lambda lam: float(np.sum(lam)), dim=3, cfg=PsoConfig(seed=7))
    assert np.all(result.best_lambda >= 0.0)
    assert np.all(result.best_lambda <= 10.0)
    assert np.any(result.best_lambda != 0.0)


def test_identity_seed_guarantee():
    # Whatever happens later, the first particle evaluates the identity
    # coefficients, so the best can never be worse than that.
    def awkward(lam):
        return float(np.sum(np.abs(lam - 0.5)) + 3.0)

    identity = np.array([1.0, 0.0, 0.0])
    result = pso_minimize(awkward, dim=3, cfg=PsoConfig(iterations=1, seed=11))
    assert result.best_objective <= awkward(identity)


def test_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=1)
    with pytest.raises(ValueError):
        PsoConfig(iterations=0)
    with pytest.raises(ValueError):
        PsoConfig(lambda_max=0.0)
    with pytest.raises(ValueError):
        PsoConfig(objective="banana")
    with pytest.raises(ValueError):
        pso_minimize(sphere, dim=0, cfg=PsoConfig())


def test_nudge_lambda():
    assert np.array_equal(nudge_lambda(np.zeros(3)), [1e-9, 0.0, 0.0])
    lam = np.array([0.0, 2.0])
    assert np.array_equal(nudge_lambda(lam), lam)


def two_point_sample():
    return IndexedSample(np.array([[0.0], [1.0]]), [0.0, 2.0])


def test_objective_kq_two_point_value():
    obj = objective_kq(two_point_sample(), "euclidean", ("identity",))
    # K = 2, Q = 1/2 on this sample, so the product is exactly 1.
    assert obj(np.array([1.0])) == 1.0


def test_objective_kq_scale_invariant_along_rays():
    rng = np.random.default_rng(13)
    s = katetov_shift(IndexedSample(rng.uniform(size=(10, 3)), rng.uniform(0.0, 5.0, 10)))
    atoms = ("identity", "log1p", "arctan", "rational")
    obj = objective_kq(s, "euclidean", atoms)
    lam = rng.uniform(0.1, 5.0, size=4)
    base = obj(lam)
    for c in (0.5, 2.0, 10.0):
        assert obj(c * lam) == pytest.approx(base, abs=1e-9, rel=1e-9)


def test_objective_kq_zero_vector_nudged_finite():
    obj = objective_kq(two_point_sample(), "euclidean", ("identity",))
    assert math.isfinite(obj(np.array([0.0])))
    assert obj(np.array([0.0])) == pytest.approx(1.0, rel=1e-9)


def test_objective_kq_agrees_with_constants_route():
    rng = np.random.default_rng(17)
    s = katetov_shift(IndexedSample(rng.uniform(size=(8, 2)), rng.uniform(0.0, 9.0, 8)))
    atoms = ("identity", "sqrt", "log1p")
    obj = objective_kq(s, "euclidean", atoms)
    for _ in range(10):
        lam = rng.uniform(0.05, 8.0, size=3)
        cm = CompositionMetric("euclidean", PhiCombination(atoms, tuple(lam)))
        expected = coherence_constant(s, cm) * normalization_constant(s, cm)
        assert obj(lam) == pytest.approx(expected, rel=1e-9)


def test_objective_kq_infinite_on_conflicting_duplicates():
    s = IndexedSample(np.array([[1.0], [1.0]]), [0.0, 2.0])
    obj = objective_kq(s, "euclidean", ("identity",))
    assert obj(np.array([1.0])) == math.inf


def test_objective_kq_infinite_when_k_zero_and_q_infinite():
    # A constant zero index gives K = 0; distinct rows over |I|+|I| = 0 give
    # Q = inf, and the product is inf rather than 0 * inf = nan.
    s = IndexedSample(np.array([[0.0], [1.0]]), [0.0, 0.0])
    obj = objective_kq(s, "euclidean", ("identity",))
    assert obj(np.array([1.0])) == math.inf


def test_pso_on_kq_objective_never_worse_than_identity():
    rng = np.random.default_rng(19)
    s = katetov_shift(IndexedSample(rng.uniform(size=(12, 3)), rng.uniform(0.0, 7.0, 12)))
    atoms = ("identity", "log1p", "arctan", "rational")
    obj = objective_kq(s, "euclidean", atoms)
    cfg = PsoConfig(swarm_size=20, iterations=40, seed=23)
    result = pso_minimize(obj, dim=4, cfg=cfg)
    identity_value = obj(np.array([1.0, 0.0, 0.0, 0.0]))
    assert result.best_objective <= identity_value
    assert result.best_objective >= 1.0 - 1e-9  # shifted samples cannot beat 1


def test_swarm_result_json_encodes_infinity():
    result = pso_minimize(lambda lam: math.inf, dim=1, cfg=PsoConfig(iterations=2, seed=1))
    d = result.to_json_dict()
    assert d["best_objective"] == "inf"
    assert d["history"] == ["inf", "inf"]
