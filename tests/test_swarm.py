import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lipext
from lipext import metrics, swarm
from lipext.constants import IndexedSample, constants_report, katetov_shift
from lipext.dataio import json_text, read_dataset, table1_path
from lipext.metrics import CompositionMetric
from lipext.phi import ATOM_FUNCS, LINEAR_BASIS, SQRT_BASIS, PhiCombination, atom_values
from lipext.pipeline import minmax_scale, objective_test_rmse
from lipext.swarm import PsoConfig, _kq_terms, minimize_kq, objective_kq, pso_minimize, settle

from helpers import condensed_pairs, record_blocks, tiles


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
    # An objective that pushes toward the all-zero corner, which, like the
    # zero vector of both coefficient objectives, scores +inf.
    def toward_zero(lam):
        return float(np.sum(lam)) if np.any(lam) else math.inf

    result = pso_minimize(toward_zero, dim=3, cfg=PsoConfig(seed=7))
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
        pso_minimize(sphere, dim=0, cfg=PsoConfig())


def test_settle_scales_to_unit_sum_and_keeps_the_identity_on_ties():
    def ray(lam):  # scale-free, and lowest on the direction (1, 1, 0)
        return float(np.sum((lam / np.sum(lam) - [0.5, 0.5, 0.0]) ** 2))

    lam, value, identity_value = settle(ray, np.array([3.0, 3.0, 0.0]))
    assert np.array_equal(lam, [0.5, 0.5, 0.0])
    assert value == ray(lam) == 0.0 and identity_value == ray(np.array([1.0, 0.0, 0.0]))
    # A rescaled identity, the zero vector and a tie are written as the identity.
    for found in ([7.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
        lam, value, identity_value = settle(lambda l: 1.0, np.array(found))
        assert np.array_equal(lam, [1.0, 0.0, 0.0]) and value == identity_value == 1.0


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


def test_objectives_score_zero_vector_infinite():
    # The zero vector is not a modulus: neither objective scores it finite,
    # even on a constant index, where K and Q of the zero map are both 0.
    for values in ([0.0, 2.0], [1.0, 1.0]):
        s = IndexedSample(np.array([[0.0], [1.0]]), values)
        assert objective_kq(s, "euclidean", LINEAR_BASIS)(np.zeros(4)) == math.inf
    indexed = minmax_scale(read_dataset(table1_path())).indexed_rows()
    rmse = objective_test_rmse(indexed, "euclidean", LINEAR_BASIS)
    assert math.isfinite(rmse(np.array([1.0, 0.0, 0.0, 0.0])))
    assert rmse(np.zeros(4)) == math.inf


def test_objective_kq_agrees_with_constants_route():
    rng = np.random.default_rng(17)
    s = katetov_shift(IndexedSample(rng.uniform(size=(8, 2)), rng.uniform(0.0, 9.0, 8)))
    atoms = ("identity", "sqrt", "log1p")
    obj = objective_kq(s, "euclidean", atoms)
    for _ in range(10):
        lam = rng.uniform(0.05, 8.0, size=3)
        cm = CompositionMetric("euclidean", PhiCombination(atoms, tuple(lam)))
        report = constants_report(s, cm)
        expected = report.K * report.Q
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
    d = json.loads(json_text(result))
    assert d["best_objective"] == "inf"
    assert d["history"] == ["inf", "inf"]


# ---------------------------------------------------------------------------
# exact K*Q minimization


def random_shifted_sample(rng, n):
    m = int(rng.integers(1, 6))
    points = rng.uniform(size=(n, m)) ** rng.uniform(0.3, 3.0)
    values = points @ rng.uniform(size=m) + 0.1 * rng.normal(size=n)
    return katetov_shift(IndexedSample(points, values))


def linprog_kq(s, atoms):
    """K*Q at the coefficients of scipy's solution of the same linear program.

    The rows are scaled as in ``minimize_kq``; unscaled, HiGHS's absolute
    feasibility tolerance lets t overshoot on pairs with a small |dI|.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    _, _, d, dv, den, _ = condensed_pairs(s, "euclidean")
    A = np.stack([ATOM_FUNCS[a](d) for a in atoms], axis=1)
    k, q = dv > 0.0, den > 0.0
    a_ub = np.vstack([
        np.hstack([-A[k] / dv[k, None], np.ones((k.sum(), 1))]),
        np.hstack([A[q] / den[q, None], np.zeros((q.sum(), 1))]),
    ])
    b_ub = np.concatenate([np.zeros(k.sum()), np.ones(q.sum())])
    lp = linprog(np.r_[np.zeros(len(atoms)), -1.0], A_ub=a_ub, b_ub=b_ub,
                 bounds=[(0.0, None)] * (len(atoms) + 1), method="highs")
    assert lp.status == 0, lp.message
    return objective_kq(s, "euclidean", atoms)(lp.x[:-1])


# ``rows`` rows of pairs i < j, the rows 0 to n - 2 of a sample of n = rows
# + 1: a tile of one row, then tile - 1, tile, tile + 1 and 3 * tile rows
# against a tile of four.
@pytest.mark.parametrize("rows, tile", [(12, 1), (3, 4), (4, 4), (5, 4), (12, 4)])
@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
def test_kq_terms_in_row_blocks_match_the_condensed_pairs(rows, tile, base, monkeypatch):
    # Grid points with duplicates; the index has a negative minimum, so the
    # Katetov shift moves every value.
    n = rows + 1
    rng = np.random.default_rng(13 * n + tile)
    s = IndexedSample(rng.integers(0, 3, size=(n, 2)) / 2.0, rng.uniform(-5.0, 5.0, n))
    _, _, d_base, gaps, _, denom_shifted = condensed_pairs(s, base)
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * (4 + 4) * tile)  # ``tile`` rows a block
    sizes = record_blocks(monkeypatch, swarm)
    for atoms in (LINEAR_BASIS, SQRT_BASIS):
        sizes.clear()
        terms = _kq_terms(s, base, atoms)
        assert sizes == tiles(rows, tile)
        expected = (atom_values(atoms, d_base), gaps, denom_shifted)
        assert [a.tobytes() for a in terms] == [a.tobytes() for a in expected]


def test_kq_terms_take_a_shifted_sum_beyond_the_float_range_as_inf_without_a_warning():
    # Shifted to minimum 0, the index is 0, 1e308, 1e308, whose last two sum to +inf.
    s = IndexedSample([[0.0], [1.0], [3.0]], [-1e308, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, gaps, denom = _kq_terms(s, "euclidean", LINEAR_BASIS)
    assert gaps.tolist() == [1e308, 1e308, 0.0]
    assert denom.tolist() == [1e308, 1e308, math.inf]


@pytest.mark.parametrize("atoms", [LINEAR_BASIS, SQRT_BASIS], ids=["linear", "sqrt"])
def test_minimize_kq_matches_linprog(atoms):
    rng = np.random.default_rng(29)
    for _ in range(20):
        s = random_shifted_sample(rng, int(rng.integers(3, 201)))
        lam, best, identity_value = minimize_kq(s, "euclidean", atoms)
        assert best == pytest.approx(linprog_kq(s, atoms), rel=1e-9)
        assert best <= identity_value
        assert np.all(lam >= 0.0) and np.sum(lam) == pytest.approx(1.0, rel=1e-12)
        # The value is the product at exactly the returned coefficients.
        assert best == objective_kq(s, "euclidean", atoms)(lam)


def test_minimize_kq_not_worse_than_pso():
    rng = np.random.default_rng(31)
    for trial in range(6):
        s = random_shifted_sample(rng, int(rng.integers(5, 40)))
        atoms = LINEAR_BASIS if trial % 2 else SQRT_BASIS
        obj = objective_kq(s, "euclidean", atoms)
        pso = pso_minimize(obj, 4, PsoConfig(swarm_size=20, iterations=40, seed=trial))
        _, best, identity_value = minimize_kq(s, "euclidean", atoms)
        assert best <= identity_value == obj(np.array([1.0, 0.0, 0.0, 0.0]))
        # PSO can land an ulp lower at a coefficient vector it does not scale.
        assert best <= pso.best_objective * (1.0 + 1e-12)


def test_minimize_kq_two_point_floor_returns_identity():
    lam, best, identity_value = minimize_kq(two_point_sample(), "euclidean", LINEAR_BASIS)
    assert best == identity_value == 1.0
    assert np.array_equal(lam, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "points, values",
    [
        ([[1.0], [1.0], [2.0]], [0.0, 2.0, 1.0]),  # conflicting duplicates: K = inf
        ([[0.0], [1.0], [2.0]], [0.0, 0.0, 3.0]),  # two rows tied at the minimum: Q = inf
        ([[0.0], [1.0], [2.0]], [0.0, 0.0, 0.0]),  # constant index
    ],
    ids=["duplicates", "tied-minimum", "constant"],
)
def test_minimize_kq_infinite_cases_return_identity(points, values):
    s = IndexedSample(np.array(points), values)
    lam, best, identity_value = minimize_kq(s, "euclidean", LINEAR_BASIS)
    assert best == identity_value == math.inf
    assert np.array_equal(lam, [1.0, 0.0, 0.0, 0.0])


def test_minimize_kq_runs_without_scipy(tmp_path):
    # The solver is numpy only: optimize succeeds with scipy made unimportable.
    out = tmp_path / "out"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from lipext.cli import main\n"
        "from lipext.dataio import table1_path\n"
        f"code = main(['optimize', '--data', str(table1_path()), '--out', {str(out)!r}])\n"
        "assert 'scipy' not in [m.split('.')[0] for m in sys.modules if sys.modules[m] is not None]\n"
        "sys.exit(code)\n"
    )
    src = str(Path(lipext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads((out / "swarm_result.json").read_text())
    assert sorted(result) == ["best_objective", "best_phi", "identity_objective", "objective"]
