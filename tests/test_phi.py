import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipext.dataio import json_text
from lipext.phi import ATOM_NAMES, PhiCombination, identity_phi, phi_eval, weighted_sum

from helpers import random_combination, scaled, validate_modulus, validate_phi
from oracles import phi_value


def test_identity_eval():
    assert phi_eval(identity_phi(), 2.0) == 2.0


def test_zero_maps_to_zero_exactly():
    for name in ATOM_NAMES:
        assert phi_eval(PhiCombination((name,), (1.0,)), 0.0) == 0.0


def test_two_atom_combination_value():
    phi = PhiCombination(("identity", "log1p"), (1.0, 1.0))
    expected = 1.0 + math.log(2.0)  # = 1.6931471805599453
    assert phi_eval(phi, 1.0) == pytest.approx(expected, rel=1e-12)
    assert phi_eval(phi, 1.0) == pytest.approx(1.693147, abs=1e-6)


def test_negative_input_rejected():
    # A NaN does not hide a negative value, and is itself not negative, as
    # with ``np.any(x < 0.0)``; neither is -0.0.
    for x in (-0.5, [0.1, -0.1], [np.nan, -0.1], [-0.1, np.nan], [-np.inf]):
        with pytest.raises(ValueError):
            phi_eval(identity_phi(), np.array(x))
    for x in ([np.nan, np.nan], [], [-0.0], [[]]):
        assert np.array_equal(phi_eval(identity_phi(), np.array(x)), np.array(x), equal_nan=True)


def test_vector_eval_matches_scalar():
    phi = PhiCombination(("sqrt", "arctan"), (0.5, 2.0))
    xs = np.array([0.0, 0.3, 1.7, 9.0])
    vec = phi_eval(phi, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == phi_eval(phi, float(x))


def test_eval_matches_pure_python_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        phi = random_combination(rng)
        x = float(rng.uniform(0.0, 100.0))
        assert phi_eval(phi, x) == pytest.approx(
            phi_value(phi.atoms, phi.coefficients, x), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize(
    "atoms,coeffs",
    [
        ((), ()),
        (("identity",), ()),
        (("identity",), (0.0,)),
        (("identity", "sqrt"), (0.0, 0.0)),
        (("identity",), (-1.0,)),
        (("cube",), (1.0,)),
        (("identity",), (float("nan"),)),
        (("identity", "sqrt"), (1.0, float("inf"))),
    ],
)
def test_invalid_combinations_rejected(atoms, coeffs):
    with pytest.raises(ValueError):
        PhiCombination(atoms, coeffs)


@pytest.mark.parametrize("n_coeffs", [1, 3])
def test_weighted_sum_rejects_a_count_mismatch(n_coeffs):
    # Two atom value arrays: one coefficient too few or too many would
    # otherwise drop a term silently.
    values = [np.ones(3), np.full(3, 2.0)]
    with pytest.raises(ValueError):
        weighted_sum((1.0,) * n_coeffs, values)
    assert weighted_sum((1.0, 0.5), values).tolist() == [2.0, 2.0, 2.0]


def test_validate_sqrt_and_identity_pass():
    assert validate_phi(PhiCombination(("sqrt",), (1.0,)), 10_000, seed=1).passed
    assert validate_phi(identity_phi(), 10_000, seed=2).passed


def test_every_atom_passes_validation():
    for i, name in enumerate(ATOM_NAMES):
        report = validate_phi(PhiCombination((name,), (1.0,)), 10_000, seed=100 + i)
        assert report.passed, f"{name}: {report}"


def test_random_combinations_pass_validation():
    rng = np.random.default_rng(11)
    for i in range(20):
        phi = random_combination(rng)
        report = validate_phi(phi, 10_000, seed=200 + i)
        assert report.passed, f"{phi}: {report}"


def test_square_function_fails_subadditivity():
    report = validate_modulus(lambda x: x**2, 10_000, seed=3)
    assert not report.passed
    assert report.failed_axiom == "subadditivity"
    x, y = report.counterexample
    # The returned pair really is a counterexample: (x+y)^2 > x^2 + y^2.
    assert (x + y) ** 2 > x**2 + y**2 + 1e-9
    # Hand check of the canonical violation the probe is detecting.
    assert (1.0 + 1.0) ** 2 > 1.0**2 + 1.0**2


def test_decreasing_function_fails_monotonicity():
    report = validate_modulus(lambda x: -x, 1_000, seed=4)
    assert not report.passed


def test_probe_count_precondition():
    with pytest.raises(ValueError):
        validate_phi(identity_phi(), 0, seed=0)


def test_monotone_on_sorted_grid():
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = random_combination(rng)
        grid = np.sort(rng.uniform(0.0, 50.0, size=200))
        grid = np.unique(grid)
        vals = phi_eval(phi, grid)
        assert np.all(np.diff(vals) > 0.0)


@settings(max_examples=100, deadline=None)
@given(
    c=st.floats(min_value=1e-6, max_value=1e6),
    x=st.floats(min_value=0.0, max_value=1e3),
)
def test_homogeneity_in_coefficients(c, x):
    phi = PhiCombination(("identity", "log1p", "rational"), (0.5, 2.0, 1.0))
    lhs = phi_eval(scaled(phi, c), x)
    rhs = c * phi_eval(phi, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1e3),
    y=st.floats(min_value=0.0, max_value=1e3),
)
def test_subadditivity_property_all_atoms(x, y):
    for name in ATOM_NAMES:
        phi = PhiCombination((name,), (1.0,))
        assert phi_eval(phi, x + y) <= phi_eval(phi, x) + phi_eval(phi, y) + 1e-9


def test_json_round_trip():
    phi = PhiCombination(("identity", "sqrt_log1p"), (2.0, 0.25))
    d = json.loads(json_text(phi))
    assert d == {"atoms": ["identity", "sqrt_log1p"], "coefficients": [2.0, 0.25]}
    assert PhiCombination.from_json_dict(d) == phi
