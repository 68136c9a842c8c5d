import math
import warnings

import numpy as np
import pytest

from lipext.constants import (
    IndexedSample,
    coherence_constant,
    constants_report,
    error_bound,
    index_bound,
    katetov_shift,
)
from lipext.dataio import read_dataset, table1_path
from lipext.metrics import CompositionMetric
from lipext.phi import PhiCombination, identity_phi
from lipext.pipeline import minmax_scale

from helpers import distance, random_combination, scaled
from oracles import constants as oracle_constants

IDENTITY = CompositionMetric("euclidean", identity_phi())


def line_sample(xs, values):
    return IndexedSample(np.array(xs, dtype=float).reshape(-1, 1), values)


def test_coherence_single_pair():
    s = line_sample([0.0, 1.0], [0.0, 3.0])
    assert coherence_constant(s, IDENTITY) == 3.0


def test_coherence_constant_index_is_zero():
    s = line_sample([0.0, 1.0, 2.5], [5.0, 5.0, 5.0])
    assert coherence_constant(s, IDENTITY) == 0.0


def test_coherence_under_sqrt_modulus():
    cm = CompositionMetric("euclidean", PhiCombination(("sqrt",), (1.0,)))
    s = line_sample([0.0, 1.0], [0.0, 1.0])
    assert coherence_constant(s, cm) == 1.0


def test_coherence_infinite_on_conflicting_duplicates():
    s = line_sample([1.0, 1.0], [0.0, 2.0])
    assert coherence_constant(s, IDENTITY) == math.inf
    report = constants_report(s, IDENTITY)
    assert report.K == math.inf
    assert report.k_pair == (0, 1)
    assert any("not coherent" in n for n in report.notes)


def test_normalization_examples():
    assert constants_report(line_sample([0.0, 1.0], [0.0, 2.0]), IDENTITY).Q == 0.5
    assert constants_report(line_sample([0.0, 1.0], [0.0, 0.0]), IDENTITY).Q == math.inf
    assert constants_report(line_sample([0.0, 2.0], [1.0, 1.0]), IDENTITY).Q == 1.0


def test_index_bound():
    assert index_bound(line_sample([0.0, 1.0, 2.0], [-7.0, 3.0, 5.0])) == 7.0


def test_error_bound_values():
    assert error_bound(2.0, 0.5, 7.0) == 0.0
    assert error_bound(2.0, 1.0, 3.0) == 3.0
    assert error_bound(1.0, 1.0, 100.0) == 0.0


def test_error_bound_warns_below_one():
    with pytest.warns(UserWarning):
        assert error_bound(0.5, 0.5, 10.0) == 0.0


def test_katetov_shift():
    s = line_sample([0.0, 1.0, 2.0], [3.0, 5.0, 4.0])
    assert np.array_equal(katetov_shift(s).values, [0.0, 2.0, 1.0])
    s = line_sample([0.0, 1.0], [0.0, 1.0])
    assert np.array_equal(katetov_shift(s).values, [0.0, 1.0])
    s = line_sample([0.0, 1.0], [-2.0, 2.0])
    assert np.array_equal(katetov_shift(s).values, [0.0, 4.0])


def test_katetov_shift_single_row():
    s = IndexedSample(np.array([[1.0, 2.0]]), [5.0])
    assert np.array_equal(katetov_shift(s).values, [0.0])


def test_pairwise_ops_need_two_rows():
    s = IndexedSample(np.array([[1.0]]), [5.0])
    with pytest.raises(ValueError):
        coherence_constant(s, IDENTITY)


def _random_sample(rng, n=None, m=None):
    n = n or int(rng.integers(2, 13))
    m = m or int(rng.integers(1, 6))
    pts = rng.uniform(size=(n, m))
    vals = rng.uniform(0.0, 10.0, size=n)
    return IndexedSample(pts, vals)


@pytest.mark.filterwarnings("ignore:K\\*Q")
def test_kq_product_invariant_under_coefficient_scaling():
    rng = np.random.default_rng(10)
    for _ in range(20):
        s = _random_sample(rng)
        phi = random_combination(rng)
        cm = CompositionMetric("euclidean", phi)
        K = coherence_constant(s, cm)
        Q = constants_report(s, cm).Q
        for c in (0.5, 2.0, 10.0):
            cm_c = CompositionMetric("euclidean", scaled(phi, c))
            K_c = coherence_constant(s, cm_c)
            Q_c = constants_report(s, cm_c).Q
            assert K_c == pytest.approx(K / c, rel=1e-9)
            assert Q_c == pytest.approx(Q * c, rel=1e-9)
            assert K_c * Q_c == pytest.approx(K * Q, rel=1e-9)


def test_kq_at_least_one_after_shift():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = katetov_shift(_random_sample(rng))
        if not np.any(s.values > 0.0):
            continue
        phi = random_combination(rng)
        cm = CompositionMetric("euclidean", phi)
        K = coherence_constant(s, cm)
        Q = constants_report(s, cm).Q
        if math.isinf(K) or math.isinf(Q):
            continue
        assert K * Q >= 1.0 - 1e-9


@pytest.mark.filterwarnings("ignore:K\\*Q")
def test_reported_pairs_achieve_the_constants():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = _random_sample(rng)
        phi = random_combination(rng)
        cm = CompositionMetric("euclidean", phi)
        report = constants_report(s, cm)
        i, j = report.k_pair
        d = distance(cm, s.points[i], s.points[j])
        assert abs(s.values[i] - s.values[j]) / d == report.K
        i, j = report.q_pair
        d = distance(cm, s.points[i], s.points[j])
        assert d / (abs(s.values[i]) + abs(s.values[j])) == report.Q


def test_argmax_tie_resolves_to_smallest_pair():
    # Collinear points with an affine index: every pair achieves ratio 1.0
    # exactly, so the reported pair must be the lexicographically first.
    s = line_sample([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    report = constants_report(s, IDENTITY)
    assert report.K == 1.0
    assert report.k_pair == (0, 1)


@pytest.mark.filterwarnings("ignore:K\\*Q")
def test_matches_double_loop_oracle_small_samples():
    rng = np.random.default_rng(13)
    for trial in range(30):
        s = _random_sample(rng)
        phi = random_combination(rng)
        for kind in ("euclidean", "manhattan", "chebyshev"):
            cm = CompositionMetric(kind, phi)
            K_o, Q_o, C_o = oracle_constants(
                s.points.tolist(), s.values.tolist(), kind, phi.atoms, phi.coefficients
            )
            assert coherence_constant(s, cm) == pytest.approx(K_o, rel=1e-12, abs=1e-12)
            assert constants_report(s, cm).Q == pytest.approx(Q_o, rel=1e-12, abs=1e-12)
            assert index_bound(s) == pytest.approx(C_o, rel=1e-12, abs=1e-12)


def test_report_json_encodes_infinity():
    s = line_sample([0.0, 1.0], [0.0, 0.0])
    d = constants_report(s, IDENTITY).to_json_dict()
    assert d["Q"] == "inf"
    assert d["bound"] == "inf"


def test_report_bound_is_that_of_the_shifted_index_on_table1():
    s = minmax_scale(read_dataset(table1_path())).indexed_rows().as_sample()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "K*Q < 1" clamp on the shifted index
        report = constants_report(s, IDENTITY)
    args = ("euclidean", ("identity",), (1.0,))
    K_raw, Q_raw, C_raw = oracle_constants(s.points.tolist(), s.values.tolist(), *args)
    shifted = katetov_shift(s)
    K_sh, Q_sh, C_sh = oracle_constants(shifted.points.tolist(), shifted.values.tolist(), *args)
    assert report.K == pytest.approx(K_raw, rel=1e-12)
    assert report.K == pytest.approx(K_sh, rel=1e-12)  # K does not move under the shift
    assert (report.Q, report.C) == (pytest.approx(Q_raw, rel=1e-12), C_raw)
    assert report.Q_shifted == pytest.approx(Q_sh, rel=1e-12)
    assert report.C_shifted == C_sh == 15.0
    assert report.bound == pytest.approx((K_sh * Q_sh - 1.0) * C_sh, rel=1e-12)
    assert report.Q_shifted == pytest.approx(0.74169, abs=1e-5)
    assert report.bound == pytest.approx(150.221, abs=1e-3)
    d = report.to_json_dict()
    assert (d["Q_shifted"], d["C_shifted"], d["bound"]) == (
        report.Q_shifted, report.C_shifted, report.bound,
    )


def test_tie_at_the_minimum_makes_the_shifted_bound_infinite():
    # Rows 0 and 1 are distinct and both carry the minimum, so both shift
    # to 0 and their Katetov ratio has a zero denominator.
    s = line_sample([0.0, 1.0, 2.0], [1.0, 1.0, 3.0])
    report = constants_report(s, IDENTITY)
    assert math.isfinite(report.Q) and math.isfinite(report.K)
    assert report.Q_shifted == math.inf
    assert report.C_shifted == 2.0
    assert report.bound == math.inf
    assert any("(0, 1)" in note and "minimum" in note for note in report.notes)
    d = report.to_json_dict()
    assert d["Q_shifted"] == "inf" and d["bound"] == "inf"
