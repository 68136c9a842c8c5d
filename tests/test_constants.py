import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lipext import constants, metrics
from lipext.constants import (
    ConstantsReport,
    IndexedSample,
    coherence_constant,
    constants_report,
    error_bound,
    index_bound,
    katetov_shift,
    k_front,
    pair_front,
    ratio_max,
    undominated,
)
from lipext.dataio import json_text, read_dataset, table1_path
from lipext.metrics import CompositionMetric, pairwise_base
from lipext.phi import ATOM_FUNCS, LINEAR_BASIS, SQRT_BASIS, PhiCombination, atom_values, identity_phi, phi_eval
from lipext.pipeline import minmax_scale
from lipext.swarm import _kq_value, minimize_kq

from helpers import condensed_pairs, distance, random_combination, record_blocks, scaled, tiles
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


def test_error_bound_ignores_rounding_below_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert error_bound(1.0, 1.0 - 2.0**-53, 5.0) == 0.0


def test_degenerate_zero_constants_do_not_warn():
    # Two copies of one row: K and the shifted Q are both 0, and so is the
    # shifted C, so the bound is exactly 0 and nothing is out of regime.
    s = line_sample([1.0, 1.0], [3.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = constants_report(s, IDENTITY)
        assert error_bound(0.5, 0.5, 0.0) == 0.0
    assert (report.K, report.Q_shifted, report.C_shifted, report.bound) == (0.0, 0.0, 0.0, 0.0)


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


@pytest.mark.parametrize(
    "num, den, expected",
    [
        ([0.0, 1.0], [0.0, 2.0], 0.5),  # 0/0 imposes nothing
        ([1.0, 1.0], [0.0, 2.0], math.inf),  # x/0 makes the maximum infinite
        ([1.0, 1.0], [1e-320, 2.0], math.inf),  # so does a ratio past the float range
        ([0.0, 0.0], [0.0, 0.0], 0.0),  # no pair constrains
        ([0.0, 3.0], [4.0, 2.0], 1.5),
    ],
)
def test_ratio_max_table(num, den, expected):
    num, den = np.array(num), np.array(den)
    out = np.empty(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow and 0/0 stay silent
        value = ratio_max(num, den, out)
        assert ratio_max(num, den) == value
    assert type(value) is float and value == expected
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(out, num / den)  # the ratios, NaN for 0/0


def test_reported_pairs_on_ties_and_infinities():
    # The corners of a unit square are 1 apart under chebyshev: the K ratios
    # tie at 1 on the pairs with row 3, the Q ratios at 1/2 on the others.
    s = IndexedSample([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0, 2.0])
    report = constants_report(s, CompositionMetric("chebyshev", identity_phi()))
    assert (report.K, report.k_pair, report.Q, report.q_pair) == (1.0, (0, 3), 0.5, (0, 1))
    # Pair (0, 1) overflows first, but the reported pair is the first at
    # distance 0, (2, 3), and a pair at distance 0 with equal values, (4, 5),
    # constrains nothing.
    s = line_sample([0.0, 1.0, 5.0, 5.0, 9.0, 9.0], [0.0, 10.0, 20.0, 30.0, 7.0, 7.0])
    tiny = CompositionMetric("euclidean", PhiCombination(("identity",), (1e-320,)))
    report = constants_report(s, tiny)
    assert (report.K, report.k_pair) == (math.inf, (2, 3))
    assert report.notes[0] == "not coherent: rows (2, 3) coincide but carry distinct values"
    # Two rows at distance 0 with the value 0: no pair constrains K or Q,
    # and the bound is exactly 0, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = constants_report(line_sample([1.0, 1.0], [0.0, 0.0]), IDENTITY)
    assert (report.K, report.k_pair, report.Q, report.q_pair) == (0.0, None, 0.0, None)


def test_an_overflowing_ratio_is_not_reported_as_duplicates():
    # 1e-320 times a distance is subnormal, and 10 over it exceeds the
    # float range: K is infinite, though no two rows coincide.
    s = line_sample([0.0, 1.0, 2.0], [0.0, 10.0, 20.0])
    tiny = CompositionMetric("euclidean", PhiCombination(("identity",), (1e-320,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = constants_report(s, tiny)
    assert (report.K, report.k_pair) == (math.inf, (0, 1))
    assert report.notes == ("not coherent: rows (0, 1) have a ratio beyond the float range",)


def test_a_distance_rounded_to_zero_is_not_reported_as_coinciding():
    # 1e-320 times the distance 1e-5 rounds to 0, though rows 0 and 1 differ.
    s = line_sample([0.0, 1e-5, 1.0], [0.0, 1.0, 0.5])
    tiny = CompositionMetric("euclidean", PhiCombination(("identity",), (1e-320,)))
    report = constants_report(s, tiny)
    assert (report.K, report.k_pair) == (math.inf, (0, 1))
    assert report.notes == (
        "not coherent: rows (0, 1) are distinct but their composed distance rounds to 0",
    )


def test_a_shift_beyond_the_float_range_names_the_range():
    # Both values are finite; their difference is not, and numpy does not warn.
    s = line_sample([0.0, 1.0], [1e308, -1e308])
    with pytest.raises(ValueError, match=r"index range \[-1e\+308, 1e\+308\] exceeds the float range"):
        katetov_shift(s)


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
    d = json.loads(json_text(constants_report(s, IDENTITY)))
    assert d["Q"] == "inf"
    assert d["bound"] == "inf"


def test_report_bound_is_that_of_the_shifted_index_on_table1():
    s = minmax_scale(read_dataset(table1_path())).as_sample()
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
    d = json.loads(json_text(report))
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
    d = json.loads(json_text(report))
    assert d["Q_shifted"] == "inf" and d["bound"] == "inf"


@pytest.mark.parametrize("base", ["euclidean", "manhattan", "chebyshev"])
def test_coherence_from_a_table_slice_equals_fresh_computation(base):
    # The K that the condensed pairs of the pairwise square give and the K that
    # coherence_constant computes from the points must be one float,
    # finite, infinite (conflicting duplicates) or 0.0 (a constant index).
    rng = np.random.default_rng(41)
    cases = [(_random_sample(rng), None) for _ in range(15)]
    cases.append((line_sample([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 3.0, 2.0]), math.inf))
    cases.append((line_sample([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]), 0.0))
    for k, (s, expected) in enumerate(cases):
        cm = CompositionMetric(base, random_combination(rng) if k % 2 else identity_phi())
        fresh = coherence_constant(s, cm)
        assert _table_coherence(cm.pairwise(s.points, s.points), s.values) == fresh
        if expected is not None:
            assert fresh == expected


def _table_coherence(table, values):
    """K as ``ratio_max`` gives it on the condensed pairs i < j of a square
    table of composed distances among rows with index ``values``."""
    i, j = np.triu_indices(len(values), k=1)
    return ratio_max(np.abs(values[i] - values[j]), table[i, j])


def _dominators(atoms, gain, p):
    """The items other than p that dominate p, by a scan of every item:
    each atom value no larger than p's and a gain no smaller."""
    at_most = np.all(atoms <= atoms[:, p, None], axis=0) & (gain >= gain[p])
    at_most[p] = False
    return np.flatnonzero(at_most)


def _check_front(keep, atoms, gain):
    """``undominated``'s promise on one set of items, against the O(n^2)
    scan: every item that no other item dominates is kept, and every item
    dropped has a kept dominator."""
    for p in range(len(gain)):
        dominators = _dominators(atoms, gain, p)
        if dominators.size == 0:
            assert keep[p], p
        if not keep[p]:
            assert keep[dominators].any(), p


def _front_classes(atoms, gain):
    """How many distinct (atom values, gain) items no other item dominates
    strictly, that is, without being dominated back."""
    front = set()
    for p in range(len(gain)):
        if all(np.all(atoms[:, q] == atoms[:, p]) and gain[q] == gain[p]
               for q in _dominators(atoms, gain, p)):
            front.add((*atoms[:, p], gain[p]))
    return len(front)


def test_undominated_keeps_the_front_and_a_dominator_of_every_item_dropped():
    # Base distances and gains drawn from few values, so both tie often,
    # and some gains infinite.  With atoms that grow with the base distance
    # exactly one item of each class of equal front items is kept.  With
    # atoms unrelated to it, the candidate from the sort often fails the
    # check, and the promise still holds.  So it does for ``_drop`` in a
    # random order, where only how many items go can change.
    rng = np.random.default_rng(47)
    for trial in range(40):
        rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 70))
        base_d = rng.integers(0, 12, size=(rows, n)) / 4.0
        gain = rng.integers(0, 6, size=(rows, n)).astype(float)
        gain[rng.uniform(size=gain.shape) < 0.05] = math.inf
        if trial % 3 == 2:  # one gain for every row, as for a test row's training rows
            gain = gain[0]
        monotone = trial % 2 == 0
        atoms = (atom_values(("identity", "sqrt"), base_d) if monotone
                 else rng.integers(0, 4, size=(2, rows, n)).astype(float))
        keep = undominated(base_d, gain, atoms)
        order = np.argsort(rng.uniform(size=base_d.shape), axis=-1)
        kept = constants._drop(np.take_along_axis(np.broadcast_to(gain, base_d.shape), order, axis=-1),
                               np.take_along_axis(atoms, order[None], axis=-1))
        any_order = np.empty_like(kept)
        np.put_along_axis(any_order, order, kept, axis=-1)
        for r in range(rows):
            g = np.broadcast_to(gain, base_d.shape)[r]
            _check_front(keep[r], atoms[:, r], g)
            _check_front(any_order[r], atoms[:, r], g)
            if monotone:
                assert np.count_nonzero(keep[r]) == _front_classes(atoms[:, r], g)


def _check_pair_fronts(s, base, atoms, fronts):
    """The K and Q fronts of ``pair_front`` against the condensed pairs:
    every kept item is a pair, bit for bit, and every pair is kept or has a
    kept dominator.  The Q front is checked as the K rule on negated items,
    larger atom values and smaller shifted sums.  Returns the pairs' atom
    values, gaps and shifted sums."""
    _, _, d_base, all_gaps, _, all_sums = condensed_pairs(s, base)
    all_atoms = atom_values(atoms, d_base)
    k_atoms, gaps, q_atoms, sums = fronts
    for q, (front, gain, every, all_gain) in enumerate(((k_atoms, gaps, all_atoms, all_gaps),
                                                        (-q_atoms, -sums, -all_atoms, -all_sums))):
        for k in range(len(gain)):
            assert np.any(np.all(every == front[:, k, None], axis=0) & (all_gain == gain[k]))
        kept = np.arange(len(gain) + len(all_gain)) < len(gain)
        items = np.concatenate([front, every], axis=1)
        if q:
            # A pair with an atom value that is not finite has a NaN
            # composed distance where its coefficient is 0, so for Q it
            # dominates nothing and must be on the front itself.  Set to
            # NaN, such items dominate nothing and nothing dominates them.
            loose = ~np.isfinite(every).all(axis=0)
            for p in np.flatnonzero(loose):
                assert np.any(np.all(front == every[:, p, None], axis=0) & (gain == all_gain[p]))
            kept[len(gain):] = loose
            items[:, ~np.isfinite(items).all(axis=0)] = math.nan
        _check_front(kept, items, np.concatenate([gain, all_gain]))
    return all_atoms, all_gaps, all_sums


def _check_kq_value(s, base, atoms, fronts, rng, draws=8):
    """``_kq_value`` over the fronts at each atom alone, then at random
    coefficients, some of them zero, against K * Q_shifted of
    ``constants_report``, bit for bit.  Returns the values."""
    values = []
    for k in range(len(atoms) + draws):
        if k < len(atoms):
            lam = np.eye(len(atoms))[k]
        else:
            lam = rng.uniform(0.05, 8.0, size=len(atoms)) * (rng.uniform(size=len(atoms)) < 0.8)
            lam[rng.integers(len(atoms))] += 1.0
        report = constants_report(s, CompositionMetric(base, PhiCombination(atoms, tuple(lam))))
        K, Q = report.K, report.Q_shifted
        expected = math.inf if math.inf in (K, Q) else K * Q
        assert _kq_value(lam, fronts).hex() == expected.hex(), lam
        values.append(expected)
    return values


@pytest.mark.parametrize("atoms", [("identity", "sqrt"), ("sqrt_arctan", "rational", "log1p")])
@pytest.mark.parametrize("tile", [None, 3])
def test_pair_front_keeps_a_front_of_the_pairs(atoms, tile, monkeypatch):
    # Duplicated points and tied values give 0/0 and x/0 pairs and ties.
    # With ``tile`` rows a block, the fronts are merged over many blocks.
    # Every kept item is a pair, and every pair has a kept dominator or is
    # kept, so each class of equal front pairs is kept; with correctly
    # rounded atoms, which grow with the base distance, exactly once.
    rng = np.random.default_rng(53)
    pts = rng.integers(0, 4, size=(40, 2)) / 3.0
    vals = rng.integers(0, 5, size=40).astype(float)
    if tile is not None:
        monkeypatch.setattr(metrics, "TILE_BYTES", 8 * 40 * (len(atoms) + 8) * tile)
    s = IndexedSample(pts, vals)
    fronts = pair_front(s, "manhattan", atoms)
    all_atoms, all_gaps, all_sums = _check_pair_fronts(s, "manhattan", atoms, fronts)
    gaps, sums = fronts[1], fronts[3]
    k_atoms, k_gaps = k_front(s, "manhattan", atoms)  # the same pass without the Q front
    assert k_atoms.tobytes() == fronts[0].tobytes() and k_gaps.tobytes() == gaps.tobytes()
    if atoms == ("identity", "sqrt"):
        assert len(gaps) == _front_classes(all_atoms, all_gaps)
        assert len(sums) == _front_classes(-all_atoms, -all_sums)


# ``rows`` rows of pairs i < j, the rows 0 to n - 2 of a sample of n = rows
# + 1: a tile of one row, then tile - 1, tile, tile + 1 and 3 * tile rows
# against a tile of four.
@pytest.mark.parametrize("rows, tile", [(12, 1), (3, 4), (4, 4), (5, 4), (12, 4)])
@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
def test_pair_front_in_row_blocks_gives_the_kq_of_every_pair(rows, tile, base, monkeypatch):
    # Grid points with duplicates; the index has a negative minimum, so the
    # Katetov shift moves every value.
    n = rows + 1
    rng = np.random.default_rng(13 * n + tile)
    s = IndexedSample(rng.integers(0, 3, size=(n, 2)) / 2.0, rng.uniform(-5.0, 5.0, n))
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * (4 + 8) * tile)  # ``tile`` rows a block
    sizes = record_blocks(monkeypatch, constants)
    for atoms in (LINEAR_BASIS, SQRT_BASIS):
        sizes.clear()
        fronts = pair_front(s, base, atoms)
        assert sizes == tiles(rows, tile)
        _check_pair_fronts(s, base, atoms, fronts)
        _check_kq_value(s, base, atoms, fronts, rng)


def _tied_grid(rng, n):
    """Points on a coarse grid, some repeated, with values from a few
    integers that the grid point sets, so that distances, gaps and sums tie
    and repeated points make 0/0 pairs; one row off the grid holds the
    minimum alone, so that the shifted Q is finite."""
    cells = rng.integers(0, 4, size=(n, 2))
    pts, vals = cells / 3.0, ((cells[:, 0] + 2 * cells[:, 1]) % 4).astype(float)
    pts[0], vals[0] = 2.0, -1.0
    return IndexedSample(pts, vals)


def _duplicates(rng, n, conflict):
    """A few points, each repeated, with the value of a function of the
    point, so that repeated points make 0/0 pairs; with ``conflict`` the
    last row repeats the first with another value, an x/0 pair, so that K
    is +inf."""
    pts = rng.uniform(size=(n // 3, 2))[rng.integers(0, n // 3, size=n)]
    pts[-1] = pts[0]
    vals = pts @ np.array([2.0, -1.0]) + np.sin(7.0 * pts[:, 0])
    vals[-1] += 0.5 * conflict
    return IndexedSample(pts, vals)


def _overflowing(rng, n):
    """Points near the unit square and a few at +-1e308 in one coordinate,
    whose base distances to the rest overflow to +inf; their values are
    the smallest, so that the pairs with an infinite distance have the
    smallest shifted sums, and dominate pairs at finite distances for Q."""
    pts = rng.uniform(size=(n, 2))
    far = rng.integers(0, n, size=max(1, n // 8))
    pts[far, 0] = rng.choice([-1e308, 1e308], size=len(far))
    vals = rng.uniform(1.0, 2.0, size=n)
    vals[far] = rng.uniform(0.0, 0.5, size=len(far))
    return IndexedSample(pts, vals)


CASES = ["random", "tied-grid", "duplicates", "conflicting-duplicates", "overflowing"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("base", ["euclidean", "manhattan", "chebyshev"])
def test_kq_value_over_the_fronts_is_k_times_the_shifted_q(case, base):
    # With overflowing distances, an atom that is +inf there makes a NaN
    # composed distance where its coefficient is 0, which ``ratio_max``
    # skips; the atoms are those that stay numbers at +inf, since the
    # rational ones make NaN there at every coefficient.
    rng = np.random.default_rng(CASES.index(case))
    bases = ((("identity", "arctan"), ("sqrt", "sqrt_arctan", "log1p")) if case == "overflowing"
             else (LINEAR_BASIS, SQRT_BASIS))
    for trial in range(4):
        n = int(rng.integers(2, 60))
        s = {
            "random": lambda: IndexedSample(rng.uniform(size=(n, 3)), rng.normal(size=n)),
            "tied-grid": lambda: _tied_grid(rng, n),
            "duplicates": lambda: _duplicates(rng, max(n, 6), False),
            "conflicting-duplicates": lambda: _duplicates(rng, max(n, 6), True),
            "overflowing": lambda: _overflowing(rng, max(n, 3)),
        }[case]()
        for atoms in bases:
            with np.errstate(over="ignore", invalid="ignore"):
                fronts = pair_front(s, base, atoms)
                _check_pair_fronts(s, base, atoms, fronts)
                values = _check_kq_value(s, base, atoms, fronts, rng)
            if case != "overflowing":
                finite = case != "conflicting-duplicates"
                assert all(math.isfinite(v) == finite for v in values), values


def test_pair_front_takes_a_shifted_sum_beyond_the_float_range_as_inf_without_a_warning():
    # Shifted to minimum 0, the index is 0, 1e308, 1e308; rows 1 and 2, the
    # farthest apart, sum to +inf, so that pair stays on the Q front.
    s = IndexedSample([[0.0], [-1.0], [1.0]], [-1e308, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fronts = pair_front(s, "euclidean", LINEAR_BASIS)
        _check_kq_value(s, "euclidean", LINEAR_BASIS, fronts, np.random.default_rng(7))
    _, gaps, _, sums = fronts
    assert gaps.tolist() == [1e308]
    assert sorted(sums.tolist()) == [1e308, math.inf]
    with np.errstate(over="ignore"):  # the reference's own sum overflows
        _check_pair_fronts(s, "euclidean", LINEAR_BASIS, fronts)


def _wave(x, out=None):
    """1 - cos(5x): >= 0 and 0 at 0, but not monotone on the distances of
    the unit square, so a pair farther apart can have the smaller value."""
    y = np.multiply(5.0, x, out=out)
    return np.subtract(1.0, np.cos(y, out=y), out=y)


def test_pair_front_checks_the_computed_values_of_an_atom_that_is_not_monotone(monkeypatch):
    # Sorted by base distance, the candidate dominator of a pair often has
    # the larger wave value; a pass that dropped it all the same would lose
    # the pairs that set K or Q when the wave weighs most.
    monkeypatch.setitem(ATOM_FUNCS, "arctan", _wave)
    rng = np.random.default_rng(61)
    atoms = ("arctan", "identity")
    for tile in (None, 2):
        if tile is not None:
            monkeypatch.setattr(metrics, "TILE_BYTES", 8 * 30 * (len(atoms) + 8) * tile)
        for _ in range(6):
            s = IndexedSample(rng.uniform(size=(30, 2)), rng.uniform(size=30))
            fronts = pair_front(s, "euclidean", atoms)
            _check_pair_fronts(s, "euclidean", atoms, fronts)
            _check_kq_value(s, "euclidean", atoms, fronts, rng, draws=12)


def _condensed_coherence(s, cm):
    """K as ``ratio_max`` gives it on the condensed pairs i < j."""
    return _table_coherence(phi_eval(cm.phi, pairwise_base(cm.base, s.points, s.points)), s.values)


# ``rows`` rows of pairs i < j, the rows 0 to n - 2 of a sample of n = rows
# + 1: a tile of one row, then tile - 1, tile, tile + 1 and 3 * tile rows
# against a tile of four.
BLOCK_CASES = [(12, 1), (3, 4), (4, 4), (5, 4), (12, 4)]


@pytest.mark.parametrize("rows, tile", BLOCK_CASES)
@pytest.mark.parametrize("base", ["euclidean", "manhattan", "chebyshev"])
def test_coherence_tiles_on_a_table_slice_match_condensed_ratio_max(rows, tile, base, monkeypatch):
    n = rows + 1
    rng = np.random.default_rng(7 * n + tile)
    m = 3
    cm = CompositionMetric(base, random_combination(rng))
    conflicting = rng.uniform(size=(n, m))
    conflicting[-1] = conflicting[0]
    cases = [
        (IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 10.0, n)), None),
        (IndexedSample(np.ones((n, m)), np.full(n, 2.0)), 0.0),  # all-equal duplicates
        (IndexedSample(conflicting, np.arange(n, dtype=float)), math.inf),
    ]
    references = [_condensed_coherence(s, cm) for s, _ in cases]
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * 4 * tile)  # ``tile`` rows a block
    sizes = record_blocks(monkeypatch, constants)
    for (s, expected), reference in zip(cases, references):
        sizes.clear()
        K = coherence_constant(s, cm)  # from the points, block by block
        assert K == reference
        assert sizes == tiles(rows, tile)
        # The sample's rows alternate with other rows of a pairwise square,
        # whose slice at the sample's rows gives the same K.
        features = np.empty((2 * n, m))
        features[0::2], features[1::2] = rng.uniform(size=(n, m)), s.points
        sample_rows = np.arange(1, 2 * n, 2)
        table = cm.pairwise(features, features)
        assert _table_coherence(table[np.ix_(sample_rows, sample_rows)], s.values) == reference
        if expected is not None:
            assert K == expected


def _condensed_report(s, cm):
    """``constants_report`` from all the condensed pairs at once: each
    constant's first pair, for +inf the first at a zero denominator if one
    is, with the report's notes."""
    i, j, d_base, gaps, denom, denom_shifted = condensed_pairs(s, cm.base)
    d_phi = phi_eval(cm.phi, d_base)
    notes = []

    def constant(num, den, what, zero_den):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = num / den
        value = float(np.fmax.reduce(ratios, initial=0.0))
        at = ratios == value
        if value == math.inf and np.any(at & (den == 0.0)):
            at &= den == 0.0
        if not at.any():
            return value, None
        k = int(np.flatnonzero(at)[0])
        pair = (int(i[k]), int(j[k]))
        if value == math.inf:
            if den[k] != 0.0:
                why = "have a ratio beyond the float range"
            elif den is d_phi and not np.array_equal(s.points[pair[0]], s.points[pair[1]]):
                why = "are distinct but their composed distance rounds to 0"
            else:
                why = zero_den
            notes.append(f"{what}: rows {pair} {why}")
        return value, pair

    K, k_pair = constant(gaps, d_phi, "not coherent", "coincide but carry distinct values")
    Q, q_pair = constant(d_phi, denom, "not normalizable", "are distinct with |I|+|I| = 0")
    Q_shifted, _ = constant(d_phi, denom_shifted, "shifted index not normalizable",
                            "are distinct and both attain the minimum")
    v = s.values
    C_shifted = float(v.max() - v.min())
    return ConstantsReport(K, Q, float(np.abs(v).max()), Q_shifted, C_shifted,
                           error_bound(K, Q_shifted, C_shifted), k_pair, q_pair, tuple(notes))


def _edge_samples(n, rng):
    """(name, sample, modulus) of n rows, n >= 3, whose pairs decide the
    report at the edges of its rules, the deciding pairs in the first and
    the last rows, and tie-heavy samples on a coarse grid."""
    line = np.arange(n, dtype=float)
    identity = identity_phi()
    # K = 2 at every pair from row 1 on; row 0's pairs come close.
    ties = line * 2.0
    ties[0] = 0.5
    # K: (0, 1) overflows and the last two rows coincide with distinct values.
    k_x, k_v = line.copy(), line.copy()
    k_x[1], k_v[1] = 1e-150, 1e160
    k_x[-1], k_v[-1] = k_x[-2], k_v[-2] + 1.0
    # Q: (0, 1) overflows over subnormal values; the last two rows are 0.
    q_v = line + 1.0
    q_v[:2] = 1e-320
    q_v[-2:] = 0.0
    # A 1e-320 modulus: ratios overflow, and the last two rows are so close
    # that their composed distance rounds to 0.
    tiny_x = line.copy()
    tiny_x[-1] = tiny_x[-2] + 1e-5
    samples = [
        ("ties", line_sample(line, ties), identity),
        ("k-overflow-then-zero", line_sample(k_x, k_v), identity),
        ("q-overflow-then-zero", line_sample(line, q_v), identity),
        ("constant-index", IndexedSample(rng.uniform(size=(n, 2)), np.full(n, 3.0)), identity),
        # Every K pair is 0/0, every Q ratio 0/6, as on the diagonal.
        ("one-point", IndexedSample(np.ones((n, 2)), np.full(n, 3.0)), identity),
        ("near-1e307", IndexedSample(rng.uniform(size=(n, 3)), rng.uniform(-0.8, 0.8, n) * 1e307),
         random_combination(rng)),
        ("1e-320-modulus", line_sample(tiny_x, rng.uniform(0.0, 5.0, n)),
         PhiCombination(("identity",), (1e-320,))),
    ]
    for k in range(3):  # duplicates, 0/0 and x/0 pairs and tied ratios
        grid = IndexedSample(rng.integers(0, 3, size=(n, 2)) / 2.0, rng.integers(0, 4, n).astype(float))
        samples.append((f"grid-{k}", grid, random_combination(rng) if k else identity))
    return samples


@pytest.mark.parametrize("rows, tile", BLOCK_CASES)
@pytest.mark.parametrize("base", ["euclidean", "manhattan"])
def test_report_in_row_blocks_matches_the_condensed_pairs(rows, tile, base, monkeypatch):
    n = rows + 1
    rng = np.random.default_rng(11 * n + tile)
    samples = _edge_samples(n, rng)
    monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * 12 * tile)  # ``tile`` rows a block
    sizes = record_blocks(monkeypatch, constants)
    for name, s, phi in samples:
        cm = CompositionMetric(base, phi)
        sizes.clear()
        assert repr(constants_report(s, cm)) == repr(_condensed_report(s, cm)), name
        assert sizes == tiles(rows, tile), name


def test_the_report_edge_samples_reach_every_rule():
    # The edge cases above decide by the rules they are named after.
    reports = {name: constants_report(s, CompositionMetric("euclidean", phi))
               for name, s, phi in _edge_samples(12, np.random.default_rng(5))}
    assert (reports["ties"].K, reports["ties"].k_pair) == (2.0, (1, 2))
    assert reports["k-overflow-then-zero"].k_pair == (10, 11)
    assert reports["k-overflow-then-zero"].notes[0].endswith("coincide but carry distinct values")
    assert reports["q-overflow-then-zero"].q_pair == (10, 11)
    assert reports["q-overflow-then-zero"].notes[0].endswith("are distinct with |I|+|I| = 0")
    assert (reports["constant-index"].K, reports["constant-index"].k_pair) == (0.0, (0, 1))
    assert reports["constant-index"].Q_shifted == math.inf
    assert (reports["one-point"].k_pair, reports["one-point"].q_pair) == (None, (0, 1))
    assert math.isfinite(reports["near-1e307"].Q) and reports["near-1e307"].C > 1e306
    tiny = reports["1e-320-modulus"]
    assert tiny.k_pair == (10, 11) and "rounds to 0" in tiny.notes[0]


def test_a_sum_of_sizes_beyond_the_float_range_reads_as_inf_without_a_warning():
    # |I_0| + |I_1| = 1e308 + 9e307 overflows to +inf, so that pair's Q
    # ratio is 0; the values and their range are finite.
    s = IndexedSample([[0.0], [1.0], [3.0]], [1e308, 9e307, 5e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = constants_report(s, IDENTITY)
    assert (report.Q, report.q_pair) == (3.0 / (1e308 + 5e307), (0, 2))
    assert report.notes == ()


def test_constants_report_holds_a_tile_of_pairs_at_a_time():
    # 3,000 rows: all 4,498,500 pairs at once take 34 MiB per float array.
    rng = np.random.default_rng(97)
    s = IndexedSample(rng.uniform(size=(3000, 5)), rng.uniform(0.0, 5.0, 3000))
    tracemalloc.start()
    try:
        constants_report(s, IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * metrics.TILE_BYTES


def test_coherence_constant_frees_each_block_before_the_next():
    # 2,000 rows x 10 features.  A block is a quarter tile of base
    # distances, besides pairwise_base's tile of partial sums, which then
    # take the block's composed distances and gaps (then ratios): 1.38
    # tiles.  A block's ratios kept alive while the next block's base
    # distances are made read 1.60.
    rng = np.random.default_rng(101)
    features = rng.uniform(size=(2000, 10))
    s = IndexedSample(features, features @ rng.uniform(size=10))
    tracemalloc.start()
    try:
        K = coherence_constant(s, IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * metrics.TILE_BYTES
    assert K == constants.largest_ratios(s, IDENTITY).ratios[0]  # the largest listed ratio


def test_the_kq_solve_holds_a_tile_of_pairs_and_the_fronts():
    # 1,500 rows, 1,124,250 pairs.  The fronts are built a block of pairs at
    # a time: the block's base distances, gaps, sums and atom values, in
    # pair order and in base-distance order, take about one tile, and the
    # pre-pass's order, running maxima and candidates half a tile more.
    # The solve reads only the fronts.  Any array over every pair, the
    # terms of each pair (48 B) or the whole base square (16 B), would
    # break the ceiling many times over.
    rng = np.random.default_rng(43)
    n = 1500
    s = katetov_shift(IndexedSample(rng.uniform(size=(n, 3)), rng.uniform(1.0, 3.0, n)))
    front_bytes = sum(a.nbytes for a in pair_front(s, "euclidean", LINEAR_BASIS))
    tracemalloc.start()
    try:
        minimize_kq(s, "euclidean", LINEAR_BASIS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * metrics.TILE_BYTES + front_bytes


def test_constants_and_kq_search_hold_no_memory_after_they_return():
    rng = np.random.default_rng(43)
    s = katetov_shift(IndexedSample(rng.uniform(size=(1500, 3)), rng.uniform(1.0, 3.0, 1500)))
    tracemalloc.start()
    try:
        constants_report(s, IDENTITY)
        minimize_kq(s, "euclidean", LINEAR_BASIS)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
