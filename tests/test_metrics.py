import math
import tracemalloc

import numpy as np
import pytest

from lipext import constants, metrics
from lipext.constants import IndexedSample, pair_table
from lipext.metrics import (
    BASE_METRICS,
    CompositionMetric,
    pairwise_base,
)
from lipext.phi import ATOM_NAMES, PhiCombination, identity_phi, phi_eval

from helpers import distance, one_shot_pairwise, random_combination, record_blocks, scaled, tiles
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


def _composed_tile_bytes(n: int, tile: int) -> int:
    """The ``TILE_BYTES`` that gives ``CompositionMetric`` blocks of ``tile``
    rows against n columns: two (rows, n) scratch arrays share the budget."""
    return 2 * 8 * n * tile


def _table_tile_bytes(n: int, tile: int) -> int:
    """The ``TILE_BYTES`` that gives ``pair_table`` blocks of ``tile`` rows
    of n: its pass budgets five (rows, n) arrays a row block."""
    return 8 * n * 5 * tile


def _table(X, cm):
    """The distance table that ``pair_table`` builds among the rows of X."""
    return pair_table(IndexedSample(X, np.zeros(len(X))), cm)[0]


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    monkeypatch.setattr(metrics, "TILE_BYTES", _composed_tile_bytes(n, tile))
    for A, expected in zip(queries, one_shot):
        assert np.array_equal(cm.pairwise(A, B), expected)
    assert cm.pairwise(np.empty((0, m)), B).shape == (0, n)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cm.pairwise(np.empty((0, m + 1)), B)


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_the_pair_table_matches_pairwise_of_the_points_with_themselves(kind, monkeypatch):
    # Each pair is computed once and mirrored, and the last row, which
    # starts no pair, is its column mirrored; the mirrors must keep the bits.
    rng = np.random.default_rng(6)
    cm = CompositionMetric(kind, PhiCombination(ATOM_NAMES, rng.uniform(0.1, 2.0, len(ATOM_NAMES))))
    tile = 4
    for m in (2, 9, 130):
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        # Rows 0 to n - 2 start the pairs: one row, one block, around one
        # tile and past three.
        for n in (2, tile, tile + 1, tile + 2, 3 * tile + 2):
            X = rng.uniform(-5.0, 5.0, size=(n, m)) * scales
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "TILE_BYTES", _table_tile_bytes(n, tile))
                sizes = record_blocks(patch, constants)
                D = _table(X, cm)
            assert sizes == tiles(n - 1, tile)
            assert _same_bits(D, cm.pairwise(X, X)), (m, n)
            assert np.array_equal(D, D.T)


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_pairwise_base_takes_its_partial_sums_from_a_given_scratch(kind, monkeypatch):
    # One scratch of base_scratch_size serves every call on as many rows or
    # fewer, against as many columns or fewer, as the narrowing blocks of
    # pair_blocks make them (one too small fails to reshape), with the bits
    # of a call that allocates its own.
    rng = np.random.default_rng(8)
    monkeypatch.setattr(metrics, "TILE_BYTES", 2**14)  # several base blocks a call
    q, n = 37, 23
    for m in (3, 9, 130):
        A, B = rng.uniform(size=(q, m)), rng.uniform(size=(n, m))
        scratch = np.full(metrics.base_scratch_size(kind, m, q, n), np.nan)
        for rows in (1, 11, q):
            for cols in (1, 8, n):
                expected = pairwise_base(kind, A[:rows], B[:cols])
                got = pairwise_base(kind, A[:rows], B[:cols], scratch=scratch)
                assert _same_bits(got, expected), (m, rows, cols)
        assert not np.isnan(scratch).all()


def _owner(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("kind", BASE_METRICS)
def test_composed_blocks_are_contiguous_views_of_per_call_scratch(kind, monkeypatch):
    # Every block's distances are cut from one array allocated for the call,
    # contiguous (a strided view slows the readers), and its work from
    # another that holds at least as many floats; a reader that overwrites
    # both leaves the next blocks the bits of pairwise.
    rng = np.random.default_rng(9)
    cm = CompositionMetric(kind, random_combination(rng))
    n, m, tile = 16, 9, 5
    A, B = rng.uniform(size=(3 * tile + 2, m)), rng.uniform(size=(n, m))
    expected = cm.pairwise(A, B)
    # Base distances, atom values and d: three (rows, n) arrays a block.
    monkeypatch.setattr(metrics, "TILE_BYTES", 3 * 8 * n * tile)
    sizes, owners = [], set()
    for rows, d, work in cm.blocks(A, B):
        assert d.flags.c_contiguous and work.size >= d.size
        assert _same_bits(d, expected[rows])
        sizes.append(len(d))
        owners.update({id(_owner(d)), id(_owner(work))})
        d.fill(np.nan)
        work.fill(np.nan)
    assert sizes == tiles(len(A), tile)
    assert len(owners) == 2


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


def _traced_call_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_peak(kind, A, B):
    return _traced_call_peak(pairwise_base, kind, A, B)


@pytest.mark.parametrize("kind", BASE_METRICS)
@pytest.mark.parametrize("m", [3, 10, 200])
def test_composed_blocks_are_whole_base_blocks(kind, m, monkeypatch):
    # A composed block that ends in a short pairwise_base block pays a full
    # round of ufunc calls for a few rows.  The blocks are recorded as
    # ``pairwise`` hands them to ``pairwise_base``, which computes nothing.
    n, q = 2000, 3000
    sizes = []

    def recording(kind, A, B, out, scratch):
        sizes.append(len(A))
        out.fill(0.0)
        return out

    monkeypatch.setattr(metrics, "pairwise_base", recording)
    CompositionMetric(kind).pairwise(np.zeros((q, m)), np.zeros((n, m)))
    base = metrics._rows_per_tile(8 * n * metrics._scratch_count(kind, m))
    assert sum(sizes) == q
    assert 2 * 8 * n * sizes[0] <= metrics.TILE_BYTES
    assert all(size % base == 0 for size in sizes[:-1]) or sizes[0] < base


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
    # Beyond the result and B transposed, one tile of scratch; the 256 KiB
    # covers the call's small objects and numpy's, which measured 60-64 KiB
    # with numpy 2.4.
    assert peak < 8 * 2000 * 500 + B.nbytes + metrics.TILE_BYTES + 2**18


# Signed zeros, subnormals, and magnitudes near 1e155, whose squares and sums
# of squares overflow to inf, where the two rational atoms give nan.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1e155, -1e155, 1.3e154, -9e153, 1.0, -0.5)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 129])
@pytest.mark.parametrize("kind", BASE_METRICS)
def test_edge_values_keep_the_bits_of_the_one_shot_reduction(kind, m, monkeypatch):
    rng = np.random.default_rng(m)
    n, tile = 6, 4
    phi = PhiCombination(ATOM_NAMES, tuple(rng.uniform(0.1, 2.0, len(ATOM_NAMES))))
    cm = CompositionMetric(kind, phi)

    def points(rows, first):
        P = rng.choice(EDGE_VALUES, size=(rows, m))
        P[0] = first
        return P

    B = points(n, 1e155)  # 2e155 from every query's first row in every column
    counts = (1, tile - 1, tile, tile + 1, 3 * tile)
    with np.errstate(over="ignore", invalid="ignore"):
        monkeypatch.setattr(metrics, "TILE_BYTES", 8 * n * metrics._scratch_count(kind, m) * tile)
        for q in counts:
            A = points(q, -1e155)
            assert _same_bits(pairwise_base(kind, A, B), one_shot_pairwise(kind, A, B)), q
        monkeypatch.setattr(metrics, "TILE_BYTES", _composed_tile_bytes(n, tile))
        for q in counts:
            A = points(q, -1e155)
            expected = phi_eval(phi, one_shot_pairwise(kind, A, B))
            assert _same_bits(cm.pairwise(A, B), expected), q
            if kind == "euclidean":
                assert np.isinf(one_shot_pairwise(kind, A, B)[0, 0]) and np.isnan(expected[0, 0])
        sizes = record_blocks(monkeypatch, constants)
        for rows in (2, tile, tile + 1, tile + 2, 3 * tile + 2):  # a table has two rows or more
            X = points(rows, -1e155)
            monkeypatch.setattr(metrics, "TILE_BYTES", _table_tile_bytes(rows, tile))
            sizes.clear()
            assert _same_bits(_table(X, cm), phi_eval(phi, one_shot_pairwise(kind, X, X))), rows
            assert sizes == tiles(rows - 1, tile)  # rows 0 to rows - 2 start the pairs


@pytest.mark.parametrize("atoms", [("identity",), ATOM_NAMES])
@pytest.mark.parametrize("kind", BASE_METRICS)
def test_composed_peak_memory_above_the_result(kind, atoms):
    # One per-call scratch of base distances and atom values (one tile in
    # all) and pairwise_base's own tile of partial sums; after those are
    # freed the modulus adds at most sqrt_rational's 1 + r (half a tile).
    # A table's pass holds a fifth of a tile each of base distances, of atom
    # values, then ratios, and of the partition's indices, besides
    # pairwise_base's tile.
    rng = np.random.default_rng(7)
    cm = CompositionMetric(kind, PhiCombination(atoms, tuple(rng.uniform(0.1, 2.0, len(atoms)))))
    A, B = rng.uniform(size=(1000, 10)), rng.uniform(size=(800, 10))
    slack = 2 * metrics.TILE_BYTES + B.nbytes + 2**17
    assert _traced_call_peak(cm.pairwise, A, B) < 8 * 1000 * 800 + slack
    sample = IndexedSample(B, rng.uniform(size=800))
    assert _traced_call_peak(pair_table, sample, cm) < 8 * 800 * 800 + slack
