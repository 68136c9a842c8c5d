"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line (visible with
``pytest -s`` or in captured output).  File-level determinism is asserted
byte-for-byte, for every output file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lipext.cli import main
from lipext.constants import (
    IndexedSample,
    coherence_constant,
    constants_report,
    index_bound,
    katetov_shift,
)
from lipext.dataio import read_dataset, table1_path
from lipext.extension import (
    fit_extension,
    mcshane_batch,
    optimal_alpha,
    predict,
    whitney_batch,
)
from lipext.metrics import CompositionMetric
from lipext.phi import ATOM_NAMES, PhiCombination, identity_phi, phi_eval
from lipext.pipeline import (
    cross_validate,
    fit_for_extend,
    minmax_scale,
    objective_test_rmse,
    rank,
)
from lipext.swarm import PsoConfig, objective_kq, pso_minimize

import oracles
from helpers import random_combination, scaled


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def quiet_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"command failed: {argv}"
    return buf.getvalue()


def load_table1(tmp_path: Path) -> str:
    return str(table1_path())


# ---------------------------------------------------------------------------


@criterion("metric-axioms")
def test_metric_axiom_suite():
    # 8 atoms plus 20 random combinations, 10^4 seeded triples in [0,1]^5
    # with base distances from the plain-Python oracle: symmetry exact,
    # positivity, triangle inequality within 1e-9, in < 10 s.
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    a, b, c = np.random.default_rng(7).uniform(size=(3, 10_000, 5)).tolist()
    phis = [PhiCombination((name,), (1.0,)) for name in ATOM_NAMES]
    phis += [random_combination(rng) for _ in range(20)]
    dist = functools.partial(oracles.base_dist, "euclidean")
    base_ab = np.array(list(map(dist, a, b)))
    base_bc = np.array(list(map(dist, b, c)))
    base_ac = np.array(list(map(dist, a, c)))
    base_ba = np.array(list(map(dist, b, a)))
    for phi in phis:
        ab = phi_eval(phi, base_ab)
        ba = phi_eval(phi, base_ba)
        bc = phi_eval(phi, base_bc)
        ac = phi_eval(phi, base_ac)
        assert np.array_equal(ab, ba), "symmetry must be exact"
        assert np.all(ab[base_ab > 0.0] > 0.0), "distinct points must be separated"
        assert np.all(ac <= ab + bc + 1e-9), "triangle inequality violated"
    assert time.perf_counter() - started < 10.0


@criterion("interpolation-and-sandwich")
def test_interpolation_and_sandwich():
    # 200 random datasets (n <= 50, m <= 5): training values reproduced
    # within 1e-9 and mcshane <= blend <= whitney at 1000 query points each.
    rng = np.random.default_rng(11)
    kinds = ("euclidean", "manhattan", "chebyshev")
    for trial in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 6))
        s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 100.0, n))
        cm = CompositionMetric(kinds[trial % 3], random_combination(rng))
        model = fit_extension(s, cm, "whitney")
        assert np.max(np.abs(whitney_batch(model, s.points) - s.values)) <= 1e-9
        assert np.max(np.abs(mcshane_batch(model, s.points) - s.values)) <= 1e-9
        X = rng.uniform(-0.25, 1.25, size=(1000, m))
        alpha = float(rng.uniform())
        w = whitney_batch(model, X)
        mc = mcshane_batch(model, X)
        bl = predict(replace(model, method="blend", alpha=alpha), X)
        assert np.all(mc - 1e-9 <= bl) and np.all(bl <= w + 1e-9)


@criterion("alpha-optimality")
def test_alpha_optimality():
    # 200 random (truth, whitney, mcshane) triples: the clamped closed-form
    # weight beats every grid point alpha = k/1000 within 1e-9.
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        truth = rng.uniform(-10.0, 10.0, n)
        i_w = rng.uniform(-10.0, 10.0, n)
        i_m = rng.uniform(-10.0, 10.0, n)
        a0 = optimal_alpha(truth, i_w, i_m)
        resid = (truth - i_w)[None, :] + grid[:, None] * (i_w - i_m)[None, :]
        sse = np.sum(resid * resid, axis=1)
        best = float(np.sum((truth - ((1 - a0) * i_w + a0 * i_m)) ** 2))
        assert best <= float(np.min(sse)) + 1e-9


@criterion("error-bound")
def test_error_bound_guarantee():
    # 200 random zero-min samples with finite K, Q: both the anchor-based
    # and the whitney extension stay within (K*Q - 1)*C + 1e-9 on the
    # indexed rows themselves.
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 6))
        s = katetov_shift(
            IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 50.0, n))
        )
        cm = CompositionMetric("euclidean", random_combination(rng))
        K = coherence_constant(s, cm)
        Q = constants_report(s, cm).Q
        if not (math.isfinite(K) and math.isfinite(Q)):
            continue
        checked += 1
        bound = (K * Q - 1.0) * index_bound(s)
        anchor_model = fit_extension(s, cm, "standard")
        anchor_err = np.max(np.abs(predict(anchor_model, s.points) - s.values))
        assert anchor_err <= bound + 1e-9
        w_model = fit_extension(s, cm, "whitney")
        w_err = np.max(np.abs(predict(w_model, s.points) - s.values))
        assert w_err <= bound + 1e-9


@criterion("exact-recovery")
def test_exact_recovery_two_points():
    cm = CompositionMetric("euclidean", identity_phi())
    s = IndexedSample(np.array([[0.0], [1.0]]), [0.0, 2.0])
    report = constants_report(s, cm)
    assert abs(report.K - 2.0) <= 1e-12
    assert abs(report.Q - 0.5) <= 1e-12
    assert abs(report.K * report.Q - 1.0) <= 1e-12
    assert abs(report.bound) <= 1e-12
    model = fit_extension(s, cm, "standard")
    errors = np.abs(predict(model, s.points) - s.values)
    assert np.max(errors) <= 1e-12


@criterion("scale-invariance")
def test_scale_invariance():
    ds = minmax_scale(read_dataset(table1_path()))
    phi = PhiCombination(("identity", "log1p", "arctan"), (1.0, 0.7, 0.3))

    def rank_and_rmse(p):
        cm = CompositionMetric("euclidean", p)
        report = cross_validate(ds, "blend", cm, repeats=5, seed=13)
        indexed = ds.indexed_rows()
        alpha = fit_for_extend(indexed, cm, "blend", None, 0.7, seed=13).alpha
        model = fit_extension(indexed.as_sample(), cm, "blend", alpha=alpha)
        preds = predict(model, ds.unindexed_rows().features)
        return report.per_repeat_rmse, rank(ds, preds)

    base_rmse, base_rank = rank_and_rmse(phi)
    kq = objective_kq(ds.indexed_rows().as_sample(), "euclidean", phi.atoms)
    lam = np.asarray(phi.coefficients)
    base_kq = kq(lam)
    for c in (0.1, 3.0, 42.0):
        c_rmse, c_rank = rank_and_rmse(scaled(phi, c))
        for u, v in zip(base_rmse, c_rmse):
            assert u == pytest.approx(v, rel=1e-9)
        assert [r[1] for r in c_rank] == [r[1] for r in base_rank]
        for (_, _, u), (_, _, v) in zip(base_rank, c_rank):
            assert u == pytest.approx(v, rel=1e-9)
        assert kq(c * lam) == pytest.approx(base_kq, rel=1e-9)


@criterion("optimizer-guarantees")
def test_optimizer_guarantees(tmp_path):
    # Neither search reports worse than the identity coefficients.  Both
    # write unit-sum coefficients and report the objective at exactly those
    # coefficients; the test-rmse swarm's history is monotone; reruns of
    # both are bitwise identical; and the default budget drives a 3-d sphere
    # below 1e-4.
    rng = np.random.default_rng(41)
    datasets = [str(table1_path())]
    for i in range(3):
        n = int(rng.integers(4, 20))
        rows = ["id,x,y,index"]
        for j in range(n):
            x, y = rng.uniform(0.0, 100.0, 2)
            rows.append(f"p{j},{x},{y},{rng.uniform(0.0, 100.0)}")
        rows.append(f"q0,{rng.uniform(0, 100)},{rng.uniform(0, 100)},")
        path = tmp_path / f"ds{i}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        datasets.append(str(path))

    pso = tmp_path / "pso.json"
    pso.write_text(json.dumps({"pso": {"swarm_size": 8, "iterations": 15}}), encoding="utf-8")
    for data in datasets:
        out1 = quiet_cli(["optimize", "--data", data, "--seed", "5"])
        payload = json.loads(out1)
        assert payload["best_objective"] <= payload["identity_objective"]
        phi = payload["best_phi"]
        assert sum(phi["coefficients"]) == pytest.approx(1.0, abs=1e-12)
        indexed = minmax_scale(read_dataset(data)).indexed_rows()
        kq = objective_kq(indexed.as_sample(), "euclidean", tuple(phi["atoms"]))
        assert payload["best_objective"] == kq(np.array(phi["coefficients"]))
        assert out1 == quiet_cli(["optimize", "--data", data, "--seed", "5"])

        rmse_args = ["optimize", "--data", data, "--seed", "5", "--objective",
                     "test-rmse", "--config", str(pso)]
        out1 = quiet_cli(rmse_args)
        payload = json.loads(out1)
        assert payload["best_objective"] <= payload["identity_objective"]
        phi = payload["best_phi"]
        assert sum(phi["coefficients"]) == pytest.approx(1.0, abs=1e-12)
        rmse = objective_test_rmse(indexed, "euclidean", tuple(phi["atoms"]), seed=5)
        assert payload["best_objective"] == rmse(np.array(phi["coefficients"]))
        history = [
            math.inf if h == "inf" else h for h in payload["swarm"]["history"]
        ]
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert out1 == quiet_cli(rmse_args)

    sphere = lambda lam: float(np.sum((lam - 1.0) ** 2))
    result = pso_minimize(sphere, dim=3, cfg=PsoConfig(swarm_size=40, iterations=200, seed=3))
    assert result.best_objective <= 1e-4


@criterion("oracle-equivalence")
def test_bruteforce_oracle_equivalence():
    # n <= 12: constants, all four extension methods and the blend weight
    # agree with plain-Python double-loop/grid oracles within 1e-12.
    rng = np.random.default_rng(53)
    kinds = ("euclidean", "manhattan", "chebyshev")
    for trial in range(40):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 5))
        s = IndexedSample(rng.uniform(size=(n, m)), rng.uniform(0.0, 20.0, n))
        phi = random_combination(rng)
        kind = kinds[trial % 3]
        cm = CompositionMetric(kind, phi)

        K_o, Q_o, C_o = oracles.constants(
            s.points.tolist(), s.values.tolist(), kind, phi.atoms, phi.coefficients
        )
        close = functools.partial(pytest.approx, rel=1e-12, abs=1e-12)
        assert coherence_constant(s, cm) == close(K_o)
        assert constants_report(s, cm).Q == close(Q_o)
        assert index_bound(s) == close(C_o)

        model = fit_extension(s, cm, "whitney")
        std_model = fit_extension(s, cm, "standard")
        pts, vals = s.points.tolist(), s.values.tolist()
        alpha = float(rng.uniform())
        for _ in range(4):
            x = rng.uniform(-0.2, 1.2, size=m)
            args = (pts, vals, kind, phi.atoms, phi.coefficients, model.K)
            w_o = oracles.whitney(*args, x.tolist())
            m_o = oracles.mcshane(*args, x.tolist())
            assert whitney_batch(model, x[None, :])[0] == close(w_o)
            assert mcshane_batch(model, x[None, :])[0] == close(m_o)
            blend_model = replace(model, method="blend", alpha=alpha)
            assert predict(blend_model, x[None, :])[0] == close(
                (1.0 - alpha) * w_o + alpha * m_o
            )
            assert predict(std_model, x[None, :])[0] == close(
                oracles.standard(*args, x.tolist())
            )

        truth = rng.uniform(0.0, 20.0, n)
        i_w = rng.uniform(0.0, 20.0, n)
        i_m = rng.uniform(0.0, 20.0, n)
        assert optimal_alpha(truth, i_w, i_m) == close(
            oracles.alpha_star(truth.tolist(), i_w.tolist(), i_m.tolist())
        )


@criterion("desk-scale-experiment")
def test_desk_scale_experiment(tmp_path):
    # The bundled six-row sample substitutes for the full city dataset:
    # 20-repeat cross-validation completes in < 5 s with internally
    # consistent statistics, and ranking the two unindexed cities is
    # deterministic with predictions inside [0, 100].
    data = str(table1_path())
    out_dir = tmp_path / "cv"
    started = time.perf_counter()
    out = quiet_cli(
        ["cv", "--data", data, "--out", str(out_dir), "--repeats", "20", "--seed", "0"]
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    payload = json.loads(out)
    arr = np.asarray(payload["per_repeat_rmse"])
    assert len(arr) == 20
    assert abs(payload["mean"] - float(np.mean(arr))) <= 1e-12
    assert abs(payload["median"] - float(np.median(arr))) <= 1e-12
    assert abs(payload["std_dev"] - float(np.std(arr))) <= 1e-12

    ranks = []
    for sub in ("r1", "r2"):
        rank_dir = tmp_path / sub
        quiet_cli(["rank", "--data", data, "--out", str(rank_dir), "--seed", "0"])
        ranks.append((rank_dir / "ranking.csv").read_text())
    assert ranks[0] == ranks[1]
    entries = [line.split(",") for line in ranks[0].strip().splitlines()[1:]]
    assert sorted(e[1] for e in entries) == ["Montreal", "Toronto"]
    assert all(0.0 <= float(e[2]) <= 100.0 for e in entries)


@criterion("determinism")
def test_command_determinism(tmp_path):
    # Rerunning every command with the same seed/config/data reproduces the
    # output files byte-for-byte.
    data = str(table1_path())
    runs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        quiet_cli(["constants", "--data", data, "--out", str(base / "constants")])
        quiet_cli(["extend", "--data", data, "--seed", "4", "--out", str(base / "extend")])
        quiet_cli([
            "cv", "--data", data, "--seed", "4", "--repeats", "10",
            "--out", str(base / "cv"),
        ])
        quiet_cli(["optimize", "--data", data, "--seed", "4", "--out", str(base / "opt")])
        quiet_cli(["rank", "--data", data, "--seed", "4", "--out", str(base / "rank")])
        runs[tag] = base

    first_files = sorted(p for p in runs["first"].rglob("*") if p.is_file())
    assert first_files, "commands produced no files"
    for path in first_files:
        twin = runs["second"] / path.relative_to(runs["first"])
        assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs"
