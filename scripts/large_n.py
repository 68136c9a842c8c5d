#!/usr/bin/env python3
"""Large-n checks of lipext at full benchmark size, runnable on a checkout.

Run one check, or every check in turn with ``--all``:
    python3 scripts/large_n.py k-check
    python3 scripts/large_n.py kq-large
    python3 scripts/large_n.py rmse-sqrt
    python3 scripts/large_n.py rmse-large
    python3 scripts/large_n.py --all

Each check writes its datasets, made by the ``perfbench`` generators, into
a temporary directory, prints what it verified and fails with an
``AssertionError`` or ``checks.CheckError`` on the first mismatch.  The
package is imported, and run, from this checkout's ``src``.

k-check: cv-blend dataset 0 and a tied grid.  Each method's K on the
random, ordered and nested ``honest_alpha`` splits of seeds 0-19, and on
every row as ``extend`` fits, must equal ``coherence_constant`` on a fresh
sample, bit for bit.  The list of the largest ratios must serve all 60
subsets of cv-blend and be full on the grid.

kq-large: the optimize-kq generator at n = 3,750 (3,000 indexed rows).
``constants``, kq-bound ``optimize``, ``extend --method whitney`` and
``blend``, ``rank --method blend`` and ``cv --method blend`` each run to
exit under ``perfbench/spawn.py``, which prints their wall time and peak
RSS.  Every command but ``constants`` must peak below the 68.7 MiB of the
3,000-row distance table it never builds; extend's K must equal
constants' K for whitney and blend; rank must rank the blend's
predictions; and K, Q and the optimum's K*Q at its own coefficients must
match the brute-force loop.

rmse-sqrt: optimize-rmse dataset 0 over SQRT_BASIS.  ``lipext optimize
--objective test-rmse`` at its default swarm must report a best objective
and an identity objective equal to the brute-force blend RMSE of its
coefficients and of sqrt alone.

rmse-large: the optimize-rmse generator at n = 1,250 (1,000 indexed rows),
over LINEAR_BASIS and SQRT_BASIS.  Prints the K front's size, the widest
row front, the build time and the cost per candidate; the test-rmse
objective at five coefficient vectors must equal the brute-force blend
RMSE.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from lipext.constants import (  # noqa: E402
    LISTED_PAIRS,
    IndexedSample,
    coherence_constant,
    k_front,
    largest_ratios,
)
from lipext.dataio import read_dataset  # noqa: E402
from lipext.metrics import CompositionMetric  # noqa: E402
from lipext.phi import LINEAR_BASIS, SQRT_BASIS, identity_phi  # noqa: E402
from lipext.pipeline import (  # noqa: E402
    _INNER_SPLIT_OFFSET,
    _fit_rows,
    _row_fronts,
    _split_rows,
    fit_for_extend,
    minmax_scale,
    objective_test_rmse,
)
from workloads import WORKLOADS, generate  # noqa: E402


def tied_grid_csv() -> str:
    """1,537 rows on a line, x = k/1536 and I = 2x, every fifth row
    unindexed: every pair's ratio is exactly 2.0, a tie at the cutoff."""
    lines = ["id,x,index"]
    for k in range(1537):
        lines.append(f"r{k},{k / 1536!r},{2 * (k / 1536)!r}" if k % 5 != 4 else f"r{k},{k / 1536!r},")
    return "\n".join(lines) + "\n"


def k_check(work: Path) -> None:
    data, grid = work / "data.csv", work / "grid.csv"
    data.write_text(generate(WORKLOADS["cv-blend"], 0, 0).csv_text, encoding="utf-8")
    grid.write_text(tied_grid_csv(), encoding="utf-8")
    cm = CompositionMetric("euclidean", identity_phi())
    methods = ("whitney", "mcshane", "blend", "standard")

    def check(path):
        """(fits, listed pairs, subsets the list served) on the CSV at path.

        One list of the largest ratios, as cross_validate builds it, serves
        every method; every fit, standard included, takes K on its rows as given.
        """
        indexed = minmax_scale(read_dataset(path)).indexed_rows()
        largest = largest_ratios(indexed.as_sample(), cm)
        n, fits, served = indexed.n_rows, 0, 0
        for seed in range(20):
            train = _split_rows(n, 0.7, seed, "random")[0]
            inner = _split_rows(len(train), 0.7, seed + _INNER_SPLIT_OFFSET, "random")[0]
            for rows in (train, _split_rows(n, 0.7, seed, "ordered")[0], train[inner]):
                fresh = coherence_constant(IndexedSample(indexed.features[rows], indexed.index[rows]), cm)
                served += largest.coherence(rows) is not None
                for method in methods:
                    K = _fit_rows(indexed, cm, method, largest, rows).K
                    assert K == fresh, (path, seed, len(rows), method, K.hex(), fresh.hex())
                    fits += 1
        # The fit on every row that extend and rank make.
        fresh = coherence_constant(indexed.as_sample(), cm)
        for method in methods:
            K = fit_for_extend(indexed, cm, method).K
            assert K == fresh, (path, method, K.hex(), fresh.hex())
            fits += 1
        return fits, len(largest.ratios), served

    fits, listed, served = check(data)
    assert served == 60, f"the list served {served} of 60 subsets of cv-blend dataset 0"
    print(f"cv-blend dataset 0: {fits} fits give the K of a fresh sample, bit for bit; "
          f"{listed} pairs listed; the list served {served} of 60 subsets")
    fits, listed, served = check(grid)
    assert listed == LISTED_PAIRS, f"the tied grid lists {listed} pairs, not {LISTED_PAIRS}"
    print(f"tied grid: {fits} fits give the K of a fresh sample, bit for bit; "
          f"{listed} pairs listed; the list served {served} of 60 subsets")


def kq_large(work: Path) -> None:
    data, ds = work / "data.csv", generate(WORKLOADS["optimize-kq"], 0, 0, n=3750)
    data.write_text(ds.csv_text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    for command in ("constants", "optimize", "extend --method whitney", "extend --method blend",
                    "rank --method blend", "cv --method blend"):
        name = command.replace(" --method ", "-")
        (work / name).mkdir()
        spawned = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "spawn.py"), "600", str(work / name),
             sys.executable, "-m", "lipext", *command.split(), "--data", str(data), "--out", str(work / name / "out")],
            env=env, check=True, capture_output=True, text=True)
        print(spawned.stdout, end="")
        runs[name] = json.loads(spawned.stdout)
    table_mb = 3000 * 3000 * 8 / 2**20
    for name, run in runs.items():
        checks.expect(run["exit_code"] == 0, f"{name} exited {run['exit_code']}")
        print(f"{name}: {run['wall_s']:.2f} s, peak RSS {run['peak_rss_mb']:.0f} MiB")
        if name != "constants":
            checks.expect(run["peak_rss_mb"] < table_mb,
                          f"{name} peaked at {run['peak_rss_mb']:.1f} MiB, not below the table's {table_mb:.1f} MiB")
    report = checks.read_json(work / "constants" / "out" / "constants.json")
    for name in ("extend-whitney", "extend-blend"):
        model_K = checks.read_json(work / name / "out" / "model.json")["K"]
        checks.expect(model_K == report["K"], f"{name}'s K {model_K!r} is not constants' K {report['K']!r}")

    def column(path, key):
        with open(path, newline="", encoding="utf-8") as fh:
            return sorted(row[key] for row in csv.DictReader(fh))

    ranked = column(work / "rank-blend" / "out" / "ranking.csv", "predicted_index")
    extended = column(work / "extend-blend" / "out" / "predictions.csv", "predicted_index")
    checks.expect(ranked == extended, "rank --method blend ranks values other than extend's predictions")
    points, values = checks.scaled_indexed(ds)
    K, Q = checks.k_and_q(points, values, checks.IDENTITY)
    checks.close(checks.as_float(report["K"]), K, "K")
    checks.close(checks.as_float(report["Q"]), Q, "Q")
    # The search's Q is that of the index shifted to minimum 0.
    result = checks.read_json(work / "optimize" / "out" / "swarm_result.json")
    K, Q = checks.k_and_q(points, values - values.min(), result["best_phi"])
    checks.close(checks.as_float(result["best_objective"]), K * Q, "best_objective")
    print(f"{len(values)} indexed rows: K, Q and the optimum's K*Q match the brute-force loop; "
          f"extend's K equals constants' K for whitney and blend; rank ranks the blend's predictions")


def rmse_sqrt(work: Path) -> None:
    data, config = work / "data.csv", work / "config.json"
    data.write_text(generate(WORKLOADS["optimize-rmse"], 0, 0).csv_text, encoding="utf-8")
    config.write_text('{"atoms": ["sqrt", "sqrt_log1p", "sqrt_arctan", "sqrt_rational"]}',
                      encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "lipext", "optimize", "--objective", "test-rmse",
                    "--data", str(data), "--config", str(config), "--out", str(work / "out")],
                   env=env, check=True)
    # identity_objective is the objective at (1, 0, 0, 0): sqrt alone.
    points, values = checks.scaled_indexed(generate(WORKLOADS["optimize-rmse"], 0, 0))
    train, test = checks.split(len(values), 0)
    result = checks.read_json(work / "out" / "swarm_result.json")
    for key, phi in (("best_objective", result["best_phi"]),
                     ("identity_objective", {"atoms": ["sqrt"], "coefficients": [1.0]})):
        checks.close(checks.as_float(result[key]), checks.blend_rmse(points, values, train, test, phi), key)
    print("best_objective and identity_objective match the brute-force blend RMSE")


def rmse_large(work: Path) -> None:
    data = work / "data.csv"
    data.write_text(generate(WORKLOADS["optimize-rmse"], 0, 0, n=1250).csv_text, encoding="utf-8")
    indexed = minmax_scale(read_dataset(data)).indexed_rows()
    points, values = checks.scaled_indexed(generate(WORKLOADS["optimize-rmse"], 0, 0, n=1250))
    train, test = _split_rows(indexed.n_rows, 0.7, 0, "random")
    ref_train, ref_test = checks.split(len(values), 0)
    sample = IndexedSample(indexed.features[train], indexed.index[train])
    rng = np.random.default_rng(0)
    for atoms in (LINEAR_BASIS, SQRT_BASIS):
        start = perf_counter()
        objective = objective_test_rmse(indexed, "euclidean", atoms)
        build = perf_counter() - start
        k_pairs = len(k_front(sample, "euclidean", atoms)[1])
        width = _row_fronts(indexed.features[test], sample, "euclidean", atoms)[1].shape[1]
        lams = rng.uniform(0.0, 10.0, size=(200, len(atoms)))
        lams[:5:2, 1] = 0.0
        objective(lams[0])  # the first call pays numpy's one-time costs
        start = perf_counter()
        scores = [objective(lam) for lam in lams]
        per_candidate = (perf_counter() - start) / len(lams)
        for lam, score in zip(lams[:5], scores):
            phi = {"atoms": list(atoms), "coefficients": [float(c) for c in lam]}
            checks.close(score, checks.blend_rmse(points, values, ref_train, ref_test, phi), str(lam))
        print(f"{atoms[0]} basis: {len(train)} training and {len(test)} test rows; "
              f"K front {k_pairs} of {len(train) * (len(train) - 1) // 2} pairs; "
              f"widest row front {width} of {len(train)} rows; build {build * 1e3:.0f} ms; "
              f"{per_candidate * 1e3:.3f} ms per candidate; 5 of 5 match the brute-force blend RMSE")


CHECKS = {"k-check": k_check, "kq-large": kq_large, "rmse-sqrt": rmse_sqrt, "rmse-large": rmse_large}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", nargs="?", choices=sorted(CHECKS))
    parser.add_argument("--all", action="store_true", help="run every check in turn")
    args = parser.parse_args(argv)
    if args.all == (args.check is not None):
        parser.error("give one check or --all")
    for name in sorted(CHECKS) if args.all else [args.check]:
        if args.all:
            print(f"{name}:", flush=True)
        with tempfile.TemporaryDirectory() as work:
            CHECKS[name](Path(work))


if __name__ == "__main__":
    main()
