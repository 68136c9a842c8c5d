#!/usr/bin/env python3
"""End-to-end walkthrough on the bundled six-city sample.

For each of the two four-atom modulus families, finds the coefficients that
minimize the coherence-times-normalization product exactly, then compares
repeated cross-validation RMSE of every extension method under the plain
metric and under the optimized one, and finally ranks the two unindexed
cities.

Run:
    python scripts/table1_demo.py [--data CSV] [--repeats N] [--seed S]
"""

from __future__ import annotations

import argparse
import warnings

from lipext import (
    LINEAR_BASIS,
    SQRT_BASIS,
    CompositionMetric,
    PhiCombination,
    cross_validate,
    fit_for_extend,
    identity_phi,
    minimize_kq,
    minmax_scale,
    predict,
    rank,
)
from lipext.dataio import read_dataset, table1_path

METHODS = ("standard", "mcshane", "whitney", "blend", "linear")


def optimize_phi(sample, atoms, metric):
    lam, best, identity_value = minimize_kq(sample, metric, atoms)
    return PhiCombination(atoms, tuple(lam)), identity_value, best


def cv_table(sample, cm, repeats, seed):
    rows = {}
    for method in METHODS:
        report = cross_validate(sample, method, cm, repeats=repeats, seed=seed)
        rows[method] = report
    return rows


def print_cv(title, reports):
    print(f"\n{title}")
    print(f"{'method':<10} {'mean':>8} {'median':>8} {'std':>8}")
    for method, r in reports.items():
        print(f"{method:<10} {r.mean:>8.3f} {r.median:>8.3f} {r.std_dev:>8.3f}")


def rank_unindexed(ds, sample, cm, seed):
    model = fit_for_extend(sample, cm, "blend", seed=seed)
    preds = predict(model, ds.features[~ds.indexed_mask])
    return rank(ds, preds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=str(table1_path()))
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--metric", default="euclidean")
    args = parser.parse_args()

    warnings.simplefilter("ignore")  # demo output only; tests exercise warnings
    ds = minmax_scale(read_dataset(args.data))
    sample = ds.as_sample()
    n_indexed = len(sample)
    print(f"dataset: {args.data}")
    print(f"rows: {ds.n_rows} ({n_indexed} indexed, {ds.n_rows - n_indexed} to extend)")

    plain = CompositionMetric(args.metric, identity_phi())
    print_cv("plain metric", cv_table(sample, plain, args.repeats, args.seed))

    for label, atoms in (("linear family", LINEAR_BASIS), ("sqrt family", SQRT_BASIS)):
        phi, ident_kq, best_kq = optimize_phi(sample, atoms, args.metric)
        coeffs = ", ".join(f"{a}={c:.4f}" for a, c in zip(phi.atoms, phi.coefficients))
        print(f"\n== {label}: K*Q {ident_kq:.4f} -> {best_kq:.4f}")
        print(f"   coefficients: {coeffs}")
        cm = CompositionMetric(args.metric, phi)
        print_cv(f"optimized metric ({label})", cv_table(sample, cm, args.repeats, args.seed))
        print("\nranking of unindexed rows:")
        for r, cid, val in rank_unindexed(ds, sample, cm, args.seed):
            print(f"  {r}. {cid:<12} {val:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
