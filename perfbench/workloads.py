"""Seeded synthetic datasets and the four benchmark workloads.

Every dataset has uniform features on per-column ranges, an index that is a
smooth positive function of the features plus Gaussian noise, and a fixed
share of rows whose index is hidden (left empty in the CSV).  The hidden
values stay in memory for scoring; the program under test only ever sees
the CSV text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Standard deviation of the Gaussian index noise; the noiseless index lies
#: in about [1, 3].
NOISE = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # rows
    m: int  # features
    unindexed: float  # share of rows whose index is hidden
    args: tuple[str, ...]  # CLI arguments before --data/--out


# The reason for each workload is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-blend", 1500, 5, 0.2, ("cv", "--method", "blend", "--repeats", "20")),
        Workload("optimize-kq", 400, 3, 0.2, ("optimize",)),
        Workload("extend-wide", 5000, 10, 0.6, ("extend", "--method", "blend")),
        Workload("optimize-rmse", 100, 3, 0.2, ("optimize", "--objective", "test-rmse")),
    )
}

#: Problem sizes for ``run.py --smoke``: every workload in well under a second.
SMOKE_SIZES = {"cv-blend": 120, "optimize-kq": 40, "extend-wide": 200, "optimize-rmse": 30}
SMOKE_PSO = '{"pso": {"swarm_size": 6, "iterations": 5}}'


@dataclass(frozen=True, eq=False)
class Dataset:
    csv_text: str
    features: np.ndarray  # (n, m) raw features exactly as written
    index: np.ndarray  # (n,) with NaN on hidden rows, exactly as written
    hidden: np.ndarray  # (n,) the full index, hidden rows included


def generate(w: Workload, seed: int, part: int, n: int | None = None) -> Dataset:
    """Dataset ``part`` of workload ``w`` for ``seed``; same seed, same bytes."""
    n = w.n if n is None else n
    m = w.m
    # The function's shape is fixed per workload, so that quality metrics
    # differ between seeds only by the sample, not by the target function.
    shape = np.random.default_rng(sorted(WORKLOADS).index(w.name))
    lo = shape.uniform(-5.0, 5.0, size=m)
    span = 10.0 ** shape.uniform(-1.0, 2.0, size=m)
    weights = shape.uniform(0.5, 1.5, size=m) / np.sqrt(m)
    wave = shape.normal(size=m)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name), part])
    z = rng.uniform(0.0, 1.0, size=(n, m))
    truth = 1.0 + z @ weights + 0.25 * np.sin(2.0 * np.pi * z @ (wave / np.linalg.norm(wave)))
    full = truth + NOISE * rng.normal(size=n)
    hide = rng.choice(n, size=int(round(w.unindexed * n)), replace=False)

    features = lo + z * span
    index = full.copy()
    index[hide] = np.nan

    lines = ["id," + ",".join(f"x{k}" for k in range(m)) + ",index"]
    for i in range(n):
        cells = [repr(float(v)) for v in features[i]]
        value = "" if np.isnan(index[i]) else repr(float(index[i]))
        lines.append(f"r{i:05d}," + ",".join(cells) + "," + value)
    return Dataset("\n".join(lines) + "\n", features, index, full)
