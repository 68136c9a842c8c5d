#!/usr/bin/env python3
"""Large-n checks of lipext at full benchmark size, runnable on a checkout.

Run:
    python3 scripts/large_n.py k-check

Each check writes its datasets, made by the ``perfbench`` generators, into
a temporary directory, prints what it verified and fails with an
``AssertionError`` on the first mismatch.  The package is imported from
this checkout's ``src``.

k-check: cv-blend dataset 0 and a tied grid.  Each method's K on the
random, ordered and nested ``honest_alpha`` splits of seeds 0-19, and on
every row as ``extend`` fits, must equal ``coherence_constant`` on a fresh
sample, bit for bit.  The list of the largest ratios must serve all 60
subsets of cv-blend and be full on the grid.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from lipext.constants import LISTED_PAIRS, IndexedSample, coherence_constant  # noqa: E402
from lipext.dataio import read_dataset  # noqa: E402
from lipext.metrics import CompositionMetric  # noqa: E402
from lipext.phi import identity_phi  # noqa: E402
from lipext.pipeline import (  # noqa: E402
    _INNER_SPLIT_OFFSET,
    PairTable,
    _split_rows,
    fit_for_extend,
    minmax_scale,
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

        One table per method, as cross_validate builds it, each listing its
        largest ratios; every fit, standard included, takes K on its rows as given.
        """
        indexed = minmax_scale(read_dataset(path)).indexed_rows()
        tables = {method: PairTable(indexed, cm, method) for method in methods}
        n, fits, served = indexed.n_rows, 0, 0
        for seed in range(20):
            train = _split_rows(n, 0.7, seed, "random")[0]
            inner = _split_rows(len(train), 0.7, seed + _INNER_SPLIT_OFFSET, "random")[0]
            for rows in (train, _split_rows(n, 0.7, seed, "ordered")[0], train[inner]):
                fresh = coherence_constant(IndexedSample(indexed.features[rows], indexed.index[rows]), cm)
                served += tables["whitney"].largest.coherence(rows) is not None
                for method, table in tables.items():
                    K = table.fit(rows).K
                    assert K == fresh, (path, seed, len(rows), method, K.hex(), fresh.hex())
                    fits += 1
        # The fit on every row that extend and rank make.
        fresh = coherence_constant(indexed.as_sample(), cm)
        for method in methods:
            K = fit_for_extend(indexed, cm, method).K
            assert K == fresh, (path, method, K.hex(), fresh.hex())
            fits += 1
        return fits, len(tables["whitney"].largest.ratios), served

    fits, listed, served = check(data)
    assert served == 60, f"the list served {served} of 60 subsets of cv-blend dataset 0"
    print(f"cv-blend dataset 0: {fits} fits give the K of a fresh sample, bit for bit; "
          f"{listed} pairs listed; the list served {served} of 60 subsets")
    fits, listed, served = check(grid)
    assert listed == LISTED_PAIRS, f"the tied grid lists {listed} pairs, not {LISTED_PAIRS}"
    print(f"tied grid: {fits} fits give the K of a fresh sample, bit for bit; "
          f"{listed} pairs listed; the list served {served} of 60 subsets")


CHECKS = {"k-check": k_check}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        CHECKS[args.check](Path(work))


if __name__ == "__main__":
    main()
