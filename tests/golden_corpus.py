"""The golden corpus: a fixed matrix of CLI runs, each pinned to the sha256
of its stdout, its stderr and every file it writes.

The datasets in ``tests/golden/`` are committed bytes.  ``small3`` and
``wide10`` were made once with ``helpers.synthetic_csv`` and are not
regenerated, since that helper's ``@`` and ``np.sin`` may round
differently between CPUs; ``dupes`` is written by hand, with two pairs of
duplicate points that carry distinct values, one pair that carries equal
ones, and a three-way tie at the minimum value 0; and so is
``shift_rounding``, whose largest ratio rounds otherwise once the index
is shifted to minimum 0, for the K of ``standard``.  The digested runs keep
to arithmetic that gives the same bits on every machine: the three base
metrics, the identity modulus and a fixed sqrt + sqrt_rational
combination, which take +, -, *, /, sqrt, min and max in lipext's own
summation order.  That covers the test-rmse swarm over sqrt +
sqrt_rational, and cv under ``honest_alpha``, the ordered split and
``scale_on: "indexed"``, with the configs committed next to the data.

The K*Q search solves its vertex with LAPACK and its default atoms include
``log1p`` and ``arctan``, which numpy may send to SIMD kernels, so its
runs (``TOLERANT``) are pinned to the numbers they print, compared at the
relative tolerance ``REL_TOL``, instead of to digests of their bytes.  So
are the runs under ``phi: "optimize"`` and a fixed ``log1p`` + ``arctan``
combination, and ``linear`` (``@`` and LAPACK).

``scripts/update_golden.py`` rewrites ``golden/digests.json``.  A change
that alters outputs on purpose reruns it and names each changed digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lipext.cli import main
from lipext.metrics import BASE_METRICS

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = GOLDEN_DIR / "digests.json"
DATASETS = ("small3", "wide10")  # 40 rows x 3 features, 30 rows x 10
FIXED_PHI = json.dumps({"atoms": ["sqrt", "sqrt_rational"], "coefficients": [1.0, 0.75]})
LOG_PHI = json.dumps({"atoms": ["log1p", "arctan"], "coefficients": [1.0, 0.5]})
PHIS = {"identity": [], "sqrt": ["--phi", FIXED_PHI]}
METHODS = ("whitney", "mcshane", "blend", "standard")
COMMANDS = {"extend": [], "cv": ["--repeats", "3"], "rank": []}
CV_CONFIGS = ("honest_alpha", "ordered_split", "scale_on_indexed")
#: Relative tolerance of the numbers of the ``TOLERANT`` runs.
REL_TOL = 1e-12


def _golden(name: str) -> str:
    return str(GOLDEN_DIR / name)


def _cases() -> tuple[dict[str, list[str]], frozenset[str]]:
    """(case name -> argv apart from ``--out``, the names of the tolerant cases)."""
    cases, tolerant = {}, set()
    for data in DATASETS:
        path = _golden(f"{data}.csv")
        for metric in BASE_METRICS:
            for phi, phi_args in PHIS.items():
                shared = ["--data", path, "--metric", metric, *phi_args]
                cases[f"{data}/constants/{metric}/{phi}"] = ["constants", *shared]
                for command, extra in COMMANDS.items():
                    for method in METHODS:
                        argv = [command, *shared, "--method", method, *extra]
                        cases[f"{data}/{command}/{method}/{metric}/{phi}"] = argv
            shared = ["--data", path, "--metric", metric]
            cases[f"{data}/optimize-test-rmse/{metric}"] = [
                "optimize", *shared, "--objective", "test-rmse",
                "--config", _golden("rmse_search.json"),
            ]
            for config in CV_CONFIGS:
                cases[f"{data}/cv/blend/{metric}/{config}"] = [
                    "cv", *shared, "--method", "blend", "--repeats", "3",
                    "--config", _golden(f"{config}.json"),
                ]
            for name, argv in (("optimize-kq-bound", ["optimize", *shared]),
                               ("constants-phi-optimize", ["constants", *shared, "--phi", "optimize"])):
                cases[f"{data}/{name}/{metric}"] = argv
                tolerant.add(f"{data}/{name}/{metric}")
        for method in ("whitney", "mcshane", "blend"):  # the K of all 20 default repeats
            cases[f"{data}/cv-20/{method}"] = [
                "cv", "--data", path, "--metric", "euclidean", "--method", method, "--repeats", "20",
            ]
        shared = ["--data", path]
        tolerant_cases = {f"{data}/constants/log1p_arctan": ["constants", *shared, "--phi", LOG_PHI]}
        for command, extra in COMMANDS.items():
            tolerant_cases[f"{data}/{command}/linear"] = [command, *shared, "--method", "linear", *extra]
            if command != "rank":
                tolerant_cases[f"{data}/{command}/blend/phi-optimize"] = [
                    command, *shared, "--phi", "optimize", *extra,
                ]
                for method in METHODS:
                    tolerant_cases[f"{data}/{command}/{method}/log1p_arctan"] = [
                        command, *shared, "--method", method, "--phi", LOG_PHI, *extra,
                    ]
        cases.update(tolerant_cases)
        tolerant.update(tolerant_cases)
    path = _golden("dupes.csv")
    for metric in BASE_METRICS:
        cases[f"dupes/constants/{metric}"] = ["constants", "--data", path, "--metric", metric]
    for method in METHODS:
        cases[f"dupes/extend/{method}"] = ["extend", "--data", path, "--method", method]
        cases[f"dupes/cv/{method}"] = ["cv", "--data", path, "--method", method, "--repeats", "5"]
    path = _golden("shift_rounding.csv")
    for command in ("extend", "cv"):
        cases[f"shift_rounding/{command}/standard"] = [command, "--data", path, "--method", "standard"]
    return cases, frozenset(tolerant)


CASES, TOLERANT = _cases()


def _numbers(stdout: str) -> dict[str, float]:
    """The numbers a tolerant run prints, one float per key ("inf" read as
    inf): the constants, the search's objectives and coefficients, a cv
    report's RMSEs, or the prediction of each row that ``extend`` or
    ``rank`` prints, keyed by its id (and rank)."""
    if not stdout.startswith("{"):  # extend's rows (id, value), rank's (rank, id, value, method)
        numbers = {}
        for row in csv.reader(io.StringIO(stdout)):
            key, value = (row[0], row[1]) if len(row) == 2 else (f"{row[0]}/{row[1]}", row[2])
            numbers[key] = float(value)
        return numbers
    payload = json.loads(stdout)
    if "per_repeat_rmse" in payload:
        numbers = {f"rmse/{r}": v for r, v in enumerate(payload["per_repeat_rmse"], start=1)}
        keys = ("failed", "mean", "median", "std_dev")
    elif "best_phi" in payload:
        phi = payload["best_phi"]
        numbers = {f"coefficient/{a}": c for a, c in zip(phi["atoms"], phi["coefficients"])}
        keys = ("best_objective", "identity_objective")
    else:
        numbers, keys = {}, ("K", "Q", "C", "Q_shifted", "C_shifted", "bound")
    return {**numbers, **{k: float(payload[k]) for k in keys}}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, out_dir: Path) -> dict:
    """Run one case in process, writing into the empty ``out_dir``, and
    return its exit code, warnings and digests; a ``TOLERANT`` case gives
    the numbers of its stdout and the names of its files in place of their
    digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*CASES[name], "--out", str(out_dir)])
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    record = {
        "exit": code,
        "warnings": [str(w.message) for w in caught],
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
        "files": {p.relative_to(out_dir).as_posix(): _sha256(p.read_bytes()) for p in files},
    }
    if name in TOLERANT:
        record["stdout"] = _numbers(stdout.getvalue())
        record["files"] = sorted(record["files"])
    return record


def read_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
