"""The golden corpus: a fixed matrix of CLI runs, each pinned to the sha256
of its stdout, its stderr and every file it writes.

The datasets in ``tests/golden/`` are committed bytes, made once with
``helpers.synthetic_csv`` and not regenerated, since that helper's ``@``
and ``np.sin`` may round differently between CPUs.  The matrix keeps to
arithmetic that gives the same bits on every machine: the three base
metrics, the identity modulus and a fixed sqrt + sqrt_rational
combination, which take +, -, *, /, sqrt, min and max in lipext's own
summation order.  ``linear`` (``@`` and LAPACK), ``log1p``/``arctan`` and
the coefficient search are left out for that reason.

``scripts/update_golden.py`` rewrites ``golden/digests.json``.  A change
that alters outputs on purpose reruns it and names each changed digest.
"""

from __future__ import annotations

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
PHIS = {"identity": [], "sqrt": ["--phi", FIXED_PHI]}
METHODS = ("whitney", "mcshane", "blend", "standard")
COMMANDS = {"extend": [], "cv": ["--repeats", "3"], "rank": []}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, apart from ``--out``."""
    cases = {}
    for data in DATASETS:
        path = str(GOLDEN_DIR / f"{data}.csv")
        for metric in BASE_METRICS:
            for phi, phi_args in PHIS.items():
                shared = ["--data", path, "--metric", metric, *phi_args]
                cases[f"{data}/constants/{metric}/{phi}"] = ["constants", *shared]
                for command, extra in COMMANDS.items():
                    for method in METHODS:
                        argv = [command, *shared, "--method", method, *extra]
                        cases[f"{data}/{command}/{method}/{metric}/{phi}"] = argv
    return cases


CASES = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, out_dir: Path) -> dict:
    """Run one case in process, writing into the empty ``out_dir``, and
    return its exit code, warnings and digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*CASES[name], "--out", str(out_dir)])
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {
        "exit": code,
        "warnings": [str(w.message) for w in caught],
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
        "files": {p.relative_to(out_dir).as_posix(): _sha256(p.read_bytes()) for p in files},
    }


def read_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
