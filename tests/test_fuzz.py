"""Fuzz of the command line over generated CSVs and configs.

Every command must either succeed (exit 0) or exit 2 with exactly one
``error:<category>:`` line on stderr; an exception escaping ``main`` fails
the test.  A CSV that breaks the contract must end in ``error:parse:``
whatever the command, and only such a CSV may.  The CSVs are small and mostly well formed, so that runs reach the
fitting and search code, with at most one defect each: a ragged row, a bad
cell (``nan``, ``inf``, empty, non-numeric, overflowing) or a duplicate id.
The config draws the modulus, the scaling rows, the split, the base metric,
the blend weight, the train fraction and the nested alpha split.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lipext.cli import main
from lipext.extension import METHODS
from lipext.metrics import BASE_METRICS

ERROR_LINE = re.compile(r"error:(parse|config|data|unfittable|io): .*\n")
BAD_CELLS = ("nan", "inf", "-inf", "NaN", "", "x", "1e400")
PHIS = (None, "optimize", {"atoms": ["sqrt", "log1p"], "coefficients": [1.0, 0.5]})


def number(magnitude: float):
    return st.one_of(
        st.integers(0, 3).map(lambda k: repr(k * magnitude)),
        st.floats(-1.0, 1.0).map(lambda v: repr(v * magnitude)),
    )


@st.composite
def csv_texts(draw) -> tuple[str, bool]:
    """(CSV text, whether it breaks the CSV contract)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    magnitude = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
    indexed = draw(st.sampled_from(["mixed", "one", "all"]))
    rows = []
    for i in range(n):
        features = [draw(number(magnitude)) for _ in range(m)]
        if indexed == "all" or (indexed == "one" and i == 0):
            value = draw(number(magnitude))
        elif indexed == "one":
            value = ""
        else:
            value = draw(st.one_of(st.just(""), number(magnitude)))
        rows.append([f"r{i}"] + features + [value])
    if draw(st.booleans()):  # a constant column
        for row in rows:
            row[1] = rows[0][1]
    defect = draw(st.sampled_from([None, None, None, "ragged", "cell", "duplicate id"]))
    i = draw(st.integers(0, n - 1))
    malformed = defect is not None
    if defect == "ragged":
        if draw(st.booleans()):
            rows[i].pop()
        else:
            rows[i].append("1")
    elif defect == "cell":
        col, cell = draw(st.integers(1, m + 1)), draw(st.sampled_from(BAD_CELLS))
        rows[i][col] = cell
        malformed = not (col == m + 1 and cell == "")  # an empty index is "unknown"
    elif defect == "duplicate id":
        rows[i][0] = rows[0][0] if i else rows[-1][0]
        malformed = n > 1
    header = ["id"] + [f"x{k}" for k in range(m)] + ["index"]
    return "\n".join(",".join(row) for row in [header] + rows) + "\n", malformed


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    csv=csv_texts(),
    method=st.sampled_from(METHODS),
    objective=st.sampled_from(["kq-bound", "test-rmse"]),
    phi=st.sampled_from(PHIS),
    options=st.fixed_dictionaries({
        "scale_on": st.sampled_from(["all", "indexed"]),
        "honest_alpha": st.booleans(),
        "split": st.sampled_from(["random", "ordered"]),
        "metric": st.sampled_from(BASE_METRICS),
        "alpha": st.sampled_from([None, 0, 0.3, 1]),
        "train_fraction": st.sampled_from([0.3, 0.7, 0.9]),
    }),
)
def test_every_command_exits_cleanly(csv, method, objective, phi, options):
    text, malformed = csv
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text, encoding="utf-8")
        config = Path(tmp) / "config.json"
        config.write_text(
            json.dumps(dict(options, phi=phi, pso={"swarm_size": 4, "iterations": 3})),
            encoding="utf-8",
        )
        for command in ("constants", "extend", "cv", "optimize", "rank"):
            argv = [command, "--data", str(data), "--config", str(config),
                    "--method", method, "--objective", objective,
                    "--out", str(Path(tmp) / command)]
            code, err = run(argv)
            assert code in (0, 2), (argv, text)
            if code == 2:
                assert ERROR_LINE.fullmatch(err), (argv, text, err)
            assert err.startswith("error:parse:") == malformed, (argv, text, err)
