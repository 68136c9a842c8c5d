import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import lipext
from lipext.cli import main, rebuild_model
from lipext.dataio import CsvParseError, dataset_hash, json_text, read_dataset, table1_path
from lipext.extension import METHODS, predict
from lipext.phi import LINEAR_BASIS, SQRT_BASIS
from lipext.pipeline import minmax_scale, objective_test_rmse
from lipext.swarm import objective_kq

from helpers import synthetic_csv

TWO_POINT_CSV = "id,x,index\na,0,0\nb,1,2\n"
RECOVERY_CSV = "id,x,index\na,0,0\nb,1,2\nc,1,\n"
#: An index whose largest ratio rounds otherwise once shifted to minimum 0.
SHIFT_ROUNDING_CSV = (
    "id,x,index\na,0.0,10.72\nb,1.0,-2.03\nc,0.805,16.09\nd,0.808,17.47\ne,0.515,-2.51\nf,0.3,\n"
)


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lipext_env() -> dict:
    """The environment of a ``python -m lipext`` subprocess that imports
    the package under test."""
    src = str(Path(lipext.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


# ---------------------------------------------------------------------------
# dataset parsing


def test_read_bundled_table1():
    ds = read_dataset(table1_path())
    assert ds.ids[0] == "New York"
    assert ds.n_rows == 6 and ds.n_features == 3
    assert int(np.sum(ds.indexed_mask)) == 4
    assert ds.index[0] == 63.0 and math.isnan(ds.index[3])


def test_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "bad.csv", "id,x,index\na,1,2\nb,oops,3\n")
    with pytest.raises(CsvParseError, match=":3:"):
        read_dataset(path)


def test_parse_error_wrong_column_count(tmp_path):
    path = write(tmp_path, "bad.csv", "id,x,index\na,1\n")
    with pytest.raises(CsvParseError, match=":2:"):
        read_dataset(path)


@pytest.mark.parametrize(
    "cells, bad",
    [
        ("1,nan", "'nan'"),
        ("1,inf", "'inf'"),
        ("1,-Infinity", "'-Infinity'"),
        ("nan,1", "'nan'"),
        ("inf,1", "'inf'"),
        ("1e400,1", "'1e400'"),
    ],
)
def test_non_finite_cell_rejected_at_its_line(tmp_path, capsys, cells, bad):
    data = write(tmp_path, "bad.csv", f"id,x,index\na,0,1\nb,1,2\nc,{cells}\nd,2,\n")
    with pytest.raises(CsvParseError, match=f":4: non-finite .*{bad}"):
        read_dataset(data)
    code, out, err = run_cli(capsys, "extend", "--data", data)
    assert code == 2 and out == ""
    assert err.startswith("error:parse:") and ":4:" in err and err.count("\n") == 1


def test_duplicate_id_rejected_at_second_occurrence(tmp_path, capsys):
    data = write(tmp_path, "dup.csv", "id,x,index\na,0,1\nb,1,2\na,2,\n")
    with pytest.raises(CsvParseError, match=r":4: duplicate id 'a' \(first on line 2\)"):
        read_dataset(data)
    code, _, err = run_cli(capsys, "extend", "--data", data)
    assert code == 2
    assert err.startswith("error:parse:") and err.count("\n") == 1


def test_errors_name_the_physical_line_after_a_multiline_cell(tmp_path, capsys):
    # The quoted id spans lines 2 and 3, so the next record starts on line 4.
    head = 'id,x,index\n"a\nb",0,1\n'
    bad = write(tmp_path, "ml.csv", head + "c,oops,2\n")
    with pytest.raises(CsvParseError, match=":4: non-numeric feature"):
        read_dataset(bad)
    dup = write(tmp_path, "dup.csv", head + "c,1,2\nc,2,\n")
    with pytest.raises(CsvParseError, match=r":5: duplicate id 'c' \(first on line 4\)"):
        read_dataset(dup)
    code, out, err = run_cli(capsys, "constants", "--data", bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error:parse: {bad}:4:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# output encoding


def test_json_text_walks_dataclasses_arrays_and_non_finite_floats():
    @dataclass
    class Row:
        pair: tuple
        values: np.ndarray

    payload = {"row": Row((1, math.inf), np.array([-math.inf, math.nan, 0.5])), "x": np.float64(2.0)}
    text = json_text(payload)
    assert json.loads(text, parse_constant=reject_constant) == {
        "row": {"pair": [1, "inf"], "values": ["-inf", "nan", 0.5]}, "x": 2.0,
    }
    assert text.endswith("}\n")


def test_extend_and_rank_echo_the_rows_they_write(tmp_path, capsys):
    # An id with a comma is quoted on stdout as it is in the file.
    data = write(tmp_path, "q.csv", 'id,x,index\na,0,0\nb,1,2\nc,2,4\n"d, quoted",1.5,\n')
    for command, name in (("extend", "predictions.csv"), ("rank", "ranking.csv")):
        out_dir = tmp_path / command
        code, out, err = run_cli(capsys, command, "--data", data, "--method", "whitney",
                                 "--out", str(out_dir))
        assert (code, err) == (0, "")
        assert '"d, quoted"' in out
        assert out == (out_dir / name).read_text().split("\n", 1)[1]


def test_an_overflowing_cv_writes_valid_json(tmp_path):
    # The predictions overflow, so the RMSEs are inf and their spread NaN;
    # both print as strings, as every non-finite number does.
    data = write(tmp_path, "ovf.csv", "id,x,index\na,0,1e300\nb,1e-300,-1e300\nc,1,0\n"
                 "d,2,1e300\ne,3,0\nf,4,1\n")
    out_dir = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "lipext", "cv", "--method", "whitney", "--repeats", "3",
         "--data", data, "--out", str(out_dir)],
        env=lipext_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (out_dir / "cv_report.json").read_text()
    report = json.loads(done.stdout, parse_constant=reject_constant)
    assert (report["mean"], report["std_dev"]) == ("inf", "nan")


# ---------------------------------------------------------------------------
# constants command


def test_constants_command_two_points(tmp_path, capsys):
    data = write(tmp_path, "two.csv", "id,x,index\na,0,0\nb,1,3\n")
    code, out, _ = run_cli(capsys, "constants", "--data", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 3.0
    assert payload["Q"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert payload["C"] == 3.0
    assert payload["k_pair"] == [0, 1]


def test_constants_command_infinite_q(tmp_path, capsys):
    data = write(tmp_path, "zeros.csv", "id,x,index\na,0,0\nb,1,0\n")
    code, out, _ = run_cli(capsys, "constants", "--data", data)
    assert code == 0
    payload = json.loads(out)
    assert payload["Q"] == "inf"


def test_constants_does_not_warn_when_kq_rounds_below_one(tmp_path, capsys):
    # K*Q of the shifted two-row index is 1 in theory but rounds an ulp
    # below; the bound is 0 without a warning.
    data = write(tmp_path, "two.csv", "id,a,b,index\nr0,0,0,0\nr1,1,1,27.2268870741246\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "constants", "--data", data)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["K"] * payload["Q_shifted"] < 1.0
    assert payload["bound"] == 0.0


def test_constants_writes_file(tmp_path, capsys):
    data = write(tmp_path, "two.csv", TWO_POINT_CSV)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "constants", "--data", data, "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "constants.json").read_text())["K"] == 2.0


# ---------------------------------------------------------------------------
# extend command


def test_extend_on_bundled_data(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "extend", "--data", str(table1_path()), "--out", str(out_dir),
        "--method", "blend", "--seed", "0",
    )
    assert code == 0
    lines = (out_dir / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "id,predicted_index"
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert set(values) == {"Toronto", "Montreal"}
    assert all(0.0 <= v <= 100.0 for v in values.values())
    model = json.loads((out_dir / "model.json").read_text())
    assert model["method"] == "blend" and 0.0 <= model["alpha"] <= 1.0


def test_extend_standard_recovers_known_value(tmp_path, capsys):
    data = write(tmp_path, "rec.csv", RECOVERY_CSV)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "extend", "--data", data, "--out", str(out_dir), "--method", "standard"
    )
    assert code == 0
    rows = (out_dir / "predictions.csv").read_text().strip().splitlines()[1:]
    assert rows == ["c,2.0"]  # point c coincides with b, whose value is 2


def test_extend_no_targets_writes_empty_file(tmp_path, capsys):
    data = write(tmp_path, "full.csv", TWO_POINT_CSV)
    out_dir = tmp_path / "out"
    with pytest.warns(UserWarning, match="no unindexed rows"):
        code = main(
            ["extend", "--data", data, "--out", str(out_dir), "--method", "whitney"]
        )
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "predictions.csv").read_text().strip() == "id,predicted_index"


@pytest.mark.parametrize("method", METHODS)
def test_model_round_trip_bitwise(tmp_path, capsys, method):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "extend", "--data", str(table1_path()), "--out", str(out_dir),
        "--method", method, "--phi", '{"atoms": ["identity", "log1p"], "coefficients": [1.0, 2.0]}',
    )
    assert code == 0
    first = (out_dir / "predictions.csv").read_text()
    model_dict = json.loads((out_dir / "model.json").read_text())
    ds_raw = read_dataset(table1_path())
    assert model_dict["training_hash"] == dataset_hash(ds_raw)
    model, scaled = rebuild_model(model_dict, ds_raw)
    preds = predict(model, scaled.unindexed_rows().features)
    reread = [float(line.split(",")[1]) for line in first.strip().splitlines()[1:]]
    assert list(preds) == reread  # bitwise: repr round-trips float64 exactly


def test_rebuild_model_rejects_alpha_out_of_range(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "extend", "--data", str(table1_path()), "--out", str(out_dir))
    assert code == 0
    model_dict = json.loads((out_dir / "model.json").read_text())
    model_dict["alpha"] = 1.5
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got 1.5"):
        rebuild_model(model_dict, read_dataset(table1_path()))


# ---------------------------------------------------------------------------
# cv command


def test_cv_command_writes_report_and_csv(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "cv", "--data", str(table1_path()), "--out", str(out_dir),
        "--method", "whitney", "--repeats", "5", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["repeats"] == 5 and payload["failed"] == 0
    report = json.loads((out_dir / "cv_report.json").read_text())
    assert report["per_repeat_rmse"] == payload["per_repeat_rmse"]
    csv_lines = (out_dir / "cv_repeats.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "repeat,rmse"
    assert [line.split(",") for line in csv_lines[1:]] == [
        [str(r + 1), repr(v)] for r, v in enumerate(payload["per_repeat_rmse"])
    ]


# ---------------------------------------------------------------------------
# optimize command


def test_optimize_never_worse_than_identity(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "optimize", "--data", str(table1_path()), "--out", str(out_dir),
        "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_objective"] <= payload["identity_objective"]
    best_phi = json.loads((out_dir / "best_phi.json").read_text())
    assert sum(best_phi["coefficients"]) == pytest.approx(1.0, rel=1e-9)
    result = json.loads((out_dir / "swarm_result.json").read_text())
    assert result == payload and result["best_phi"] == best_phi
    sample = minmax_scale(read_dataset(table1_path())).indexed_rows().as_sample()
    kq = objective_kq(sample, "euclidean", tuple(best_phi["atoms"]))
    assert result["best_objective"] == kq(np.array(best_phi["coefficients"]))

    cfg = write(tmp_path, "cfg.json", json.dumps({"pso": {"swarm_size": 10, "iterations": 20}}))
    code, out, _ = run_cli(
        capsys, "optimize", "--data", str(table1_path()), "--out", str(out_dir),
        "--seed", "3", "--objective", "test-rmse", "--config", cfg,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_objective"] <= payload["identity_objective"]
    best_phi = json.loads((out_dir / "best_phi.json").read_text())
    assert sum(best_phi["coefficients"]) == pytest.approx(1.0, rel=1e-12)
    indexed = minmax_scale(read_dataset(table1_path())).indexed_rows()
    rmse = objective_test_rmse(indexed, "euclidean", tuple(best_phi["atoms"]), seed=3)
    assert payload["best_objective"] == rmse(np.array(best_phi["coefficients"]))
    history = json.loads((out_dir / "swarm_result.json").read_text())["swarm"]["history"]
    assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize(
    "seed, n, atoms",
    [(0, 60, "linear"), (8, 60, "linear"), (15, 20, "linear"), (13, 150, "sqrt")],
)
def test_optimize_kq_equals_constants_under_best_phi(tmp_path, capsys, seed, n, atoms):
    # Both commands compose distances in the same order and take K from the
    # same |I_i - I_j|, so the searched K*Q is the reported K * Q_shifted
    # bit for bit.
    data = write(tmp_path, "data.csv", synthetic_csv(seed, n))
    basis = list(LINEAR_BASIS if atoms == "linear" else SQRT_BASIS)
    cfg = write(tmp_path, "cfg.json", json.dumps({"atoms": basis}))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "optimize", "--data", data, "--config", cfg,
                           "--out", str(out_dir))
    assert code == 0
    best = json.loads(out)["best_objective"]
    code, out, _ = run_cli(capsys, "constants", "--data", data,
                           "--phi", str(out_dir / "best_phi.json"))
    assert code == 0
    report = json.loads(out)
    assert best == report["K"] * report["Q_shifted"]


@pytest.mark.parametrize("seed", [6, 7])
def test_optimize_test_rmse_writes_identity_for_identity_ray(tmp_path, capsys, seed):
    # On these samples the swarm's best points all lie on the identity's
    # ray, a rounding-noise below it or at the zero corner; the written
    # answer is the identity itself.
    data = write(tmp_path, "data.csv", synthetic_csv(seed, 30))
    cfg = write(tmp_path, "cfg.json", json.dumps({"pso": {"swarm_size": 10, "iterations": 20}}))
    code, out, _ = run_cli(capsys, "optimize", "--data", data, "--config", cfg,
                           "--objective", "test-rmse", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert not any(payload["swarm"]["best_lambda"][1:])
    assert payload["best_phi"]["coefficients"] == [1.0, 0.0, 0.0, 0.0]
    assert payload["best_objective"] == payload["identity_objective"]


def test_optimize_deterministic_output(tmp_path, capsys):
    args = ["optimize", "--data", str(table1_path()), "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    # The K*Q search is exact: neither the seed nor the swarm settings matter.
    cfg = write(tmp_path, "cfg.json", json.dumps({"pso": {"swarm_size": 5, "iterations": 3}}))
    code3, out3, _ = run_cli(capsys, "optimize", "--data", str(table1_path()),
                             "--seed", "12", "--config", cfg)
    assert code3 == 0
    assert out3 == out1


def test_optimize_two_point_floor(tmp_path, capsys):
    # On a shifted two-point sample the product K*Q is 1 on every ray, and
    # the identity already achieves it, so the optimum is exactly 1.
    data = write(tmp_path, "two.csv", TWO_POINT_CSV)
    code, out, _ = run_cli(capsys, "optimize", "--data", data, "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_objective"] == payload["best_objective"] == 1.0
    assert payload["best_phi"]["coefficients"] == [1.0, 0.0, 0.0, 0.0]


def test_optimize_test_rmse_objective(tmp_path, capsys):
    cfg = write(
        tmp_path, "cfg.json",
        json.dumps({"pso": {"swarm_size": 10, "iterations": 10}}),
    )
    code, out, _ = run_cli(
        capsys, "optimize", "--data", str(table1_path()), "--config", cfg,
        "--objective", "test-rmse", "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == "test_rmse"
    assert payload["best_objective"] <= payload["identity_objective"]


@pytest.mark.parametrize("spelling", ["kq-bound", "kq_bound", "test-rmse", "test_rmse"])
def test_objective_takes_either_spelling_in_the_file_or_a_flag(tmp_path, capsys, spelling):
    small = {"pso": {"swarm_size": 4, "iterations": 2}}
    for settings, flag in (({"objective": spelling}, []), ({}, ["--objective", spelling])):
        cfg = write(tmp_path, "cfg.json", json.dumps(dict(small, **settings)))
        code, out, err = run_cli(capsys, "optimize", "--data", str(table1_path()),
                                 "--config", cfg, *flag)
        assert (code, err) == (0, "")
        assert json.loads(out)["objective"] == spelling.replace("-", "_")


# ---------------------------------------------------------------------------
# rank command


def test_rank_on_bundled_data(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "rank", "--data", str(table1_path()), "--out", str(out_dir),
        "--method", "blend", "--seed", "0",
    )
    assert code == 0
    lines = (out_dir / "ranking.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,id,predicted_index,method"
    entries = [line.split(",") for line in lines[1:]]
    assert [e[0] for e in entries] == ["1", "2"]
    assert sorted(e[1] for e in entries) == ["Montreal", "Toronto"]
    assert all(0.0 <= float(e[2]) <= 100.0 for e in entries)


def test_rank_requires_unindexed_rows(tmp_path, capsys):
    # Checked before any fit, so no fit warning precedes the error.
    data = write(tmp_path, "full.csv", TWO_POINT_CSV)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "rank", "--data", data)
    assert code == 2
    assert err.splitlines() == ["error:data: ranking needs at least one unindexed row"]
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# error categories and determinism


def test_malformed_csv_reports_parse_category(tmp_path, capsys):
    data = write(tmp_path, "bad.csv", "id,x,index\na,nope,1\n")
    code, _, err = run_cli(capsys, "constants", "--data", data)
    assert code != 0
    assert err.startswith("error:parse:")
    assert ":2:" in err


def test_oversized_csv_cell_reports_parse_category(tmp_path, capsys):
    # A cell over csv.field_size_limit() (131,072 characters) on line 3.
    data = write(tmp_path, "big.csv", f"id,x,index\na,0,1\nb,{'1' * 200_000},2\nc,2,\n")
    with pytest.raises(CsvParseError, match=":3: field larger than field limit"):
        read_dataset(data)
    code, out, err = run_cli(capsys, "constants", "--data", data)
    assert code == 2 and out == ""
    assert err.startswith(f"error:parse: {data}:3:") and err.count("\n") == 1


@pytest.mark.parametrize("flag, category", [
    ("--data", "parse"), ("--config", "config"), ("--phi", "config"),
])
def test_non_utf8_input_reports_its_category(tmp_path, capsys, flag, category):
    binary = tmp_path / "binary"
    binary.write_bytes(b"id,x,index\na,0,1\n\xff\xfe,1,2\n")
    argv = ["constants", flag, str(binary)]
    if flag != "--data":
        argv += ["--data", str(table1_path())]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error:{category}:") and str(binary) in err
    assert err.count("\n") == 1


def test_unfittable_reports_category(tmp_path, capsys):
    data = write(tmp_path, "dup.csv", "id,x,index\na,1,0\nb,1,5\nc,2,\n")
    code, _, err = run_cli(capsys, "extend", "--data", data, "--method", "whitney")
    assert code != 0
    assert err.startswith("error:unfittable:")


def test_unfittable_holdout_is_not_blamed_on_too_few_rows(tmp_path, capsys):
    # The ordered holdout trains on the first five rows, two of which share
    # x = 0 with index values 1 and 2: the holdout's FitError is the error.
    rows = "".join(f"r{i},{x},{v}\n" for i, (x, v) in enumerate(zip([0, 0, 1, 2, 3, 4, 5], range(1, 8))))
    data = write(tmp_path, "clash.csv", "id,x,index\n" + rows + "t,6,\n")
    cfg = write(tmp_path, "cfg.json", json.dumps({"split": "ordered"}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "extend", "--data", data, "--method", "blend", "--config", cfg)
    assert code == 2
    assert err.startswith("error:unfittable:") and err.count("\n") == 1
    assert not [w for w in caught if "too few" in str(w.message)]


def test_two_indexed_rows_extend_with_alpha_half(tmp_path, capsys):
    data = write(tmp_path, "rec.csv", RECOVERY_CSV)
    with pytest.warns(UserWarning, match="too few indexed rows to estimate alpha; using 0.5"):
        code, _, _ = run_cli(capsys, "extend", "--data", data, "--out", str(tmp_path / "out"))
    assert code == 0
    assert json.loads((tmp_path / "out" / "model.json").read_text())["alpha"] == 0.5


# Every indexed row carries one value, so Whitney and McShane coincide and
# the blend weight is degenerate.
CONSTANT_INDEX_CSV = "id,x,y,index\na,0,0,3\nb,1,0,3\nc,0,1,3\nd,1,1,3\ne,2,1,3\nf,0.5,0.5,\n"
DEGENERATE_BLEND = (
    "warning: degenerate blend: whitney and mcshane coincide on the reference set, "
    "any alpha is optimal; returning 0.5"
)


def test_cv_leaves_numpy_ma_unimported(tmp_path):
    # ``np.median`` imports numpy.ma, which costs every ``cv`` command
    # 12-17 ms; the report's median is taken without it.
    code = (
        "import sys\n"
        "from lipext.cli import main\n"
        "from lipext.dataio import table1_path\n"
        "main(['cv', '--data', str(table1_path()), '--repeats', '3', '--out', sys.argv[1]])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=lipext_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert json.loads((tmp_path / "cv_report.json").read_text())["repeats"] == 3


def test_warnings_print_as_plain_lines(tmp_path, capsys):
    data = write(tmp_path, "flat.csv", CONSTANT_INDEX_CSV)
    done = subprocess.run(
        [sys.executable, "-m", "lipext", "extend", "--method", "blend",
         "--data", data, "--out", str(tmp_path / "out")],
        env=lipext_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    # No install path, line number or source line: only the message lines.
    lines = done.stderr.splitlines()
    assert lines and set(lines) == {DEGENERATE_BLEND}
    assert done.stderr.endswith("\n")
    # In-process the warning is still recorded, and the format is restored.
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="degenerate blend"):
        code, _, _ = run_cli(capsys, "extend", "--method", "blend", "--data", data,
                             "--out", str(tmp_path / "again"))
    assert code == 0
    assert warnings.formatwarning is before


def test_one_training_row_reports_unfittable_or_names_the_split(tmp_path, capsys):
    # With two indexed rows every split trains on one row: cv counts each
    # repeat as failed, and the test-rmse search refuses the split up front.
    data = write(tmp_path, "rec.csv", RECOVERY_CSV)
    code, _, err = run_cli(capsys, "cv", "--data", data, "--repeats", "3")
    assert code == 2
    assert err == "error:unfittable: every cross-validation repeat failed to fit\n"
    code, _, err = run_cli(capsys, "optimize", "--data", data, "--objective", "test-rmse")
    assert code == 2
    assert err.startswith("error:data:") and err.count("\n") == 1
    assert "2 indexed rows" in err and "train_fraction 0.7" in err


SIX_ROW_CSV = "id,x,index\n" + "".join(
    f"r{i},{i},{v}\n" for i, v in enumerate([0.0, 1.0, 4.0, 2.0, 3.0, 5.0])
)


@pytest.mark.parametrize("text, settings", [
    (SIX_ROW_CSV, {"train_fraction": 0.9}),
    (SIX_ROW_CSV, {"train_fraction": 0.2}),
    (RECOVERY_CSV, {}),
], ids=["six-rows-0.9", "six-rows-0.2", "two-rows"])
def test_honest_cv_counts_too_small_inner_split_as_failed(tmp_path, capsys, text, settings):
    # Every repeat's nested alpha split leaves no held-out row or fewer
    # than two training rows, so every repeat fails, as a one-row fit does.
    data = write(tmp_path, "d.csv", text)
    cfg = write(tmp_path, "cfg.json", json.dumps(dict(settings, honest_alpha=True)))
    code, _, err = run_cli(capsys, "cv", "--data", data, "--config", cfg, "--repeats", "3")
    assert code == 2
    assert err == "error:unfittable: every cross-validation repeat failed to fit\n"


@pytest.mark.parametrize("settings", [
    {}, {"scale_on": "indexed"}, {"phi": "optimize"}, {"phi": "optimize", "scale_on": "indexed"},
])
@pytest.mark.parametrize("command", ["constants", "extend", "cv", "optimize", "rank"])
def test_every_command_needs_two_indexed_rows(tmp_path, capsys, command, settings):
    data = write(tmp_path, "one.csv", "id,x,index\na,0,1\nb,1,\nc,2,\n")
    cfg = write(tmp_path, "cfg.json", json.dumps(settings))
    code, _, err = run_cli(capsys, command, "--data", data, "--config", cfg)
    assert code == 2
    assert err == f"error:data: {command} needs at least two indexed rows\n"


def test_missing_file_reports_io(capsys):
    code, _, err = run_cli(capsys, "cv", "--data", "/does/not/exist.csv")
    assert code == 2
    assert err.startswith("error:io:") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["data-dir", "data-under-file", "config-dir", "phi-dir", "out-under-file"])
def test_os_errors_report_io(tmp_path, capsys, monkeypatch, case):
    # A directory where a file is expected, or a path below a regular file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    data = write(tmp_path, "rec.csv", RECOVERY_CSV)
    write(tmp_path, "phi.json", json.dumps({"phi": str(tmp_path / "adir")}))
    argv = {
        "data-dir": ["constants", "--data", str(tmp_path / "adir")],
        "data-under-file": ["constants", "--data", data + "/x"],
        "config-dir": ["constants", "--data", data, "--config", str(tmp_path / "adir")],
        "phi-dir": ["constants", "--data", data, "--config", str(tmp_path / "phi.json")],
        "out-under-file": ["extend", "--data", data, "--out", data + "/x"],
    }[case]
    if case == "out-under-file":  # two indexed rows leave no alpha holdout
        with pytest.warns(UserWarning, match="too few indexed rows to estimate alpha"):
            code, out, err = run_cli(capsys, *argv)
    else:
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:io:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["cv", "--method", "foo", "--data", "d.csv"], "argument --method: invalid choice: 'foo'"),
    (["cv", "--seed", "abc", "--data", "d.csv"], "argument --seed: invalid int value: 'abc'"),
    (["frob", "--data", "d.csv"], "argument command: invalid choice: 'frob'"),
    (["cv"], "the following arguments are required: --data"),
], ids=["bad-choice", "bad-int", "unknown-command", "missing-data"])
def test_flag_errors_end_in_one_config_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error:config: {message}") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cv", "-h"])
    assert exc.value.code == 0
    assert "--data" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["constants"], ["extend", "--method", "standard"], ["optimize"]])
def test_an_index_range_beyond_the_float_range_is_one_error_line(tmp_path, capsys, argv):
    # Every value is finite, but shifting the minimum to 0 overflows.
    data = write(tmp_path, "big.csv", "id,x,index\na,0,1e308\nb,1,-1e308\nc,2,\n")
    code, out, err = run_cli(capsys, *argv, "--data", data, "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == (
        "error:data: the index range [-1e+308, 1e+308] exceeds the float range "
        "when shifted to minimum 0\n"
    )


@pytest.mark.parametrize("method", ["whitney", "mcshane"])
def test_an_overflowing_value_gap_is_one_error_line(tmp_path, capsys, method):
    # |I_a - I_b| overflows, so K is +inf, with no warning of the subtraction.
    data = write(tmp_path, "big.csv", "id,x,index\na,0,1e308\nb,1,-1e308\nc,2,\n")
    code, out, err = run_cli(capsys, "extend", "--method", method, "--data", data,
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == (
        "error:unfittable: coherence constant is infinite: a ratio |I_i - I_j| / d "
        "exceeds the float range\n"
    )


def test_every_model_carries_the_K_that_constants_reports(tmp_path, capsys):
    # K of the values as given, 459.99999999999926; the shifted values give
    # 459.99999999999807, which a standard model must not take.
    data = write(tmp_path, "shift.csv", SHIFT_ROUNDING_CSV)
    code, out, _ = run_cli(capsys, "constants", "--data", data)
    assert code == 0
    K = json.loads(out)["K"]
    for method in ("standard", "whitney"):
        out_dir = tmp_path / method
        code, _, _ = run_cli(capsys, "extend", "--method", method, "--data", data, "--out", str(out_dir))
        assert code == 0
        assert json.loads((out_dir / "model.json").read_text(encoding="utf-8"))["K"] == K


def test_bad_config_key_rejected(tmp_path, capsys):
    data = write(tmp_path, "two.csv", TWO_POINT_CSV)
    cfg = write(tmp_path, "cfg.json", '{"metirc": "euclidean"}')
    code, _, err = run_cli(capsys, "constants", "--data", data, "--config", cfg)
    assert code != 0
    assert err.startswith("error:config:")


@pytest.mark.parametrize(
    "command, config",
    [
        ("cv", '{"alpha": 1.5}'),
        ("extend", '{"alpha": 1.5}'),
        ("cv", '{"alpha": -0.1}'),
        ("cv", '{"alpha": true}'),
        ("cv", '{"repeats": "3"}'),
        ("cv", '{"repeats": true}'),
        ("cv", '{"train_fraction": null}'),
        ("cv", '{"seed": 1.5}'),
        ("extend", '{"out": 5}'),
        ("optimize", '{"pso": {"swarm_size": 4.5}}'),
        ("optimize", '{"pso": {"iterations": 2.5}}'),
        ("optimize", '{"pso": {"lambda_max": 1e400}}'),
        ("optimize", '{"pso": {"lambda_max": 10}}'),
        ("optimize", '{"pso": {"inertia": 0.5}}'),
        ("optimize", '{"pso": {"seed": 1}}'),
        ("optimize", '{"pso": [1]}'),
        ("optimize", '{"atoms": []}'),
        ("optimize", '{"atoms": 5}'),
        ("cv", "5"),
        ("cv", '{"honest_alpha": "false"}'),
        ("cv", '{"honest_alpha": 0}'),
        ("optimize", '{"objective": "test_rmse", "pso": {"objective": "kq_bound"}}'),
        ("constants", '{"phi": {"atoms": ["sqrt"], "coefficients": 1}}'),
        ("extend", '{"phi": {"atoms": ["sqrt"], "coefficients": null}}'),
        ("cv", '{"phi": {"atoms": [["sqrt"]], "coefficients": [1]}}'),
        ("rank", '{"phi": {"atoms": ["sqrt"], "coefficients": ["2"]}}'),
        ("constants", '{"phi": {"atoms": ["sqrt"], "coefficients": [true]}}'),
        ("constants", '{"phi": {"atoms": ["sqrt"], "coefficients": [1], "scale": 2}}'),
        ("constants", '{"phi": {"atoms": "sqrt", "coefficients": [1]}}'),
        ("constants", '{"phi": {"atoms": ["sqrt"]}}'),
        pytest.param("constants", '{"phi": {"atoms": ["sqrt"], "coefficients": [1%s]}}' % ("0" * 400),
                     id="constants-coefficient-beyond-float-range"),
        ("constants", '{"phi": "{\\"atoms\\": [\\"sqrt\\"], \\"coefficients\\": 1}"}'),
        ("constants", '{"phi": "[1]"}'),
        ("constants", '{"phi": "5"}'),
        ("constants", '{"phi": "\\"x\\""}'),
        ("constants", '{"phi": "null"}'),
        ("constants", '{"seed": -1}'),
        ("extend", '{"seed": -1}'),
        ("cv", '{"seed": -1}'),
        ("rank", '{"seed": -1}'),
        ("optimize", '{"seed": -1}'),
        ("optimize", '{"seed": -1, "objective": "test_rmse"}'),
        # Only a test-rmse search uses pso, but every command checks it.
        *[(command, '{"pso": %s}' % pso) for command in ("constants", "extend", "cv", "rank")
          for pso in ('"banana"', '{"swarm_size": 1}', '{"bogus": 3}')],
    ],
)
def test_bad_config_values_report_config(tmp_path, capsys, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "cfg.json", config)
    code, _, err = run_cli(capsys, command, "--data", str(table1_path()), "--config", cfg)
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()
    ]
    assert err.startswith("error:config:")


@pytest.mark.parametrize("text", ['[1]', '"x"', '{"atoms": "sqrt", "coefficients": [1]}', '{"atoms": ["sqrt"]}'])
def test_bad_phi_file_reports_config(tmp_path, capsys, text):
    phi = write(tmp_path, "phi.json", text)
    code, out, err = run_cli(capsys, "constants", "--data", str(table1_path()), "--phi", phi)
    assert code == 2 and out == ""
    assert err.startswith(f"error:config: bad phi file {phi}: ") and err.count("\n") == 1


@pytest.mark.parametrize("phi, category", [("banana", "io"), ("{bad", "config")])
@pytest.mark.parametrize("command", ["constants", "extend", "cv", "optimize", "rank"])
def test_every_command_rejects_a_bad_phi(tmp_path, capsys, monkeypatch, command, phi, category):
    # optimize searches phi itself, but a phi it is given must still parse:
    # "banana" names no file, and "{bad" opens an object that is not JSON.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, "--data", str(table1_path()), "--phi", phi,
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error:{category}:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_optimize_still_takes_phi_optimize(tmp_path, capsys):
    code, out, err = run_cli(capsys, "optimize", "--data", str(table1_path()), "--phi", "optimize",
                             "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert json.loads(out)["objective"] == "kq_bound"


def test_an_overflowing_ratio_is_not_reported_as_duplicates(tmp_path, capsys, monkeypatch):
    # 1e-320 times a scaled distance is subnormal, and every |I_i - I_j| over
    # it exceeds the float range, though no two rows of Table 1 coincide.
    monkeypatch.chdir(tmp_path)
    args = ("--data", str(table1_path()), "--phi", '{"atoms": ["identity"], "coefficients": [1e-320]}')
    code, out, err = run_cli(capsys, "constants", *args)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["K"], report["k_pair"]) == ("inf", [0, 1])
    assert report["notes"] == ["not coherent: rows (0, 1) have a ratio beyond the float range"]
    code, out, err = run_cli(capsys, "extend", *args)
    assert (code, out) == (2, "")
    assert err == (
        "error:unfittable: coherence constant is infinite: a ratio |I_i - I_j| / d "
        "exceeds the float range\n"
    )


def test_config_file_values_and_flag_override(tmp_path, capsys):
    cfg = write(
        tmp_path, "cfg.json",
        json.dumps({"method": "standard", "repeats": 3, "seed": 5}),
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "cv", "--data", str(table1_path()), "--config", cfg,
        "--out", str(out_dir), "--repeats", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "standard"  # from the file
    assert payload["repeats"] == 4  # flag wins


def test_commands_rerun_identically(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out_dir in (out1, out2):
        code, _, _ = run_cli(
            capsys, "rank", "--data", str(table1_path()), "--out", str(out_dir),
            "--seed", "7", "--method", "blend",
        )
        assert code == 0
    assert (out1 / "ranking.csv").read_bytes() == (out2 / "ranking.csv").read_bytes()
