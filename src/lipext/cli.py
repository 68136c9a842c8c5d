"""Command-line front end.

Five subcommands cover the user workflows:

* ``constants`` -- coherence/normalization constants of the indexed rows.
* ``extend``    -- fit on all indexed rows, predict all unindexed rows.
* ``cv``        -- repeated train/test evaluation of one method.
* ``optimize``  -- search for modulus coefficients: exact for the K*Q
  bound, by particle swarm for held-out RMSE.
* ``rank``      -- extend, then order the unindexed rows by prediction.

Every command reads one dataset CSV plus an optional JSON config; flags
override config values.  Outputs are CSV/JSON files written atomically.
On failure the process exits nonzero after printing a single line of the
form ``error:<category>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .constants import constants_report, katetov_shift
from .dataio import (
    CsvParseError,
    dataset_hash,
    read_dataset,
    write_csv,
    write_json,
)
from .extension import METHODS, ExtensionModel, FitError, predict
from .metrics import BASE_METRICS, CompositionMetric
from .phi import ATOM_NAMES, LINEAR_BASIS, PhiCombination, identity_phi
from .pipeline import (
    Dataset,
    apply_scaling,
    cross_validate,
    fit_for_extend,
    minmax_scale,
    objective_test_rmse,
    rank,
)
from .swarm import PsoConfig, identity_lambda, minimize_kq, pso_minimize

DEFAULT_ATOMS = LINEAR_BASIS

#: Environment variable with the number of threads for ``cv`` repeats.
THREADS_ENV_VAR = "LIPEXT_THREADS"


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


@dataclass
class RunConfig:
    """Run settings; every field has a default and a JSON config key."""

    metric: str = "euclidean"
    phi: object = None  # None -> identity, "optimize", or {"atoms":..,"coefficients":..}
    atoms: tuple[str, ...] = DEFAULT_ATOMS  # basis for phi optimization
    method: str = "blend"
    alpha: float | None = None
    train_fraction: float = 0.7
    repeats: int = 20
    seed: int = 0
    objective: str = "kq_bound"
    scale_on: str = "all"
    honest_alpha: bool = False
    split: str = "random"
    out: str | None = None
    pso: dict = field(default_factory=dict)


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError("io", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise CliError("config", f"{path} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise CliError("config", f"unknown config keys {sorted(unknown)}")
    if "atoms" in raw:
        if not isinstance(raw["atoms"], list):
            raise CliError("config", "atoms must be a list of atom names")
        raw["atoms"] = tuple(raw["atoms"])
    return replace(cfg, **raw)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for flag, key in (
        ("method", "method"),
        ("metric", "metric"),
        ("seed", "seed"),
        ("repeats", "repeats"),
        ("train_fraction", "train_fraction"),
        ("out", "out"),
        ("phi", "phi"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            updates[key] = val
    if getattr(args, "objective", None) is not None:
        updates["objective"] = args.objective.replace("-", "_")
    cfg = replace(cfg, **updates)
    _check_config(cfg)
    return cfg


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A finite JSON number; bools are not numbers here."""
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _check_config(cfg: RunConfig) -> None:
    if cfg.metric not in BASE_METRICS:
        raise CliError("config", f"metric must be one of {BASE_METRICS}")
    if cfg.method not in METHODS:
        raise CliError("config", f"method must be one of {METHODS}")
    if cfg.objective not in ("kq_bound", "test_rmse"):
        raise CliError("config", "objective must be kq-bound or test-rmse")
    if not (_is_real(cfg.train_fraction) and 0.0 < cfg.train_fraction < 1.0):
        raise CliError("config", "train-fraction must lie strictly between 0 and 1")
    if not (_is_int(cfg.repeats) and cfg.repeats >= 1):
        raise CliError("config", "repeats must be an integer >= 1")
    if not _is_int(cfg.seed):
        raise CliError("config", "seed must be an integer")
    if cfg.alpha is not None and not (_is_real(cfg.alpha) and 0.0 <= cfg.alpha <= 1.0):
        raise CliError("config", "alpha must be null or a number in [0, 1]")
    if cfg.scale_on not in ("all", "indexed"):
        raise CliError("config", "scale_on must be 'all' or 'indexed'")
    if cfg.split not in ("random", "ordered"):
        raise CliError("config", "split must be 'random' or 'ordered'")
    if not isinstance(cfg.honest_alpha, bool):
        raise CliError("config", "honest_alpha must be true or false")
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise CliError("config", "out must be a directory path")
    if not cfg.atoms:
        raise CliError("config", "atoms must name at least one atom")
    bad = [a for a in cfg.atoms if a not in ATOM_NAMES]
    if bad:
        raise CliError("config", f"unknown atoms {bad}; choose from {ATOM_NAMES}")


def _pso_config(cfg: RunConfig) -> PsoConfig:
    if not isinstance(cfg.pso, dict):
        raise CliError("config", "pso must be an object")
    opts = dict(cfg.pso)
    opts.setdefault("seed", cfg.seed)
    for key in ("swarm_size", "iterations", "seed"):
        if key in opts and not _is_int(opts[key]):
            raise CliError("config", f"bad pso settings: {key} must be an integer")
    for key in ("inertia", "cognitive", "social", "lambda_max"):
        if key in opts and not _is_real(opts[key]):
            raise CliError("config", f"bad pso settings: {key} must be a finite number")
    try:
        return PsoConfig(**opts)
    except (TypeError, ValueError) as exc:
        raise CliError("config", f"bad pso settings: {exc}")


def _parse_phi_value(value: object) -> PhiCombination:
    if value is None:
        return identity_phi()
    if isinstance(value, dict):
        try:
            return PhiCombination.from_json_dict(value)
        except (KeyError, ValueError) as exc:
            raise CliError("config", f"bad phi specification: {exc}")
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("{"):
            try:
                return PhiCombination.from_json(text)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise CliError("config", f"bad phi JSON: {exc}")
        try:
            return PhiCombination.from_json(Path(text).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CliError("io", f"phi file not found: {text}")
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CliError("config", f"bad phi file {text}: {exc}")
    raise CliError("config", f"cannot interpret phi value {value!r}")


def _resolve_phi(cfg: RunConfig, scaled: Dataset) -> PhiCombination:
    """Turn the configured phi into a concrete combination.

    ``"optimize"`` runs the coefficient search on the indexed rows first and
    uses the winning coefficients.
    """
    if cfg.phi == "optimize":
        result = _run_optimize(cfg, scaled)
        return PhiCombination(cfg.atoms, tuple(result["best_phi"]["coefficients"]))
    return _parse_phi_value(cfg.phi)


def _scaled_dataset(cfg: RunConfig, data_path: str) -> Dataset:
    return minmax_scale(read_dataset(data_path), fit_on=cfg.scale_on)


def _run_optimize(cfg: RunConfig, scaled: Dataset) -> dict:
    indexed = scaled.indexed_rows()
    if indexed.n_rows < 2:
        raise CliError("data", "optimize needs at least two indexed rows")
    atoms = cfg.atoms
    if cfg.objective == "kq_bound":
        _pso_config(cfg)  # checked on every run, though only test-rmse searches
        sample = katetov_shift(indexed.as_sample())
        lam, best, identity_objective = minimize_kq(sample, cfg.metric, atoms)
        search = {}
    else:
        objective = objective_test_rmse(indexed, cfg.metric, atoms, cfg.train_fraction, cfg.seed)
        result = pso_minimize(objective, len(atoms), _pso_config(cfg))
        lam, best = result.best_lambda, result.best_objective
        identity_objective = objective(identity_lambda(len(atoms)))
        search = {"swarm": result.to_json_dict()}
    return {
        "objective": cfg.objective,
        "identity_objective": identity_objective,
        "best_objective": best,
        "best_phi": PhiCombination(atoms, tuple(float(v) for v in lam)).to_json_dict(),
        **search,
    }


# ---------------------------------------------------------------------------
# model file round trip


def model_to_json_dict(
    model: ExtensionModel, raw_hash: str, scaled: Dataset, ids: list[str]
) -> dict:
    scaling = {"min": [], "max": []}
    if scaled.scaling is not None:
        scaling = {
            "min": [float(v) for v in scaled.scaling[0]],
            "max": [float(v) for v in scaled.scaling[1]],
        }
    shared = {
        "method": model.method,
        "training_hash": raw_hash,
        "feature_names": list(scaled.feature_names),
        "scaling": scaling,
    }
    if model.method == "linear":
        return dict(shared, coefficients=[float(c) for c in model.coefficients])
    anchor_id = ids[model.anchor] if model.anchor is not None else None
    return dict(
        shared,
        alpha=model.alpha,
        anchor_id=anchor_id,
        K=model.K,
        offset=model.offset,
        phi=model.cm.phi.to_json_dict(),
        metric=model.cm.base,
    )


def rebuild_model(model_dict: dict, ds_raw: Dataset) -> tuple[ExtensionModel, Dataset]:
    """Reconstruct a fitted model against the same dataset it was fit on.

    The stored hash guards against silently predicting from different data.
    Nothing is refit: K, alpha and the anchor come from the file, so
    predictions are bit-identical to the original run.
    """
    if dataset_hash(ds_raw) != model_dict["training_hash"]:
        raise CliError("data", "dataset does not match the model's training hash")
    scaling = (
        np.array(model_dict["scaling"]["min"], dtype=float),
        np.array(model_dict["scaling"]["max"], dtype=float),
    )
    scaled = Dataset(
        list(ds_raw.ids),
        apply_scaling(ds_raw.features, scaling),
        ds_raw.index.copy(),
        list(ds_raw.feature_names),
        scaling=scaling,
    )
    indexed = scaled.indexed_rows()
    if model_dict["method"] == "linear":
        coeffs = np.array(model_dict["coefficients"], dtype=float)
        model = ExtensionModel(
            indexed.as_sample(), CompositionMetric(), None, "linear", coefficients=coeffs
        )
        return model, scaled
    cm = CompositionMetric(
        model_dict["metric"], PhiCombination.from_json_dict(model_dict["phi"])
    )
    anchor = None
    if model_dict["anchor_id"] is not None:
        anchor = indexed.ids.index(model_dict["anchor_id"])
    model = ExtensionModel(
        training=indexed.as_sample(),
        cm=cm,
        K=float(model_dict["K"]),
        method=model_dict["method"],
        alpha=model_dict["alpha"],
        anchor=anchor,
        offset=float(model_dict["offset"]),
    )
    return model, scaled


# ---------------------------------------------------------------------------
# commands


def _extend(cfg: RunConfig, data_path: str) -> tuple[Dataset, np.ndarray, dict]:
    ds_raw = read_dataset(data_path)
    raw_hash = dataset_hash(ds_raw)
    scaled = minmax_scale(ds_raw, fit_on=cfg.scale_on)
    phi = _resolve_phi(cfg, scaled)
    cm = CompositionMetric(cfg.metric, phi)
    indexed = scaled.indexed_rows()
    targets = scaled.unindexed_rows()
    if indexed.n_rows < 2:
        raise CliError("data", "extension needs at least two indexed rows")

    model = fit_for_extend(
        indexed, cm, cfg.method, cfg.alpha, cfg.train_fraction, cfg.seed, cfg.split
    )
    preds = predict(model, targets.features) if targets.n_rows else np.empty(0)
    model_dict = model_to_json_dict(model, raw_hash, scaled, indexed.ids)
    if targets.n_rows == 0:
        warnings.warn("no unindexed rows: nothing to predict", stacklevel=2)
    return scaled, preds, model_dict


def cmd_constants(cfg: RunConfig, args) -> int:
    scaled = _scaled_dataset(cfg, args.data)
    indexed = scaled.indexed_rows()
    if indexed.n_rows < 2:
        raise CliError("data", "constants need at least two indexed rows")
    cm = CompositionMetric(cfg.metric, _resolve_phi(cfg, scaled))
    report = constants_report(indexed.as_sample(), cm)
    payload = report.to_json_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if cfg.out:
        write_json(Path(cfg.out) / "constants.json", payload)
    return 0


def cmd_extend(cfg: RunConfig, args) -> int:
    scaled, preds, model_dict = _extend(cfg, args.data)
    ids = scaled.unindexed_rows().ids
    out = Path(cfg.out or ".")
    write_csv(out / "predictions.csv", ["id", "predicted_index"],
              list(zip(ids, [float(p) for p in preds])))
    write_json(out / "model.json", model_dict)
    for cid, p in zip(ids, preds):
        print(f"{cid},{float(p)!r}")
    return 0


def _thread_count() -> int | None:
    """Threads for ``cv`` repeats from the environment; values below 1 mean 1."""
    threads = os.environ.get(THREADS_ENV_VAR)
    if not threads:
        return None
    try:
        return max(1, int(threads))
    except ValueError:
        raise CliError(
            "config", f"{THREADS_ENV_VAR} must be an integer, got {threads!r}"
        ) from None


def cmd_cv(cfg: RunConfig, args) -> int:
    workers = _thread_count()
    scaled = _scaled_dataset(cfg, args.data)
    cm = CompositionMetric(cfg.metric, _resolve_phi(cfg, scaled))
    report = cross_validate(
        scaled,
        cfg.method,
        cm,
        repeats=cfg.repeats,
        seed=cfg.seed,
        train_fraction=cfg.train_fraction,
        alpha=cfg.alpha,
        honest_alpha=cfg.honest_alpha,
        split_method=cfg.split,
        workers=workers,
    )
    payload = report.to_json_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if cfg.out:
        write_json(Path(cfg.out) / "cv_report.json", payload)
        write_csv(Path(cfg.out) / "cv_repeats.csv", ["repeat", "rmse"],
                  list(enumerate(report.per_repeat_rmse, start=1)))
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    scaled = _scaled_dataset(cfg, args.data)
    result = _run_optimize(cfg, scaled)
    enc = lambda v: "inf" if isinstance(v, float) and math.isinf(v) else v
    payload = dict(result, identity_objective=enc(result["identity_objective"]),
                   best_objective=enc(result["best_objective"]))
    print(json.dumps(payload, indent=2, sort_keys=True))
    if cfg.out:
        write_json(Path(cfg.out) / "best_phi.json", result["best_phi"])
        write_json(Path(cfg.out) / "swarm_result.json", payload)
    return 0


def cmd_rank(cfg: RunConfig, args) -> int:
    scaled, preds, _ = _extend(cfg, args.data)
    if scaled.unindexed_rows().n_rows == 0:
        raise CliError("data", "ranking needs at least one unindexed row")
    rows = [(r, cid, val, cfg.method) for r, cid, val in rank(scaled, preds)]
    out = Path(cfg.out or ".")
    write_csv(out / "ranking.csv", ["rank", "id", "predicted_index", "method"], rows)
    for row in rows:
        print(f"{row[0]},{row[1]},{row[2]!r},{row[3]}")
    return 0


COMMANDS = {
    "constants": cmd_constants,
    "extend": cmd_extend,
    "cv": cmd_cv,
    "optimize": cmd_optimize,
    "rank": cmd_rank,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipext",
        description="Extend a partially known index over a dataset by "
        "Lipschitz regression under a composed metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "report coherence/normalization constants and the error bound"),
        ("extend", "predict the index for all unindexed rows"),
        ("cv", "repeated train/test evaluation of one method"),
        ("optimize", "search modulus coefficients (exact K*Q, or PSO for test-rmse)"),
        ("rank", "extend and rank the unindexed rows"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--method", choices=METHODS, default=None)
        p.add_argument("--phi", default=None,
                       help="'optimize', inline JSON, or a JSON file path")
        p.add_argument("--metric", choices=BASE_METRICS, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--repeats", type=int, default=None)
        p.add_argument("--train-fraction", type=float, default=None,
                       dest="train_fraction")
        p.add_argument("--objective", choices=["kq-bound", "test-rmse"], default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _apply_overrides(load_config(args.config), args)
    return COMMANDS[args.command](cfg, args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2
    except CsvParseError as exc:
        print(f"error:parse: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"error:unfittable: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
