"""Command-line front end.

Five subcommands cover the user workflows:

* ``constants`` -- coherence/normalization constants of the indexed rows.
* ``extend``    -- fit on all indexed rows, predict all unindexed rows.
* ``cv``        -- repeated train/test evaluation of one method.
* ``optimize``  -- search for modulus coefficients: exact for the K*Q
  bound, by particle swarm for held-out RMSE.
* ``rank``      -- extend, then order the unindexed rows by prediction.

Every command reads one dataset CSV plus an optional JSON config; flags
override config values.  The ``Dataset`` stops here: a command fits on
``scaled.as_sample()``, made once, takes ids and target features from
``scaled.indexed_mask``, and rejects a modulus whose composed distances
may pass the float range (``_resolve_phi``).  Outputs are CSV/JSON files
written atomically.
On failure the process exits nonzero after printing a single line of the
form ``error:<category>: <message>`` to stderr.  A warning is printed as one
``warning: <message>`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .constants import IndexedSample, constants_report
from .dataio import (
    CsvParseError,
    dataset_hash,
    json_text,
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
from .swarm import PsoConfig, minimize_kq, pso_minimize, settle

DEFAULT_ATOMS = LINEAR_BASIS


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class _Parser(argparse.ArgumentParser):
    """An argument parser whose flag errors are ``CliError``s; the
    subcommand parsers are made of the same class."""

    def error(self, message):
        raise CliError("config", message)


@dataclass
class RunConfig:
    """Run settings; every field has a default and a JSON config key."""

    metric: str = "euclidean"
    phi: object = None  # flag or file value; after _apply_overrides a PhiCombination or "optimize"
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    flags = ("method", "metric", "seed", "repeats", "train_fraction", "out", "phi", "objective")
    cfg = replace(cfg, **{k: getattr(args, k) for k in flags if getattr(args, k, None) is not None})
    if isinstance(cfg.objective, str):  # kq-bound or kq_bound, from a flag or the file
        cfg = replace(cfg, objective=cfg.objective.replace("-", "_"))
    _check_config(cfg)
    # Parsed here, once, so that every command rejects a bad phi alike.
    return cfg if cfg.phi == "optimize" else replace(cfg, phi=_parse_phi_value(cfg.phi))


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
    if not (_is_int(cfg.seed) and cfg.seed >= 0):
        raise CliError("config", "seed must be an integer >= 0")
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
    _pso_config(cfg)


def _pso_config(cfg: RunConfig) -> PsoConfig:
    """The swarm settings: ``pso`` sizes the swarm, the run seed seeds it."""
    if not isinstance(cfg.pso, dict):
        raise CliError("config", "pso must be an object")
    for key, value in cfg.pso.items():
        if key not in ("swarm_size", "iterations"):
            raise CliError("config", f"unknown pso key {key!r}; pso takes swarm_size and iterations")
        if not _is_int(value):
            raise CliError("config", f"bad pso settings: {key} must be an integer")
    try:
        return PsoConfig(**cfg.pso, seed=cfg.seed)
    except ValueError as exc:
        raise CliError("config", f"bad pso settings: {exc}")


def _parse_phi_value(value: object) -> PhiCombination:
    if value is None:
        return identity_phi()
    if isinstance(value, dict):
        try:
            return PhiCombination.from_json_dict(value)
        except ValueError as exc:
            raise CliError("config", f"bad phi specification: {exc}")
    if isinstance(value, str):
        text = value.strip()
        try:  # inline if it parses as JSON or opens an object, else a file path
            return PhiCombination.from_json(text)
        except ValueError as exc:  # json.JSONDecodeError is one
            if text.startswith("{") or not isinstance(exc, json.JSONDecodeError):
                raise CliError("config", f"bad phi JSON: {exc}")
        try:
            return PhiCombination.from_json(Path(text).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CliError("io", f"phi file not found: {text}")
        except ValueError as exc:
            raise CliError("config", f"bad phi file {text}: {exc}")
    raise CliError("config", f"cannot interpret phi value {value!r}")


def _resolve_phi(cfg: RunConfig, scaled: Dataset, sample: IndexedSample) -> PhiCombination:
    """The configured phi, searched for on ``sample`` when ``"optimize"``.
    Base metrics grow with each coordinate gap and atoms are increasing, so
    the composed distance from the column minima to the column maxima of
    the scaled rows bounds every pair's: when it is not finite, the data
    raise ``CliError`` before any distance is used."""
    phi = _run_optimize(cfg, sample)["best_phi"] if cfg.phi == "optimize" else cfg.phi
    X = scaled.features
    with np.errstate(all="ignore"):
        corner = CompositionMetric(cfg.metric, phi).pairwise(X.min(axis=0), X.max(axis=0))[0, 0]
    if not math.isfinite(corner):
        raise CliError("data", "composed distances may exceed the float range: the distance "
                       f"from the column minima to the column maxima is {corner}")
    return phi


def _load(cfg: RunConfig, args, hashed: bool = False) -> tuple[Dataset, str | None]:
    """The scaled dataset of ``--data`` and, when ``hashed``, the
    ``dataset_hash`` of the raw one, which no command keeps; every command
    needs at least two indexed rows, checked before scaling."""
    raw = read_dataset(args.data)
    if np.count_nonzero(raw.indexed_mask) < 2:
        raise CliError("data", f"{args.command} needs at least two indexed rows")
    return minmax_scale(raw, fit_on=cfg.scale_on), dataset_hash(raw) if hashed else None


def _run_optimize(cfg: RunConfig, sample: IndexedSample) -> dict:
    atoms = cfg.atoms
    if cfg.objective == "kq_bound":
        lam, best, identity_objective = minimize_kq(sample, cfg.metric, atoms)
        search = {}
    else:
        objective = objective_test_rmse(sample, cfg.metric, atoms, cfg.train_fraction, cfg.seed)
        result = pso_minimize(objective, len(atoms), _pso_config(cfg))
        lam, best, identity_objective = settle(objective, result.best_lambda)
        search = {"swarm": result}
    return {
        "objective": cfg.objective,
        "identity_objective": identity_objective,
        "best_objective": best,
        "best_phi": PhiCombination(atoms, lam),
        **search,
    }


# ---------------------------------------------------------------------------
# model file round trip


def model_payload(model: ExtensionModel, raw_hash: str, scaled: Dataset, ids: list[str]) -> dict:
    """The content of ``model.json``, for ``write_json``."""
    shared = {
        "method": model.method,
        "training_hash": raw_hash,
        "feature_names": scaled.feature_names,
        "scaling": {"min": scaled.scaling[0], "max": scaled.scaling[1]},
    }
    if model.method == "linear":
        return dict(shared, coefficients=model.coefficients)
    anchor_id = ids[model.anchor] if model.anchor is not None else None
    return dict(
        shared,
        alpha=model.alpha,
        anchor_id=anchor_id,
        K=model.K,
        offset=model.offset,
        phi=model.cm.phi,
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
    scaled = apply_scaling(ds_raw, (
        np.array(model_dict["scaling"]["min"], dtype=float),
        np.array(model_dict["scaling"]["max"], dtype=float),
    ))
    training = scaled.as_sample()
    if model_dict["method"] == "linear":
        coeffs = np.array(model_dict["coefficients"], dtype=float)
        model = ExtensionModel(training, CompositionMetric(), None, "linear", coefficients=coeffs)
        return model, scaled
    anchor_id, phi = model_dict["anchor_id"], PhiCombination.from_json_dict(model_dict["phi"])
    model = ExtensionModel(
        training=training,
        cm=CompositionMetric(model_dict["metric"], phi),
        K=float(model_dict["K"]),
        method=model_dict["method"],
        alpha=model_dict["alpha"],
        anchor=None if anchor_id is None else _ids(scaled, True).index(anchor_id),
        offset=float(model_dict["offset"]),
    )
    return model, scaled


# ---------------------------------------------------------------------------
# commands


def _ids(scaled: Dataset, indexed: bool) -> list[str]:
    """The ids of the indexed rows, or of the unindexed rows, in file order."""
    return [cid for cid, known in zip(scaled.ids, scaled.indexed_mask.tolist()) if known == indexed]


def _extend(cfg: RunConfig, scaled: Dataset) -> tuple[np.ndarray, ExtensionModel, list[str], list[str]]:
    """(predictions at the unindexed rows, the model fitted on the indexed
    rows, the ids of the indexed rows, the ids of the unindexed rows)."""
    sample = scaled.as_sample()
    cm = CompositionMetric(cfg.metric, _resolve_phi(cfg, scaled, sample))
    model = fit_for_extend(
        sample, cm, cfg.method, cfg.alpha, cfg.train_fraction, cfg.seed, cfg.split
    )
    targets = scaled.features[~scaled.indexed_mask]
    preds = predict(model, targets) if len(targets) else np.empty(0)
    if len(targets) == 0:
        warnings.warn("no unindexed rows: nothing to predict", stacklevel=2)
    return preds, model, _ids(scaled, True), _ids(scaled, False)


def cmd_constants(cfg: RunConfig, args) -> int:
    scaled, _ = _load(cfg, args)
    sample = scaled.as_sample()
    cm = CompositionMetric(cfg.metric, _resolve_phi(cfg, scaled, sample))
    report = constants_report(sample, cm)
    print(json_text(report), end="")
    if cfg.out:
        write_json(Path(cfg.out) / "constants.json", report)
    return 0


def cmd_extend(cfg: RunConfig, args) -> int:
    scaled, raw_hash = _load(cfg, args, hashed=True)
    preds, model, indexed_ids, target_ids = _extend(cfg, scaled)
    out = Path(cfg.out or ".")
    write_csv(out / "predictions.csv", ["id", "predicted_index"], list(zip(target_ids, preds)),
              echo=sys.stdout)
    write_json(out / "model.json", model_payload(model, raw_hash, scaled, indexed_ids))
    return 0


def cmd_cv(cfg: RunConfig, args) -> int:
    scaled, _ = _load(cfg, args)
    sample = scaled.as_sample()
    cm = CompositionMetric(cfg.metric, _resolve_phi(cfg, scaled, sample))
    report = cross_validate(
        sample,
        cfg.method,
        cm,
        repeats=cfg.repeats,
        seed=cfg.seed,
        train_fraction=cfg.train_fraction,
        alpha=cfg.alpha,
        honest_alpha=cfg.honest_alpha,
        split_method=cfg.split,
    )
    print(json_text(report), end="")
    if cfg.out:
        write_json(Path(cfg.out) / "cv_report.json", report)
        write_csv(Path(cfg.out) / "cv_repeats.csv", ["repeat", "rmse"],
                  list(enumerate(report.per_repeat_rmse, start=1)))
    return 0


def cmd_optimize(cfg: RunConfig, args) -> int:
    scaled, _ = _load(cfg, args)
    result = _run_optimize(cfg, scaled.as_sample())
    print(json_text(result), end="")
    if cfg.out:
        write_json(Path(cfg.out) / "best_phi.json", result["best_phi"])
        write_json(Path(cfg.out) / "swarm_result.json", result)
    return 0


def cmd_rank(cfg: RunConfig, args) -> int:
    scaled, _ = _load(cfg, args)
    if scaled.indexed_mask.all():
        raise CliError("data", "ranking needs at least one unindexed row")
    preds = _extend(cfg, scaled)[0]
    rows = [(r, cid, val, cfg.method) for r, cid, val in rank(scaled, preds)]
    write_csv(Path(cfg.out or ".") / "ranking.csv", ["rank", "id", "predicted_index", "method"],
              rows, echo=sys.stdout)
    return 0


COMMANDS = {
    "constants": cmd_constants,
    "extend": cmd_extend,
    "cv": cmd_cv,
    "optimize": cmd_optimize,
    "rank": cmd_rank,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--objective", default=None, metavar="{kq-bound,test-rmse}",
                       help="either spelling, kq-bound or kq_bound, is accepted")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _apply_overrides(load_config(args.config), args)
    return COMMANDS[args.command](cfg, args)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    # Only the printed form changes: recording warnings still sees them all.
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
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
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
