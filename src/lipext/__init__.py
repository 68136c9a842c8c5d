"""Lipschitz index extension over modulus-composed metrics.

Given a finite set of feature vectors where an index value is known only on
a subset, this package extends the index to the remaining points by
Lipschitz regression, after optionally reshaping the base metric with a
subadditive strictly increasing modulus: the one that minimizes the error
bound's K*Q exactly, or one chosen by particle swarm search.
"""

from .constants import (
    ConstantsReport,
    IndexedSample,
    coherence_constant,
    constants_report,
    error_bound,
    index_bound,
    katetov_shift,
)
from .extension import (
    ExtensionModel,
    FitError,
    fit_extension,
    linear_fit,
    optimal_alpha,
    predict,
)
from .metrics import BASE_METRICS, CompositionMetric
from .phi import (
    ATOM_NAMES,
    LINEAR_BASIS,
    SQRT_BASIS,
    PhiCombination,
    identity_phi,
    phi_eval,
)
from .pipeline import (
    CvReport,
    Dataset,
    cross_validate,
    fit_for_extend,
    minmax_scale,
    rank,
    rmse,
    split,
)
from .swarm import PsoConfig, SwarmResult, minimize_kq, objective_kq, pso_minimize

__version__ = "0.1.0"

__all__ = [
    "ATOM_NAMES",
    "BASE_METRICS",
    "LINEAR_BASIS",
    "SQRT_BASIS",
    "CompositionMetric",
    "ConstantsReport",
    "CvReport",
    "Dataset",
    "ExtensionModel",
    "FitError",
    "IndexedSample",
    "PhiCombination",
    "PsoConfig",
    "SwarmResult",
    "coherence_constant",
    "constants_report",
    "cross_validate",
    "error_bound",
    "fit_extension",
    "fit_for_extend",
    "identity_phi",
    "index_bound",
    "katetov_shift",
    "linear_fit",
    "minimize_kq",
    "minmax_scale",
    "objective_kq",
    "optimal_alpha",
    "phi_eval",
    "predict",
    "pso_minimize",
    "rank",
    "rmse",
    "split",
]
