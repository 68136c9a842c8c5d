"""Test-only helpers built on numpy and the package under test.

``oracles`` holds the independent plain-Python references; this module holds
what the tests need beyond them: a numeric probe of the modulus axioms,
random and rescaled coefficient combinations, and single-pair distances
taken from ``pairwise``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from lipext.phi import ATOM_NAMES, PhiCombination, phi_eval

# Probe domain and slack.  Features are min-max scaled in practice, so
# distances live in [0, sqrt(m)]; the wide range also covers unscaled data.
PROBE_X_MAX = 1e3
PROBE_EPS = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing a candidate modulus with random pairs."""

    passed: bool
    probes: int
    failed_axiom: str | None = None  # "subadditivity" | "monotonicity"
    counterexample: tuple[float, float] | None = None


def validate_modulus(
    fn: Callable[[np.ndarray], np.ndarray],
    probe_count: int,
    seed: int,
    x_max: float = PROBE_X_MAX,
    eps: float = PROBE_EPS,
) -> ValidationReport:
    """Numerically probe subadditivity and strict monotonicity of ``fn``.

    Draws ``probe_count`` pairs (x, y) uniformly from [0, x_max]^2 and checks
    fn(x + y) <= fn(x) + fn(y) + eps, plus fn(lo) < fn(hi) for lo < hi.
    Returns the first failing pair in draw order, if any.  It takes any
    callable, so deliberately broken functions can be probed too.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(0.0, x_max, size=(probe_count, 2))
    x, y = pairs[:, 0], pairs[:, 1]

    bad = fn(x + y) > fn(x) + fn(y) + eps
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return ValidationReport(False, probe_count, "subadditivity", (x[k], y[k]))

    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    bad = (lo < hi) & ~(fn(lo) < fn(hi))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return ValidationReport(False, probe_count, "monotonicity", (lo[k], hi[k]))

    return ValidationReport(True, probe_count)


def validate_phi(phi: PhiCombination, probe_count: int = 10_000, seed: int = 0) -> ValidationReport:
    """Probe a combination against the modulus axioms."""
    return validate_modulus(lambda v: phi_eval(phi, v), probe_count, seed)


def random_combination(
    rng: np.random.Generator,
    atoms: Iterable[str] = ATOM_NAMES,
    coeff_max: float = 10.0,
) -> PhiCombination:
    """Draw a random combination with coefficients in [0, coeff_max].

    Redraws until at least one coefficient is positive (all-zero draws are
    rejected at construction).
    """
    atoms = tuple(atoms)
    while True:
        coeffs = rng.uniform(0.0, coeff_max, size=len(atoms))
        if np.any(coeffs > 0.0):
            return PhiCombination(atoms, tuple(coeffs))


def scaled(phi: PhiCombination, c: float) -> PhiCombination:
    """``phi`` with every coefficient multiplied by ``c``."""
    return PhiCombination(phi.atoms, tuple(c * v for v in phi.coefficients))


def distance(cm, a, b) -> float:
    """Composed distance between two points: the one entry of ``pairwise``."""
    return float(cm.pairwise([a], [b])[0, 0])
