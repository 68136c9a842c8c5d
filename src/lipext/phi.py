"""Modulus functions used to rescale a metric.

A modulus here is a function on [0, inf) that is subadditive, strictly
increasing, continuous and vanishes at zero.  Composing such a function with
a metric yields another metric, which is the whole point of this package.
The atom set is closed: only the eight named maps below are available, so
every non-negative linear combination of them is a valid modulus by
construction and no symbolic analysis is ever needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Probe domain and slack for the numeric validator.  Features are min-max
# scaled in practice, so distances live in [0, sqrt(m)]; the wide range
# guards against misuse with unscaled data.
PROBE_X_MAX = 1e3
PROBE_EPS = 1e-9


def _rational(x):
    return x / (1.0 + x)


def _sqrt_log1p(x):
    return np.log1p(np.sqrt(x))


def _sqrt_arctan(x):
    return np.arctan(np.sqrt(x))


def _sqrt_rational(x):
    r = np.sqrt(x)
    return r / (1.0 + r)


#: The closed atom set.  The last four are the first four pre-composed
#: with a square root, which is itself an admissible modulus.
ATOM_FUNCS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda x: +x,
    "sqrt": np.sqrt,
    "log1p": np.log1p,
    "arctan": np.arctan,
    "rational": _rational,
    "sqrt_log1p": _sqrt_log1p,
    "sqrt_arctan": _sqrt_arctan,
    "sqrt_rational": _sqrt_rational,
}

ATOM_NAMES: tuple[str, ...] = tuple(ATOM_FUNCS)

#: Four-atom families for coefficient search: the plain maps, and the same
#: maps applied to sqrt(x).
LINEAR_BASIS: tuple[str, ...] = ("identity", "log1p", "arctan", "rational")
SQRT_BASIS: tuple[str, ...] = ("sqrt", "sqrt_log1p", "sqrt_arctan", "sqrt_rational")


@dataclass(frozen=True)
class PhiCombination:
    """A non-negative linear combination of modulus atoms.

    Coefficients must be non-negative with at least one strictly positive;
    the zero function is not strictly increasing and would degenerate the
    composed metric.  Instances are immutable and safe to share.
    """

    atoms: tuple[str, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "coefficients", coeffs)
        if len(atoms) == 0:
            raise ValueError("at least one atom is required")
        if len(atoms) != len(coeffs):
            raise ValueError(
                f"{len(atoms)} atoms but {len(coeffs)} coefficients"
            )
        unknown = [a for a in atoms if a not in ATOM_FUNCS]
        if unknown:
            raise ValueError(f"unknown atoms {unknown}; choose from {ATOM_NAMES}")
        if any(not np.isfinite(c) or c < 0.0 for c in coeffs):
            raise ValueError("coefficients must be finite and >= 0")
        if all(c == 0.0 for c in coeffs):
            raise ValueError("all-zero coefficients give a constant map")

    def scaled(self, c: float) -> "PhiCombination":
        return PhiCombination(self.atoms, tuple(c * v for v in self.coefficients))

    def to_json_dict(self) -> dict:
        return {"atoms": list(self.atoms), "coefficients": list(self.coefficients)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhiCombination":
        return cls(tuple(d["atoms"]), tuple(d["coefficients"]))

    @classmethod
    def from_json(cls, text: str) -> "PhiCombination":
        return cls.from_json_dict(json.loads(text))


def identity_phi() -> PhiCombination:
    """The combination that leaves the base metric untouched."""
    return PhiCombination(("identity",), (1.0,))


def phi_eval(phi: PhiCombination, x):
    """Evaluate ``sum_j lambda_j * atom_j(x)`` elementwise.

    Accepts scalars or arrays; negative input is a domain error.  The value
    at 0 is exactly 0 because every atom vanishes there.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("modulus functions are defined on [0, inf) only")
    out = np.zeros_like(arr)
    for name, lam in zip(phi.atoms, phi.coefficients):
        out += lam * ATOM_FUNCS[name](arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing a candidate modulus with random pairs."""

    passed: bool
    probes: int
    failed_axiom: str | None = None  # "subadditivity" | "monotonicity"
    counterexample: tuple[float, float] | None = None

    def __bool__(self) -> bool:
        return self.passed


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
    Returns the first failing pair in draw order, if any.  This is the raw
    hook: it takes any callable, so deliberately broken functions can be
    probed in tests.
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
    distinct = lo < hi
    bad = distinct & ~(fn(lo) < fn(hi))
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
