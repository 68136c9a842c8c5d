"""Modulus functions used to rescale a metric.

A modulus here is a function on [0, inf) that is subadditive, strictly
increasing, continuous and vanishes at zero.  Composing such a function with
a metric yields another metric, which is the whole point of this package.
The atom set is closed: only the eight named maps below are available, each
of them a modulus, so every non-negative linear combination of them with a
positive coefficient is a modulus by construction.  Nothing is checked
numerically at run time; the package's tests probe the axioms instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

def _identity(x, out=None):
    return x


def _rational(x, out=None):
    return np.divide(x, np.add(1.0, x, out=out), out=out)


def _sqrt_log1p(x, out=None):
    return np.log1p(np.sqrt(x, out=out), out=out)


def _sqrt_arctan(x, out=None):
    return np.arctan(np.sqrt(x, out=out), out=out)


def _sqrt_rational(x, out=None):
    r = np.sqrt(x, out=out)
    return np.divide(r, 1.0 + r, out=out)


#: The closed atom set.  The last four are the first four pre-composed
#: with a square root, which is itself an admissible modulus.  Each maps x
#: to a new array, or into ``out`` when one is given and returns it; the
#: identity returns x itself, so a caller must not write to what it gets.
#: No atom writes to x.
ATOM_FUNCS: dict[str, Callable[..., np.ndarray]] = {
    "identity": _identity,
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
        if any(not math.isfinite(c) or c < 0.0 for c in coeffs):
            raise ValueError("coefficients must be finite and >= 0")
        if all(c == 0.0 for c in coeffs):
            raise ValueError("all-zero coefficients give a constant map")

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


def phi_eval(phi: PhiCombination, x, out=None, scratch=None):
    """Evaluate ``sum_j lambda_j * atom_j(x)`` elementwise.

    Accepts scalars or arrays; negative input is a domain error.  The value
    at 0 is exactly 0 because every atom vanishes there.  ``out``, an array
    of x's shape apart from x, receives the sum; ``scratch``, another one,
    receives each atom's values in turn.  With both, an array x costs no
    temporary of its size but the ``1 + r`` of ``sqrt_rational``.  x itself
    is never written to.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("modulus functions are defined on [0, inf) only")
    values = (ATOM_FUNCS[name](arr, out=scratch) for name in phi.atoms)
    out = weighted_sum(phi.coefficients, values, arr, out, scratch)
    if np.ndim(x) == 0:
        return float(out)
    return out


def weighted_sum(coefficients, atom_values, like: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """``sum_j c_j * v_j``, added atom by atom onto zeros shaped like ``like``.

    This is the order ``phi_eval`` sums in, so atom values computed ahead of
    time give its bits exactly.  There must be one coefficient per atom.
    The sum goes into ``out`` when given, and each ``c_j * v_j`` into
    ``scratch`` (which may be v_j itself) when given.
    """
    if out is None:
        out = np.zeros(like.shape)
    else:
        out.fill(0.0)
    for c, v in zip(coefficients, atom_values, strict=True):
        out += np.multiply(c, v, out=scratch)
    return out
