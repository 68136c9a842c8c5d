"""Test-only helpers built on numpy and the package under test.

``oracles`` holds the independent plain-Python references; this module holds
what the tests need beyond them: a numeric probe of the modulus axioms,
random and rescaled coefficient combinations, single-pair distances
taken from ``pairwise``, Lipschitz predictions from a block of distances, the one-shot tensor formula of the base distances,
the condensed pair arrays of a sample, a record of the pair blocks a
function reads, and seeded synthetic dataset CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from lipext.constants import IndexedSample
from lipext.extension import ExtensionModel, predict_in_blocks
from lipext.metrics import pairwise_base
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


def one_shot_pairwise(kind: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Base distances from the whole (q, n, m) difference tensor at once, each
    reduced by ``np.sum``/``np.max`` over its last axis: the bits that
    ``pairwise_base`` must keep without building the tensor."""
    diff = A[:, None, :] - B[None, :, :]
    if kind == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if kind == "manhattan":
        return np.sum(np.abs(diff), axis=-1)
    if kind == "chebyshev":
        return np.max(np.abs(diff), axis=-1)
    raise ValueError(f"unknown base metric {kind!r}")


def condensed_pairs(s: IndexedSample, base: str):
    """The pairs i < j of ``s`` all at once, from ``np.triu_indices`` of the
    whole base square: (i, j, base distances, |I_i - I_j|, |I_i| + |I_j|,
    and |I_i| + |I_j| of the index shifted to minimum 0)."""
    i, j = np.triu_indices(len(s), k=1)
    d_base = pairwise_base(base, s.points, s.points)[i, j]
    v = s.values
    shifted = v - v.min()
    return i, j, d_base, np.abs(v[i] - v[j]), np.abs(v[i]) + np.abs(v[j]), shifted[i] + shifted[j]


def record_blocks(monkeypatch, module) -> list[int]:
    """Patch ``module.pair_blocks`` so that each block it yields appends its
    number of rows to the list returned, to check the block sizes that a
    patched ``TILE_BYTES`` gives."""
    sizes, pair_blocks = [], module.pair_blocks

    def recording(*args):
        for rows, upper, d in pair_blocks(*args):
            sizes.append(rows.stop - rows.start)
            yield rows, upper, d

    monkeypatch.setattr(module, "pair_blocks", recording)
    return sizes


def tiles(rows: int, tile: int) -> list[int]:
    """The sizes of the blocks of ``rows`` rows at ``tile`` rows a block."""
    return [min(tile, rows - start) for start in range(0, rows, tile)]


def synthetic_csv(seed: int, n: int, m: int = 3, hidden: float = 0.2) -> str:
    """CSV text of ``n`` rows with ``m`` features and a smooth noisy index.

    Features are uniform on per-column ranges of widely different sizes; a
    ``hidden`` share of the rows has its index left empty.  The same seed
    gives the same bytes.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(size=(n, m))
    weights = rng.uniform(0.5, 1.5, size=m) / np.sqrt(m)
    wave = rng.normal(size=m)
    index = 1.0 + z @ weights + 0.25 * np.sin(2 * np.pi * z @ wave) + 0.005 * rng.normal(size=n)
    features = rng.uniform(-5, 5, size=m) + z * 10.0 ** rng.uniform(-1, 2, size=m)
    hide = set(rng.choice(n, size=int(round(hidden * n)), replace=False).tolist())
    lines = ["id," + ",".join(f"x{k}" for k in range(m)) + ",index"]
    for i in range(n):
        value = "" if i in hide else repr(float(index[i]))
        lines.append(f"r{i}," + ",".join(repr(float(x)) for x in features[i]) + "," + value)
    return "\n".join(lines) + "\n"


def predict_from(m: ExtensionModel, D: np.ndarray, alpha=None, truth=None):
    """(blend weight, predictions) of ``m`` from the (q, n) distances D in
    one ``predict_in_blocks`` call; a standard model, which reads only its
    anchor's distances, as offset + (K * D) at the anchor's column."""
    if m.method == "standard":
        return None, m.offset + (m.K * D)[:, m.anchor]
    return predict_in_blocks(m, len(D), D.__getitem__, alpha, truth)
