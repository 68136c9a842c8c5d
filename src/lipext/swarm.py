"""Global-best particle swarm search over non-negative modulus coefficients.

The search box is [0, lambda_max] per coordinate because modulus coefficients
must be non-negative.  Hyperparameter defaults are the standard constriction
values (inertia 0.7298, cognitive = social = 1.49618).  One particle is
always seeded at (1, 0, ..., 0) -- the coefficients of the untouched base
metric -- so the best objective found can never be worse than leaving the
metric alone.  Runs are deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import IndexedSample, pair_data, ratio_max
from .phi import ATOM_FUNCS

OBJECTIVES = ("kq_bound", "test_rmse")

#: Replacement for an all-zero coefficient vector before evaluation.
ZERO_NUDGE = 1e-9


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 40
    iterations: int = 200
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    lambda_max: float = 10.0
    seed: int = 0
    objective: str = "kq_bound"

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lambda_max <= 0.0:
            raise ValueError("lambda_max must be positive")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True, eq=False)
class SwarmResult:
    best_lambda: np.ndarray
    best_objective: float
    history: np.ndarray  # best-so-far after each iteration, non-increasing

    def to_json_dict(self) -> dict:
        enc = lambda v: "inf" if math.isinf(v) else v
        return {
            "best_lambda": [float(v) for v in self.best_lambda],
            "best_objective": enc(float(self.best_objective)),
            "history": [enc(float(v)) for v in self.history],
        }


def nudge_lambda(lam: np.ndarray) -> np.ndarray:
    """Replace an all-zero coefficient vector with (ZERO_NUDGE, 0, ..., 0)."""
    lam = np.asarray(lam, dtype=float)
    if np.all(lam == 0.0):
        out = np.zeros_like(lam)
        out[0] = ZERO_NUDGE
        return out
    return lam


def _nudge_rows(X: np.ndarray) -> None:
    dead = ~np.any(X != 0.0, axis=1)
    if np.any(dead):
        X[dead, :] = 0.0
        X[dead, 0] = ZERO_NUDGE


def pso_minimize(
    objective: Callable[[np.ndarray], float], dim: int, cfg: PsoConfig
) -> SwarmResult:
    """Minimize ``objective`` over the box [0, lambda_max]^dim.

    Velocity update: v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), with
    velocities clamped to half the box range and positions clamped to the
    box.  All-zero positions are nudged before evaluation, and a NaN
    objective is treated as +inf.  ``history[i]`` is the best objective seen
    up to and including iteration i+1 (initial placement included).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    S, lam_max = cfg.swarm_size, cfg.lambda_max
    v_max = 0.5 * lam_max

    X = rng.uniform(0.0, lam_max, size=(S, dim))
    X[0, :] = 0.0
    X[0, 0] = min(1.0, lam_max)  # identity seed, kept inside the box
    V = np.zeros_like(X)
    _nudge_rows(X)

    def evaluate(x: np.ndarray) -> float:
        val = float(objective(x))
        return math.inf if math.isnan(val) else val

    pbest = X.copy()
    pbest_f = np.array([evaluate(X[i]) for i in range(S)])
    g = int(np.argmin(pbest_f))
    gbest = pbest[g].copy()
    gbest_f = float(pbest_f[g])

    history = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        r1 = rng.uniform(size=(S, dim))
        r2 = rng.uniform(size=(S, dim))
        V = cfg.inertia * V + cfg.cognitive * r1 * (pbest - X) + cfg.social * r2 * (gbest - X)
        np.clip(V, -v_max, v_max, out=V)
        X = np.clip(X + V, 0.0, lam_max)
        _nudge_rows(X)
        for i in range(S):
            f = evaluate(X[i])
            if f < pbest_f[i]:
                pbest_f[i] = f
                pbest[i] = X[i]
                if f < gbest_f:
                    gbest_f = f
                    gbest = X[i].copy()
        history[it] = gbest_f

    return SwarmResult(gbest, gbest_f, history)


def objective_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> Callable:
    """Evaluator of the coherence-times-normalization product over coefficients.

    The caller is expected to have shifted ``s`` to zero minimum, which makes
    the product at least 1 and the error bound meaningful.  Base distances
    and per-atom transforms are precomputed once, so each evaluation is a
    single weighted sum plus two reductions.  Returns +inf when either
    constant is infinite; all-zero vectors are nudged first.
    """
    _, _, d_base, d_vals, denom = pair_data(s, base)
    atom_vals = np.stack([ATOM_FUNCS[a](d_base) for a in atoms])  # (n_atoms, n_pairs)

    def objective(lam: np.ndarray) -> float:
        lam = nudge_lambda(lam)
        if lam.shape != (len(atoms),):
            raise ValueError(f"expected {len(atoms)} coefficients, got {lam.shape}")
        d_phi = lam @ atom_vals
        K = ratio_max(d_vals, d_phi)[0]
        Q = ratio_max(d_phi, denom)[0]
        # An infinite constant makes the product infinite, even times K = 0.
        return math.inf if math.inf in (K, Q) else K * Q

    return objective
