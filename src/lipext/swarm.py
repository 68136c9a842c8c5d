"""Searches for modulus coefficients: exact for K*Q, by particle swarm otherwise.

``minimize_kq`` finds the non-negative coefficients that minimize the
coherence-times-normalization product K*Q exactly.  Composed distances are
linear in the coefficients and the product does not change when they are
scaled, so the minimum is a small linear program, solved here with numpy
alone by constraint generation over the pairs and a dense simplex.  The
result is never worse than the identity coefficients (1, 0, ..., 0) and
does not depend on any seed.

``pso_minimize`` is a global-best particle swarm for objectives that are not
convex, such as held-out RMSE.  The search box is [0, lambda_max] per
coordinate because modulus coefficients must be non-negative.
Hyperparameter defaults are the standard constriction values (inertia
0.7298, cognitive = social = 1.49618).  One particle is always seeded at
(1, 0, ..., 0) -- the coefficients of the untouched base metric -- so the
best objective found can never be worse than leaving the metric alone.
Runs are deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import IndexedSample, pair_data, ratio_max
from .phi import ATOM_FUNCS

#: Replacement for an all-zero coefficient vector before evaluation.
ZERO_NUDGE = 1e-9

#: Relative slack of the exact K*Q solve's stopping test.
KQ_REL_TOL = 1e-12
#: Pairs of each kind (K rows, Q rows) added to the working set per round.
KQ_CHUNK = 64
#: Entries and reduced costs within this of zero count as zero in the simplex.
SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 40
    iterations: int = 200
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    lambda_max: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lambda_max <= 0.0:
            raise ValueError("lambda_max must be positive")


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


def identity_lambda(dim: int) -> np.ndarray:
    """The coefficients (1, 0, ..., 0): the first atom alone."""
    lam = np.zeros(dim)
    lam[0] = 1.0
    return lam


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


def _kq_terms(s: IndexedSample, base: str, atoms: tuple[str, ...]):
    """(atom stack (n_atoms, n_pairs), |I_i - I_j|, |I_i| + |I_j|) of the pairs of ``s``."""
    _, _, d_base, d_vals, denom = pair_data(s, base)
    return np.stack([ATOM_FUNCS[a](d_base) for a in atoms]), d_vals, denom


def _kq_value(lam: np.ndarray, atom_vals: np.ndarray, d_vals: np.ndarray, denom: np.ndarray) -> float:
    d_phi = lam @ atom_vals
    K = ratio_max(d_vals, d_phi)[0]
    Q = ratio_max(d_phi, denom)[0]
    # An infinite constant makes the product infinite, even times K = 0.
    return math.inf if math.inf in (K, Q) else K * Q


def objective_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> Callable:
    """Evaluator of the coherence-times-normalization product over coefficients.

    The caller is expected to have shifted ``s`` to zero minimum, which makes
    the product at least 1 and the error bound meaningful.  Base distances
    and per-atom transforms are precomputed once, so each evaluation is a
    single weighted sum plus two reductions.  Returns +inf when either
    constant is infinite; all-zero vectors are nudged first.
    """
    atom_vals, d_vals, denom = _kq_terms(s, base, atoms)

    def objective(lam: np.ndarray) -> float:
        lam = nudge_lambda(lam)
        if lam.shape != (len(atoms),):
            raise ValueError(f"expected {len(atoms)} coefficients, got {lam.shape}")
        return _kq_value(lam, atom_vals, d_vals, denom)

    return objective


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x >= 0 maximizing c.x subject to A x <= b, for b >= 0 and a bounded program.

    A dense tableau simplex that starts from the slack basis (feasible
    because b >= 0) and pivots under Bland's rule: the lowest-numbered
    improving column enters, and among the rows that tie in the ratio test
    the one whose basic variable has the lowest number leaves.  Bland's rule
    cannot cycle, which matters here because rows with b = 0 make
    degenerate pivots common.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)
    while True:
        improving = np.flatnonzero(T[m, :-1] < -SIMPLEX_TOL)
        if improving.size == 0:
            break
        j = improving[0]
        rows = np.flatnonzero(T[:m, j] > SIMPLEX_TOL)
        ratios = T[rows, -1] / T[rows, j]
        ties = rows[ratios <= ratios.min()]
        i = ties[np.argmin(basis[ties])]
        T[i] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        T -= np.outer(col, T[i])
        basis[i] = j
    # The tableau has drifted by the round-off of every pivot, so the vertex
    # of the final basis is solved afresh from the original rows: the rows
    # whose slacks left the basis hold with equality, and there are as many
    # of them as basic columns of x.  That system is at most (n, n), small
    # enough to stay off BLAS's threaded paths.
    columns = basis[basis < n]
    binding = np.ones(m, dtype=bool)
    binding[basis[basis >= n] - n] = False
    x = np.zeros(n)
    x[columns] = np.linalg.solve(A[binding][:, columns], b[binding])
    return x


def _most_violated(ratio: np.ndarray, working: np.ndarray) -> np.ndarray:
    """The pairs, at most the KQ_CHUNK largest, whose ratio exceeds the
    largest ratio in ``working`` by more than KQ_REL_TOL, or is positive when
    ``working`` is empty.  Working pairs themselves never qualify."""
    limit = ratio[working].max() * (1.0 + KQ_REL_TOL) if working.size else 0.0
    new = np.flatnonzero(ratio > limit)
    if new.size > KQ_CHUNK:
        new = new[np.argpartition(ratio[new], -KQ_CHUNK)[-KQ_CHUNK:]]
    return new


def minimize_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]):
    """Coefficients of ``atoms`` that minimize K*Q on ``s`` exactly.

    Returns (unit-sum coefficients, K*Q at exactly those coefficients, K*Q
    at the identity coefficients (1, 0, ..., 0)).  The composed distance
    d_p = lam . a_p of each pair p is linear in lam, and K*Q does not change
    when lam is scaled, so fixing Q <= 1 and maximizing t = 1/K is a linear
    program in (lam, t) >= 0:

        d_p >= t |I_i - I_j|   and   d_p <= |I_i| + |I_j|   for every pair.

    Its rows are generated in rounds.  The working set starts from the pairs
    that come closest to binding at the identity.  Each round solves the
    working rows with ``_simplex_max`` and adds the pairs whose K or Q ratio
    at the solution exceeds the largest ratio among the working pairs, which
    at the working optimum are 1/t and 1.  When no pair exceeds them by more
    than KQ_REL_TOL, the solution meets every pair's rows and so is optimal
    for the whole program.  Each round adds a pair, so the search ends.
    Comparing ratios computed alike, not K*Q with the solved t, keeps the
    round-off of ill-conditioned rows out of the stopping test.

    The identity is returned unless the solution is strictly better, so the
    result is never worse than leaving the metric alone.  When the identity's
    K*Q is infinite (duplicate points with distinct values, or distinct rows
    with |I_i| + |I_j| = 0) no coefficients can help, because every atom is
    positive at every positive distance, and the solve is skipped; so it is
    when the product is 0, which nothing undercuts.
    """
    atom_vals, d_vals, denom = _kq_terms(s, base, atoms)
    identity = identity_lambda(len(atoms))
    identity_value = _kq_value(identity, atom_vals, d_vals, denom)
    if not 0.0 < identity_value < math.inf:
        return identity, identity_value, identity_value

    lam = identity
    work_k = work_q = np.empty(0, dtype=np.intp)
    while True:
        d_phi = lam @ atom_vals
        k_ratio = np.divide(d_vals, d_phi, out=np.zeros_like(d_phi), where=d_vals > 0.0)
        q_ratio = np.divide(d_phi, denom, out=np.zeros_like(d_phi), where=denom > 0.0)
        new_k = _most_violated(k_ratio, work_k)
        new_q = _most_violated(q_ratio, work_q)
        if new_k.size == 0 and new_q.size == 0:
            break
        work_k = np.concatenate([work_k, new_k])
        work_q = np.concatenate([work_q, new_q])
        # Rows scaled by |I_i - I_j| and |I_i| + |I_j|: t - lam.a_p/|I_i - I_j| <= 0
        # and lam.a_p/(|I_i| + |I_j|) <= 1.
        A = np.vstack([
            np.hstack([-(atom_vals[:, work_k] / d_vals[work_k]).T, np.ones((work_k.size, 1))]),
            np.hstack([(atom_vals[:, work_q] / denom[work_q]).T, np.zeros((work_q.size, 1))]),
        ])
        b = np.concatenate([np.zeros(work_k.size), np.ones(work_q.size)])
        c = np.zeros(len(atoms) + 1)
        c[-1] = 1.0
        lam = _simplex_max(A, b, c)[:-1]

    lam = lam / np.sum(lam)
    value = _kq_value(lam, atom_vals, d_vals, denom)
    if value < identity_value:
        return lam, value, identity_value
    return identity, identity_value, identity_value
