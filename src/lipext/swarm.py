"""Searches for modulus coefficients: exact for K*Q, by particle swarm otherwise.

``minimize_kq`` finds the non-negative coefficients that minimize the
coherence-times-normalization product K*Q exactly.  Composed distances are
linear in the coefficients and the product does not change when they are
scaled, so the minimum is a small linear program, solved here with numpy
alone by constraint generation over the pairs and a dense simplex.

``pso_minimize`` is a global-best particle swarm for objectives that are not
convex, such as held-out RMSE, with the constriction values of Clerc &
Kennedy (2002).  It searches the fixed box [0, BOX] per coordinate: both
objectives depend only on the coefficients' direction, so only the box's
size next to the identity seed (1, 0, ..., 0) matters.  The zero vector is
not a modulus, and both objectives score it +inf.  Runs are deterministic
given the seed.  ``settle`` writes either search's answer under one rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import IndexedSample, katetov_shift, pair_blocks, pair_gaps, pair_sums, ratio_max
from .phi import atom_values, weighted_sum

#: Constriction values of the velocity update (Clerc & Kennedy 2002).
INERTIA = 0.7298
COGNITIVE = 1.49618
SOCIAL = 1.49618
#: Upper end of the search box [0, BOX] of every coordinate.
BOX = 10.0

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
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class SwarmResult:
    best_lambda: np.ndarray
    best_objective: float
    history: np.ndarray  # best-so-far after each iteration, non-increasing


def identity_lambda(dim: int) -> np.ndarray:
    """The coefficients (1, 0, ..., 0): the first atom alone."""
    lam = np.zeros(dim)
    lam[0] = 1.0
    return lam


def settle(objective: Callable[[np.ndarray], float], lam: np.ndarray):
    """A search's answer ``lam`` under the one output rule: (coefficients,
    objective at exactly them, objective at the identity), the coefficients
    being ``lam`` scaled to unit sum if that scores strictly below the
    identity (1, 0, ..., 0), else the identity itself."""
    identity = identity_lambda(len(lam))
    identity_value = objective(identity)
    total = float(np.sum(lam))
    if total > 0.0:
        lam = lam / total
        value = objective(lam)
        if value < identity_value:
            return lam, value, identity_value
    return identity, identity_value, identity_value


def pso_minimize(
    objective: Callable[[np.ndarray], float], dim: int, cfg: PsoConfig
) -> SwarmResult:
    """Minimize ``objective`` over the box [0, BOX]^dim.

    Velocity update: v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), with
    velocities clamped to half the box and positions to the box.  A NaN
    objective is treated as +inf.  ``history[i]`` is the best objective seen
    up to and including iteration i+1 (initial placement included).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    S = cfg.swarm_size
    v_max = 0.5 * BOX

    X = rng.uniform(0.0, BOX, size=(S, dim))
    X[0] = identity_lambda(dim)
    V = np.zeros_like(X)

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
        V = INERTIA * V + COGNITIVE * r1 * (pbest - X) + SOCIAL * r2 * (gbest - X)
        np.clip(V, -v_max, v_max, out=V)
        X = np.clip(X + V, 0.0, BOX)
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
    """(atom stack (n_atoms, n_pairs), |I_i - I_j|, |I_i| + |I_j|) of the pairs
    i < j of ``s`` in lexicographic order, the sums taken after the Katetov
    shift as in ``constants_report``.  The arrays are allocated once, at
    their final size, and filled block by block from ``pair_blocks``."""
    n, v, shifted = len(s), s.values, katetov_shift(s).values
    terms, end = np.empty((len(atoms) + 2, n * (n - 1) // 2)), 0
    for rows, upper, d in pair_blocks(s, base, 8 * n * (len(atoms) + 4)):
        at = slice(end, end + np.count_nonzero(upper))
        end = at.stop
        terms[:-2, at] = atom_values(atoms, d[upper])
        terms[-2, at] = pair_gaps(v, rows)[upper]
        terms[-1, at] = pair_sums(shifted, rows)[upper]
    return terms[:-2], terms[-2], terms[-1]


def _kq_value(lam: np.ndarray, atom_vals: np.ndarray, d_vals: np.ndarray, denom: np.ndarray) -> float:
    if not lam.any():
        return math.inf  # the zero vector is not a modulus
    # Summed as ``phi_eval`` sums, so the value is that of ``constants_report``.
    d_phi = weighted_sum(lam, atom_vals)
    K = ratio_max(d_vals, d_phi)
    Q = ratio_max(d_phi, denom)
    # An infinite constant makes the product infinite, even times K = 0.
    return math.inf if math.inf in (K, Q) else K * Q


def objective_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> Callable:
    """Evaluator of the coherence-times-normalization product over coefficients.

    Q is that of the Katetov-shifted index, which makes the product at least
    1.  Base distances and per-atom transforms are precomputed once, so each
    evaluation is a weighted sum plus two reductions.  Returns +inf when
    either constant is infinite, and for the zero vector.
    """
    atom_vals, d_vals, denom = _kq_terms(s, base, atoms)

    def objective(lam: np.ndarray) -> float:
        lam = np.asarray(lam, dtype=float)
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

    Q is that of the Katetov-shifted index; returns ``settle``'s triple.  The
    composed distance d_p = lam . a_p of each pair p is linear in lam, and
    K*Q does not change when lam is scaled, so fixing Q <= 1 and maximizing
    t = 1/K is a linear program in (lam, t) >= 0:

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

    When the identity's K*Q is infinite (duplicate points with distinct
    values, or distinct rows with |I_i| + |I_j| = 0) no coefficients can
    help, because every atom is positive at every positive distance, and the
    solve is skipped; so it is when the product is 0, which nothing
    undercuts.
    """
    atom_vals, d_vals, denom = _kq_terms(s, base, atoms)

    def kq(lam: np.ndarray) -> float:
        return _kq_value(lam, atom_vals, d_vals, denom)

    identity = identity_lambda(len(atoms))
    identity_value = kq(identity)
    if not 0.0 < identity_value < math.inf:
        return identity, identity_value, identity_value

    lam = identity
    work_k = work_q = np.empty(0, dtype=np.intp)
    ratio = np.empty(len(d_vals))
    while True:
        # The ratios of ``ratio_max``; a NaN (0/0) never counts as violated.
        # The composed distances are made afresh for each kind, in place of
        # its ratios, so that one array of the pairs' size holds them all.
        ratio_max(d_vals, weighted_sum(lam, atom_vals, ratio), ratio)
        new_k = _most_violated(ratio, work_k)
        ratio_max(weighted_sum(lam, atom_vals, ratio), denom, ratio)
        new_q = _most_violated(ratio, work_q)
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

    return settle(kq, lam)
