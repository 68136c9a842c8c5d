"""Searches for modulus coefficients: exact for K*Q, by particle swarm otherwise.

``minimize_kq`` finds the non-negative coefficients that minimize the
coherence-times-normalization product K*Q exactly.  Composed distances are
linear in the coefficients and the product does not change when they are
scaled, so the minimum is a linear program, solved here with numpy alone by
one simplex on a condensed tableau.  Its rows are those of the K and Q
dominance fronts of the pairs (``constants.pair_front``), the fronts that
``objective_kq`` evaluates too.

``pso_minimize`` is a global-best particle swarm for objectives that are not
convex, such as held-out RMSE, with the constriction values of Clerc &
Kennedy (2002).  It searches the fixed box [0, BOX] per coordinate: both
objectives depend only on the coefficients' direction, so only the box's
size next to the identity seed (1, 0, ..., 0) matters.  The zero vector is
not a modulus, and both objectives score it +inf.  Runs are deterministic
given the seed: the swarm draws numpy's ``default_rng(seed)`` uniforms,
reproduced in ``lipext.pcg64``.  ``settle`` writes either search's answer
under one rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import IndexedSample, katetov_shift, pair_front, ratio_max
from .phi import weighted_sum

#: Constriction values of the velocity update (Clerc & Kennedy 2002).
INERTIA = 0.7298
COGNITIVE = 1.49618
SOCIAL = 1.49618
#: Upper end of the search box [0, BOX] of every coordinate.
BOX = 10.0

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

    The uniforms are numpy's ``default_rng(cfg.seed)`` stream, drawn by
    ``pcg64.UniformStream`` in numpy's order: the initial positions as
    ``uniform(0, BOX, size=(S, dim))``, then each iteration's r1 and r2 as
    ``uniform(size=(S, dim))``.  The stream holds one chunk of draws, so
    memory does not grow with ``cfg.iterations``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    from .pcg64 import UniformStream  # here, so the kq-bound search skips it

    uniforms = UniformStream(cfg.seed)
    S = cfg.swarm_size
    v_max = 0.5 * BOX

    # numpy's uniform(0, BOX) is 0 + BOX * u, which has the bits of BOX * u.
    X = BOX * uniforms.random(S * dim).reshape(S, dim)
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
        r1 = uniforms.random(S * dim).reshape(S, dim)
        r2 = uniforms.random(S * dim).reshape(S, dim)
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


def _kq_fronts(s: IndexedSample, base: str, atoms: tuple[str, ...]):
    """``pair_front``'s K and Q fronts of ``s``; raises ``ValueError`` as
    ``katetov_shift`` does when the shifted index overflows."""
    katetov_shift(s)
    return pair_front(s, base, atoms)


def _kq_value(lam: np.ndarray, fronts) -> float:
    if not lam.any():
        return math.inf  # the zero vector is not a modulus
    k_atoms, gaps, q_atoms, sums = fronts
    # Summed as ``phi_eval`` sums, so the value is that of ``constants_report``.
    K = ratio_max(gaps, weighted_sum(lam, k_atoms))
    Q = ratio_max(weighted_sum(lam, q_atoms), sums)
    # An infinite constant makes the product infinite, even times K = 0.
    return math.inf if math.inf in (K, Q) else K * Q


def objective_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]) -> Callable:
    """Evaluator of the coherence-times-normalization product over coefficients.

    Q is that of the Katetov-shifted index, which makes the product at least
    1.  The K and Q fronts of the pairs (``pair_front``) are built once, so
    each evaluation is two weighted sums plus two reductions over them.
    Returns +inf when either constant is infinite, and for the zero vector.
    """
    fronts = _kq_fronts(s, base, atoms)

    def objective(lam: np.ndarray) -> float:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (len(atoms),):
            raise ValueError(f"expected {len(atoms)} coefficients, got {lam.shape}")
        return _kq_value(lam, fronts)

    return objective


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x >= 0 maximizing c.x subject to A x <= b, for b >= 0 and a bounded program.

    A condensed (Tucker) tableau simplex: one column per nonbasic variable
    and one for the right-hand side, so the tableau is (rows + 1) x (columns
    + 1) and holds no block of slack columns.  It starts from the slack
    basis (feasible because b >= 0) and pivots under Bland's rule, the
    variables being numbered x first, then the slacks: the lowest-numbered
    improving variable enters, and among the rows that tie in the ratio test
    the one whose basic variable has the lowest number leaves.  Bland's rule
    cannot cycle, which matters here because rows with b = 0 make
    degenerate pivots common.  The tableau is stored by column, and a pivot
    updates it one column at a time with the entering column as scratch,
    so no temporary the size of the tableau is made.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + 1), order="F")
    T[:m, :n] = A
    T[:m, n] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)  # the variable of each row
    nonbasic = np.arange(n)  # the variable of each column
    col = np.empty(m + 1)
    while True:
        improving = np.flatnonzero(T[m, :n] < -SIMPLEX_TOL)
        if improving.size == 0:
            break
        j = improving[np.argmin(nonbasic[improving])]
        rows = np.flatnonzero(T[:m, j] > SIMPLEX_TOL)
        ratios = T[rows, n] / T[rows, j]
        ties = rows[ratios <= ratios.min()]
        i = ties[np.argmin(basis[ties])]
        recip = 1.0 / T[i, j]
        np.copyto(col, T[:, j])
        col[i] = 0.0
        T[i] /= T[i, j]
        for k in range(n + 1):
            if k != j:
                T[:, k] -= np.multiply(col, T[i, k], out=T[:, j])
        # Column j now holds the leaving variable, row i the entering one.
        np.multiply(col, -recip, out=T[:, j])
        T[i, j] = recip
        basis[i], nonbasic[j] = nonbasic[j], basis[i]
    # The tableau has drifted by the round-off of every pivot, so the vertex
    # of the final basis is solved afresh from the original rows: the rows
    # whose slacks are nonbasic hold with equality, and there are as many
    # of them as basic columns of x.  That system is at most (n, n), small
    # enough to stay off BLAS's threaded paths.
    columns = basis[basis < n]
    binding = np.zeros(m, dtype=bool)
    binding[nonbasic[nonbasic >= n] - n] = True
    x = np.zeros(n)
    x[columns] = np.linalg.solve(A[binding][:, columns], b[binding])
    return x


def minimize_kq(s: IndexedSample, base: str, atoms: tuple[str, ...]):
    """Coefficients of ``atoms`` that minimize K*Q on ``s`` exactly.

    Q is that of the Katetov-shifted index; returns ``settle``'s triple.  The
    composed distance d_p = lam . a_p of each pair p is linear in lam, and
    K*Q does not change when lam is scaled, so fixing Q <= 1 and maximizing
    t = 1/K is a linear program in (lam, t) >= 0:

        d_p >= t |I_i - I_j|   and   d_p <= |I_i| + |I_j|   for every pair.

    A pair that another dominates (``pair_front``) imposes nothing that its
    dominator does not, so the rows of the K front and of the Q front
    define the same program, and one ``_simplex_max`` solves them all.  Its
    tableau is (front rows + 1) x (atoms + 2), the order of the fronts
    themselves, so no front is too large for it.

    Rows with an entry that is not finite are left out.  The K row of a pair
    with no gap has one, and imposes nothing.  So does a row whose base
    distance is beyond the float range, where an atom is +inf or NaN and
    the composed distance +inf or NaN: a K row's ratio is then 0, or NaN,
    which ``ratio_max`` skips, and a Q row imposes nothing at a zero
    coefficient on each +inf atom but makes Q infinite at a positive one.
    So an atom that is +inf on a Q row whose other entries are finite has
    its coefficient held at 0.

    When the identity's K*Q is infinite (duplicate points with distinct
    values, or distinct rows with |I_i| + |I_j| = 0) no coefficients can
    help, because every atom is positive at every positive distance, and the
    solve is skipped; so it is when the product is 0, which nothing
    undercuts.
    """
    fronts = _kq_fronts(s, base, atoms)
    k_atoms, gaps, q_atoms, sums = fronts

    def kq(lam: np.ndarray) -> float:
        return _kq_value(lam, fronts)

    identity = identity_lambda(len(atoms))
    identity_value = kq(identity)
    if not 0.0 < identity_value < math.inf:
        return identity, identity_value, identity_value

    # Rows scaled by |I_i - I_j| and |I_i| + |I_j|: t - lam.a_p/|I_i - I_j| <= 0
    # and lam.a_p/(|I_i| + |I_j|) <= 1.
    n_k = len(gaps)
    A = np.empty((n_k + len(sums), len(atoms) + 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(k_atoms.T, -gaps[:, None], out=A[:n_k, :-1])
        np.divide(q_atoms.T, sums[:, None], out=A[n_k:, :-1])
    A[:n_k, -1], A[n_k:, -1] = 1.0, 0.0
    b = np.repeat([0.0, 1.0], [n_k, len(sums)])
    finite = np.isfinite(A)
    lone = np.count_nonzero(~finite[n_k:], axis=1) == 1
    held = (A[n_k:][lone] == math.inf).any(axis=0)
    kept = finite.all(axis=1)
    A, b = A[kept], b[kept]
    # A zero column never enters the basis, so its coefficient stays 0.
    A[:, held] = 0.0
    c = np.zeros(len(atoms) + 1)
    c[-1] = 1.0
    lam = _simplex_max(A, b, c)[:-1]
    return settle(kq, lam)
