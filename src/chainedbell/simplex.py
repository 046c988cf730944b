"""Dense two-phase simplex for small equality-form linear programs.

Bland's smallest-index rule is used for both the entering and the leaving
variable, so runs are deterministic and cycling is impossible.  Intended
for the toolkit's chain-pair programs of at most 801 variables and 401 rows
(N = 100); no sparsity, no presolve.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SimplexError",
    "InfeasibleError",
    "UnboundedError",
    "solve_equality_lp",
]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_RATIO_TIE = 1e-12


class SimplexError(RuntimeError):
    """Solver failure (iteration cap hit); treated as numerical failure."""


class InfeasibleError(SimplexError):
    """The equality system has no non-negative solution."""


class UnboundedError(SimplexError):
    """The objective decreases without bound over the feasible set."""


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T: np.ndarray, basis: list[int], cost: np.ndarray, max_iter: int) -> float:
    """Iterate to optimality on the current basic feasible tableau."""
    m = T.shape[0]
    ncols = T.shape[1] - 1
    for _ in range(max_iter):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        reduced[basis] = 0.0
        enter = -1
        for j in range(ncols):
            if reduced[j] < -_PIVOT_TOL:
                enter = j  # Bland: smallest improving index
                break
        if enter < 0:
            return float(cb @ T[:, -1])
        leave = -1
        best = math.inf
        for i in range(m):
            a = T[i, enter]
            if a <= _PIVOT_TOL:
                continue
            r = T[i, -1] / a
            if r < best - _RATIO_TIE:
                best, leave = r, i
            elif r <= best + _RATIO_TIE and leave >= 0 and basis[i] < basis[leave]:
                leave = i  # Bland: smallest basis variable among ties
        if leave < 0:
            raise UnboundedError("objective unbounded below")
        _pivot(T, basis, leave, enter)
    raise SimplexError("simplex iteration limit reached")


def solve_equality_lp(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, max_iter: int = 20000
) -> tuple[np.ndarray, float]:
    """Minimize c.x subject to A x = b and x >= 0.

    Returns ``(x, value)``.  Phase 1 drives artificial variables to zero
    (raising :class:`InfeasibleError` if it cannot), leftover artificials
    are pivoted out and redundant rows dropped, then phase 2 optimizes the
    real objective.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],) or c.shape != (A.shape[1],):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    residual = _run(T, basis, cost1, max_iter)
    if residual > _FEAS_TOL:
        raise InfeasibleError(f"no feasible point (phase-1 residual {residual})")

    for i in range(m):
        if basis[i] >= n:
            nz = np.nonzero(np.abs(T[i, :n]) > _PIVOT_TOL)[0]
            if nz.size:
                _pivot(T, basis, i, int(nz[0]))
    keep = [i for i in range(m) if basis[i] < n]  # rows still on artificials are redundant
    T = T[keep][:, list(range(n)) + [-1]]
    basis = [basis[i] for i in keep]

    _run(T, basis, c, max_iter)
    x = np.zeros(n)
    for i, bv in enumerate(basis):
        x[bv] = T[i, -1]
    return x, float(c @ x)
