"""The certificate check behind the biased-marginal linear program.

The ``lp`` command runs no solver: each branch's optimum is written in
closed form as a primal point and an integer dual point, and
:func:`certified_value` checks that pair against the equality-form
program.  The module keeps the name ``simplex`` because the benchmark's
tracer names its layer; renaming or folding that layer away is a change
to the benchmark.
"""

from __future__ import annotations

import numpy as np

from .distributions import IDENTITY_TOL

__all__ = ["certified_value"]


def certified_value(c, A, b, x: np.ndarray, y: np.ndarray) -> float:
    """``c . x`` once ``x`` and ``y`` are checked to be an optimal
    primal-dual pair of min ``c . x`` subject to ``A x = b``, ``x >= 0``.

    Checks: ``x >= 0``, ``|A x - b| <= IDENTITY_TOL``, ``A^T y <= c``
    (exact for an integer ``y``) and ``|c . x - b . y| <= IDENTITY_TOL``.
    Weak duality then puts the optimum in ``[b . y, c . x]``.  A failed
    check raises ArithmeticError."""
    value = float(c @ x)
    residual = float(np.abs(A @ x - b).max())
    if x.min() < 0.0 or residual > IDENTITY_TOL:
        raise ArithmeticError(
            f"LP certificate: primal point infeasible "
            f"(least entry {x.min():.3g}, residual {residual:.3g})"
        )
    excess = float((A.T @ y - c).max())
    if excess > 0.0:
        raise ArithmeticError(f"LP certificate: dual point infeasible (A^T y - c = {excess:.3g})")
    gap = value - float(b @ y)
    if abs(gap) > IDENTITY_TOL:
        raise ArithmeticError(f"LP certificate: duality gap {gap:.3g} above {IDENTITY_TOL}")
    return value
