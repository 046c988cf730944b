"""Born-rule tables of the chained measurement layout on the maximally
correlated two-qubit state (|00> + |11>)/sqrt(2)."""

from __future__ import annotations

import math

import numpy as np

from .distributions import ConditionalDistribution

__all__ = ["qm_chained_distribution"]

_PSI = np.eye(2) / math.sqrt(2.0)  # the state's amplitudes, [alice_bit, bob_bit]


def _chained_angles(n: int) -> tuple[list[float], list[float]]:
    """Measurement angles of the chained layout in the x-z plane of the
    Bloch sphere: Alice's setting i at 2i*pi/(2N), Bob's at (2i+1)*pi/(2N).
    Setting indices are 0-based per side."""
    if n < 2:
        raise ValueError("chain parameter must be at least 2")
    step = math.pi / (2.0 * n)
    return [2 * i * step for i in range(n)], [(2 * i + 1) * step for i in range(n)]


def _outcome_states(angles) -> np.ndarray:
    """(k, 2, 2) array: row x of entry k is the state the outcome-x
    projector at angle t projects onto, cos(t/2)|0> + sin(t/2)|1> for
    outcome 0 and sin(t/2)|0> - cos(t/2)|1> for outcome 1."""
    states = []  # flat: NumPy reads a flat list faster than a nested one
    for t in angles:
        c, s = math.cos(0.5 * t), math.sin(0.5 * t)
        states += (c, s, s, -c)
    return np.array(states).reshape(-1, 2, 2)


def qm_chained_distribution(n: int, visibility: float = 1.0) -> ConditionalDistribution:
    """Chained-layout table P(x, y | a, b): N settings per side, binary
    outcomes, every entry given by the Born rule for that setting pair,
    blended with uniform output noise at ``visibility`` v: v*P + (1-v)*U.

    U assigns every output tuple equal weight for every input, so the mix
    preserves non-signaling.  Note the chain value of U is N (each of the
    2N chain terms equals 1/2), so chain values mix affinely to
    v*value + (1-v)*N.
    """
    alice, bob = _chained_angles(n)
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    av = _outcome_states(alice)  # (N, x, i)
    # Bob's settings contiguous: einsum's inner loop then runs along them
    # rather than along the two amplitudes.  _PSI has two nonzero entries,
    # so every order of summation gives the same bits.
    bv = np.asfortranarray(_outcome_states(bob))  # (N, y, j)
    amps = np.einsum("axi,byj,ij->abxy", av, bv, _PSI)
    table = amps * amps
    if visibility != 1.0:
        table *= visibility
        table += (1.0 - visibility) * 0.25
    return ConditionalDistribution(table)
