"""Chain score evaluation, its quantum closed form, the classical
brute-force minimum, and the biased-marginal linear program."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ConditionalDistribution
from .simplex import solve_equality_lp

__all__ = [
    "ChainScore",
    "DeterministicStrategy",
    "BruteForceResult",
    "BiasedChainLP",
    "chain_pairs",
    "evaluate_chain",
    "quantum_chain_closed_form",
    "noisy_chain_closed_form",
    "classical_min_chain_value",
    "lp_min_chain_given_bias",
]


@dataclass(frozen=True)
class ChainScore:
    """Value of the 2N-term chained sum with its per-term breakdown.

    ``terms`` lists (alice_label, bob_label, contribution) in the even/odd
    presentation labels (Alice 0, 2, ..., 2N-2; Bob 1, 3, ..., 2N-1).
    Adjacent-label terms contribute P[X != Y]; the wrap term (0, 2N-1)
    contributes P[X = Y].
    """

    n_settings: int
    value: float
    terms: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-side lookup tables mapping each setting to a fixed output bit."""

    alice_map: tuple[int, ...]
    bob_map: tuple[int, ...]

    def __post_init__(self):
        alice = tuple(int(b) for b in self.alice_map)
        bob = tuple(int(b) for b in self.bob_map)
        if len(alice) != len(bob) or len(alice) < 2:
            raise ValueError("strategy tables must cover the same N >= 2 settings")
        if any(b not in (0, 1) for b in alice + bob):
            raise ValueError("strategy outputs must be bits")
        object.__setattr__(self, "alice_map", alice)
        object.__setattr__(self, "bob_map", bob)

    def distribution(self) -> ConditionalDistribution:
        """The deterministic table P(x, y | a, b) this strategy produces."""
        n = len(self.alice_map)
        table = np.zeros((n, n, 2, 2))
        for a in range(n):
            for b in range(n):
                table[a, b, self.alice_map[a], self.bob_map[b]] = 1.0
        return ConditionalDistribution((n, n), (2, 2), table)


@dataclass(frozen=True)
class BruteForceResult:
    min_value: float
    witness: DeterministicStrategy


@dataclass(frozen=True)
class BiasedChainLP:
    """Outcome of the biased-marginal minimization.

    ``gap`` is ``min_value - 2*delta``, the slack over the analytic lower
    bound; ``branch_values`` are the optima of the two outcome-relabeled
    bias branches, which must agree.
    """

    min_value: float
    gap: float
    argmin: ConditionalDistribution
    branch_values: tuple[float, float]


# Outcome cells (x, y) that each kind of chain term counts.
_TERM_CELLS = {"differ": ((0, 1), (1, 0)), "match": ((0, 0), (1, 1))}

# Largest chain length the biased-marginal LP accepts: the dense simplex
# takes seconds on the 801 x 401 program at N = 100.
_LP_MAX_N = 100


def chain_pairs(n: int) -> list[tuple[int, int, str]]:
    """The 2N chain-relevant setting pairs with their term kind:
    ``differ`` terms count unequal outcomes, the ``match`` wrap term counts
    equal outcomes."""
    if n < 2:
        raise ValueError("chain parameter must be at least 2")
    pairs = [(i, i, "differ") for i in range(n)]
    pairs += [(i + 1, i, "differ") for i in range(n - 1)]
    pairs.append((0, n - 1, "match"))
    return pairs


def evaluate_chain(p: ConditionalDistribution, n: int) -> ChainScore:
    """Sum the 2N chained probabilities of a two-party binary table.

    Setting indices are 0-based per side.  Adjacency pairs Alice i with
    Bob i and Alice i+1 with Bob i (2N-1 unequal-outcome terms), and the
    wrap term pairs Alice 0 with Bob N-1 using the equal-outcome
    probability.
    """
    pairs = chain_pairs(n)
    if p.input_sizes != (n, n) or p.output_sizes != (2, 2):
        raise ValueError(
            f"expected a 2-party binary table with {n} settings per side, "
            f"got inputs {p.input_sizes} and outputs {p.output_sizes}"
        )
    t = p.table
    terms = []
    for a, b, kind in pairs:
        (x0, y0), (x1, y1) = _TERM_CELLS[kind]
        terms.append((2 * a, 2 * b + 1, float(t[a, b, x0, y0] + t[a, b, x1, y1])))
    value = math.fsum(c for _, _, c in terms)
    return ChainScore(n, value, tuple(terms))


def quantum_chain_closed_form(n: int) -> float:
    """Ideal quantum chain value 2N sin^2(pi/4N), decreasing in N with
    large-N behaviour pi^2 / (8N)."""
    if n < 2:
        raise ValueError("chain parameter must be at least 2")
    s = math.sin(math.pi / (4.0 * n))
    return 2.0 * n * s * s


def noisy_chain_closed_form(n: int, visibility: float) -> float:
    """Chain value of the visibility-mixed quantum table:
    v * 2N sin^2(pi/4N) + (1 - v) * N."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return visibility * quantum_chain_closed_form(n) + (1.0 - visibility) * n


def _strategy_scores(n: int) -> np.ndarray:
    """Chain values of all 4^N deterministic strategy pairs, as a
    ``(2^N, 2^N)`` array indexed by (Alice index, Bob index).

    Each score is ``popcount(s ^ t) + popcount(r ^ t)``, where ``r`` is
    ``s`` rotated left by one within N bits with bit 0 flipped; see
    :func:`classical_min_chain_value` for the terms this counts."""
    size = 1 << n
    idx = np.arange(size, dtype=np.uint16)
    pop = np.zeros(size, dtype=np.uint8)
    for k in range(n):
        pop[1 << k : 2 << k] = pop[: 1 << k] + 1
    r = (((idx << 1) | (idx >> (n - 1))) & (size - 1)) ^ 1
    scores = np.take(pop, np.bitwise_xor.outer(idx, idx))
    scores += np.take(pop, np.bitwise_xor.outer(r, idx))
    return scores


def classical_min_chain_value(n: int) -> BruteForceResult:
    """Exhaustively minimize the chain value over the 4^N deterministic
    local strategy pairs.

    The chain value is linear in the table, so its minimum over shared-
    randomness mixtures is attained at a deterministic pair; ties break to
    the smallest (alice, bob) assignment index.

    Strategy index ``s`` (row-major ``itertools.product`` order) maps
    setting ``i`` to bit ``(s >> (N-1-i)) & 1``.  The pair ``(s, t)``
    (Alice ``f``, Bob ``g``) then scores three popcount terms:

    - ``popcount(s ^ t)``: the N terms ``f[i] != g[i]``;
    - ``popcount(((s << 1) ^ t) & (2^N - 2))``: the N-1 terms
      ``f[i+1] != g[i]``;
    - ``1 - (((s >> (N-1)) ^ t) & 1)``: the wrap term ``f[0] == g[N-1]``.

    The last two read bits 1..N-1 and bit 0 of one word, ``s`` rotated left
    by one with bit 0 flipped, so every pair costs two XORs and two table
    lookups.  Every pair is scored.
    """
    if not 2 <= n <= 10:
        raise ValueError("brute force supports 2 <= N <= 10")
    scores = _strategy_scores(n)
    flat = int(np.argmin(scores))  # first minimum in row-major order
    s, t = divmod(flat, scores.shape[1])
    witness = DeterministicStrategy(
        tuple((s >> (n - 1 - i)) & 1 for i in range(n)),
        tuple((t >> (n - 1 - i)) & 1 for i in range(n)),
    )
    return BruteForceResult(float(scores[s, t]), witness)


def _chain_pair_lp(n: int, delta: float, branch_x: int):
    """Equality-form LP data over the 2N chain-pair joints (pair k of
    :func:`chain_pairs` at columns 4k + 2x + y) plus one surplus variable.

    Rows: one normalisation per pair, one marginal equality per setting
    (each setting sits in exactly two chain pairs), and the bias row."""
    pairs = chain_pairs(n)
    m = len(pairs)
    c = np.zeros(4 * m + 1)
    A = np.zeros((2 * m + 1, 4 * m + 1))
    rhs = np.zeros(2 * m + 1)
    rhs[:m] = 1.0
    seen: dict[tuple[int, int], int] = {}
    row = m
    for k, (a, b, kind) in enumerate(pairs):
        for x, y in _TERM_CELLS[kind]:
            c[4 * k + 2 * x + y] = 1.0
        A[k, 4 * k : 4 * k + 4] = 1.0
        # Outcome-0 marginal of each side (x = 0 cells, then y = 0 cells).
        for side, setting, cols in ((0, a, (0, 1)), (1, b, (0, 2))):
            first = seen.setdefault((side, setting), k)
            if first != k:
                A[row, [4 * k + j for j in cols]] = 1.0
                A[row, [4 * first + j for j in cols]] = -1.0
                row += 1
    # Bias: P(X = branch_x | A = 0) - surplus = 1/2 + delta, read on pair (0, 0).
    A[-1, 2 * branch_x : 2 * branch_x + 2] = 1.0
    A[-1, -1] = -1.0
    rhs[-1] = 0.5 + delta
    return c, A, rhs


def lp_min_chain_given_bias(n: int, delta: float) -> BiasedChainLP:
    """Minimize the chain value over non-signaling two-party binary tables
    whose Alice marginal at setting 0 is biased away from uniform by at
    least ``delta`` in statistical distance.

    The bias constraint is linearized by fixing an outcome branch,
    P(X=0 | A=0) >= 1/2 + delta; relabeling x -> 1-x maps the feasible set
    of the opposite branch onto this one while permuting chain terms, so
    both branches are solved and their optima must agree.  The analytic
    lower bound for the optimum is 2*delta.
    """
    if not 2 <= n <= _LP_MAX_N:
        raise ValueError(f"LP probe supports 2 <= N <= {_LP_MAX_N}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    values: list[float] = []
    solutions: list[np.ndarray] = []
    for branch_x in (0, 1):
        c, A, b = _chain_pair_lp(n, delta, branch_x)
        x, val = solve_equality_lp(c, A, b)
        values.append(val)
        solutions.append(x)
    if abs(values[0] - values[1]) > 1e-9:
        raise ArithmeticError(f"bias branch optima disagree: {values}")
    # Off-chain pairs get the product of their two marginals, which keeps
    # the table non-signaling; chain pairs get their optimal joints.
    pairs = chain_pairs(n)
    joints = solutions[0][:-1].reshape(len(pairs), 2, 2)
    pa = np.empty((n, 2))
    pb = np.empty((n, 2))
    for (a, b, _), q in zip(pairs, joints):
        pa[a], pb[b] = q.sum(axis=1), q.sum(axis=0)
    table = pa[:, None, :, None] * pb[None, :, None, :]
    for (a, b, _), q in zip(pairs, joints):
        table[a, b] = q
    argmin = ConditionalDistribution((n, n), (2, 2), table)
    return BiasedChainLP(
        values[0], values[0] - 2.0 * delta, argmin, (values[0], values[1])
    )
