"""Chain score evaluation, its quantum closed form, the classical
brute-force minimum, and the biased-marginal linear program."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import IDENTITY_TOL, ConditionalDistribution

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
    bound; ``branch_values`` are the certified optima of the two
    outcome-relabeled bias branches.  ``dual_certificate`` holds each
    branch's integer dual vector, in the row order of the program
    :func:`_chain_pair_lp` builds: its ``b . y`` is the lower bound that
    ``min_value`` meets.
    """

    min_value: float
    gap: float
    argmin: ConditionalDistribution
    branch_values: tuple[float, float]
    dual_certificate: tuple[tuple[int, ...], tuple[int, ...]]


# Outcome cells (x, y) that each kind of chain term counts.
_TERM_CELLS = {"differ": ((0, 1), (1, 0)), "match": ((0, 0), (1, 1))}

# Largest chain length the biased-marginal LP accepts: its argmin is a
# dense table of 4N^2 entries that goes to stdout (40 000 at N = 100).
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
    """Equality-form LP data ``(c, A, b)``: minimize ``c . x`` subject to
    ``A x = b``, ``x >= 0``, over the 2N chain-pair joints (pair k of
    :func:`chain_pairs` at columns 4k + 2x + y) plus one surplus variable
    (the last column).

    Each setting sits in exactly two chain pairs.  Rows, with m = 2N:

    - rows 0 .. m-1: the normalisation of pair k, in row k;
    - rows m .. 2m-1: the marginal equalities, two for each pair after the
      first N (pairs (i+1, i), then the wrap pair (0, N-1)): Alice's
      outcome-0 marginal equals the one of the first pair with her
      setting, then Bob's does the same;
    - row 2m: the bias row.
    """
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
        # Outcome-0 marginal of each side: the x = 0 cells (columns 0, 1 of
        # the pair), then the y = 0 cells (columns 0, 2).
        for side, setting, step in ((0, a, 1), (1, b, 2)):
            first = seen.setdefault((side, setting), k)
            if first != k:
                A[row, 4 * k : 4 * k + 2 * step : step] = 1.0
                A[row, 4 * first : 4 * first + 2 * step : step] = -1.0
                row += 1
    # Bias: P(X = branch_x | A = 0) - surplus = 1/2 + delta, read on pair (0, 0).
    A[-1, 2 * branch_x : 2 * branch_x + 2] = 1.0
    A[-1, -1] = -1.0
    rhs[-1] = 0.5 + delta
    return c, A, rhs


def _chain_pair_primal(n: int, delta: float, branch_x: int) -> np.ndarray:
    """A point of :func:`_chain_pair_lp` of value ``2*delta``: every chain
    pair holds ``2*delta`` times the deterministic pair X = Y = branch_x
    plus ``1 - 2*delta`` times the chained PR box, and the surplus is 0
    (Barrett, Kent & Pironio, PRL 97, 170409, 2006).

    The box puts 1/2 on the equal cells of each ``differ`` pair and on the
    unequal cells of the ``match`` wrap pair, so it scores 0 with uniform
    marginals; the deterministic pair scores 1, on the wrap term."""
    x = np.zeros(8 * n + 1)
    cells = x[:-1].reshape(2 * n, 4)  # pair k's cell (x, y) in column 2x + y
    cells[:-1, ::3] = 0.5  # the box: equal cells of the differ pairs
    cells[-1, 1:3] = 0.5  # and unequal cells of the wrap pair
    cells *= 1.0 - 2.0 * delta
    cells[:, 3 * branch_x] += 2.0 * delta
    return x


def _chain_pair_dual(n: int, branch_x: int) -> np.ndarray:
    """An integer dual point of :func:`_chain_pair_lp` with
    ``b . y = 2*delta``, in its row order (m = 2N):

    - normalisation rows: 0, except -1 on the wrap pair for branch 0, and
      -2 on pair 0 and +1 on the wrap pair for branch 1;
    - marginal rows: -1, +1 for each pair (i+1, i) and +1, +1 for the wrap
      pair, negated for branch 1;
    - bias row: 2.
    """
    m = 2 * n
    sign = 1 - 2 * branch_x
    y = np.zeros(2 * m + 1, dtype=np.int64)
    y[m : 2 * m : 2] = -sign
    y[m + 1 : 2 * m : 2] = sign
    y[2 * m - 2] = sign
    y[-1] = 2
    if branch_x == 0:
        y[m - 1] = -1
    else:
        y[0], y[m - 1] = -2, 1
    return y


def _certified_value(c, A, b, x: np.ndarray, y: np.ndarray) -> float:
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


def lp_min_chain_given_bias(n: int, delta: float) -> BiasedChainLP:
    """Minimize the chain value over non-signaling two-party binary tables
    whose Alice marginal at setting 0 is biased away from uniform by at
    least ``delta`` in statistical distance.

    The bias constraint is linearized by fixing an outcome branch,
    P(X = branch_x | A = 0) >= 1/2 + delta; relabeling x -> 1-x maps the
    feasible set of one branch onto the other's, so both branches are
    solved.  No solver runs: each branch's optimum, ``2*delta``, is
    written in closed form as a primal point and an integer dual point,
    and the pair is checked against the program :func:`_chain_pair_lp`
    builds (see :func:`_certified_value`).  A failed check raises
    ArithmeticError; nothing falls back to an iterative solver.
    """
    if not 2 <= n <= _LP_MAX_N:
        raise ValueError(f"LP probe supports 2 <= N <= {_LP_MAX_N}")
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 1/2]")
    values: list[float] = []
    duals: list[tuple[int, ...]] = []
    for branch_x in (0, 1):
        c, A, b = _chain_pair_lp(n, delta, branch_x)
        x = _chain_pair_primal(n, delta, branch_x)
        y = _chain_pair_dual(n, branch_x)
        values.append(_certified_value(c, A, b, x, y))
        duals.append(tuple(y.tolist()))
        if branch_x == 0:
            joints = x[:-1].reshape(-1, 2, 2)
    # Off-chain pairs get the product of their two marginals, read on the
    # last chain pair holding each setting, which keeps the table
    # non-signaling; chain pairs get branch 0's optimal joints.
    pairs = chain_pairs(n)
    alice = {a: k for k, (a, _, _) in enumerate(pairs)}
    bob = {b: k for k, (_, b, _) in enumerate(pairs)}
    pa = joints[[alice[a] for a in range(n)]].sum(axis=2)
    pb = joints[[bob[b] for b in range(n)]].sum(axis=1)
    table = pa[:, None, :, None] * pb[None, :, None, :]
    a_idx, b_idx, _ = zip(*pairs)
    table[a_idx, b_idx] = joints
    argmin = ConditionalDistribution((n, n), (2, 2), table)
    return BiasedChainLP(
        values[0], values[0] - 2.0 * delta, argmin, (values[0], values[1]), (duals[0], duals[1])
    )
