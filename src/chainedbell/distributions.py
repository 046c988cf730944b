"""Dense conditional probability tables and statistical-distance tools.

The central value type is :class:`ConditionalDistribution`, a table
P(x_1..x_n | a_1..a_n) over finite per-party alphabets.  Values are
immutable after construction and every operation is a pure function, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NORM_TOL",
    "IDENTITY_TOL",
    "MAX_PARTIES",
    "ConditionalDistribution",
    "Distribution",
    "NonSignalingReport",
    "CouplingReport",
    "stat_distance",
    "marginalize",
    "assert_nonsignaling",
    "average_conditional_distance",
    "coupling_distance_bound",
    "as_distribution",
    "uniform_distribution",
    "read_json_file",
    "write_json_file",
]

# Tolerance ledger: normalization and marginal matching live at 1e-9,
# algebraic identities between two ways of computing the same number at
# 1e-12.  Double precision over tables of at most ~1e4 entries.
NORM_TOL = 1e-9
IDENTITY_TOL = 1e-12

# Only renormalize conditional slices that stray beyond this.  Reloading an
# exported table then leaves every float untouched, which is what makes
# JSON round-trips bit-exact.
_RENORM_TRIGGER = 1e-12

# The non-signaling check enumerates all 2^n - 1 non-empty output subsets;
# bounding the party count keeps that exhaustive check exact and cheap.
MAX_PARTIES = 4

# Scratch budget, in float64 elements, for one block of pairwise slice
# differences in :func:`_max_pairwise_tv` (2 MiB).
_PAIRWISE_BLOCK_ELEMS = 1 << 18


class ConditionalDistribution:
    """A table P(x_1 .. x_n | a_1 .. a_n) over finite per-party alphabets.

    Party ``i`` owns input ``a_i`` (``input_sizes[i]`` values; size 1 means
    "no input") and output ``x_i`` (``output_sizes[i]`` values).  ``table``
    is indexed ``[a_1, ..., a_n, x_1, ..., x_n]`` in row-major order and
    every conditional slice sums to 1 within ``NORM_TOL``.

    Construction clamps negative dust (entries in [-NORM_TOL, 0), as
    produced by LP solvers and float subtraction) to zero and rejects
    anything more negative; slices that are off normalization by more than
    ``NORM_TOL`` are rejected, smaller drift is divided out.
    """

    __slots__ = ("input_sizes", "output_sizes", "table")

    def __init__(
        self,
        input_sizes: Sequence[int],
        output_sizes: Sequence[int],
        table: np.ndarray,
    ):
        input_sizes = tuple(int(s) for s in input_sizes)
        output_sizes = tuple(int(s) for s in output_sizes)
        if not input_sizes or len(input_sizes) != len(output_sizes):
            raise ValueError("need one input and one output alphabet per party")
        if min(input_sizes + output_sizes) < 1:
            raise ValueError("alphabet sizes must be >= 1")
        table = np.asarray(table, dtype=float)
        expected = input_sizes + output_sizes
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match {expected}")
        if not np.all(np.isfinite(table)):
            raise ValueError("table entries must be finite")
        lo = float(table.min())
        if lo < -NORM_TOL:
            raise ValueError(f"negative entry {lo} below -{NORM_TOL}")
        if lo < 0.0:
            table = np.clip(table, 0.0, None)
        out_axes = tuple(range(len(input_sizes), table.ndim))
        sums = table.sum(axis=out_axes)
        drift = float(np.abs(sums - 1.0).max())
        if drift > NORM_TOL:
            raise ValueError(f"conditional slices must sum to 1 (off by {drift})")
        if drift > _RENORM_TRIGGER:
            table = table / sums[(...,) + (None,) * len(output_sizes)]
        table = np.ascontiguousarray(table)
        table.setflags(write=False)
        object.__setattr__(self, "input_sizes", input_sizes)
        object.__setattr__(self, "output_sizes", output_sizes)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_parties(self) -> int:
        return len(self.input_sizes)

    def conditional(self, inputs: Sequence[int]) -> "Distribution":
        """Output distribution for one full input assignment."""
        inputs = tuple(int(i) for i in inputs)
        if len(inputs) != self.n_parties:
            raise ValueError("need one input value per party")
        return Distribution(self.table[inputs])

    def _size_fields(self) -> dict:
        return {
            "parties": self.n_parties,
            "outputs": list(self.output_sizes),
            "inputs": list(self.input_sizes),
        }

    def to_dict(self) -> dict:
        """JSON-ready form: sizes plus the flat row-major table."""
        return {**self._size_fields(), "table": self.table.ravel().tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ConditionalDistribution":
        try:
            n = int(data["parties"])
            outputs = [int(s) for s in data["outputs"]]
            inputs = [int(s) for s in data["inputs"]]
            flat = np.asarray(data["table"], dtype=float)
        except (KeyError, TypeError, OverflowError) as exc:
            # OverflowError: a size of 1e400 parses as infinity.
            raise ValueError(f"malformed distribution document: {exc}") from exc
        if len(outputs) != n or len(inputs) != n:
            raise ValueError("party count does not match the size lists")
        shape = tuple(inputs) + tuple(outputs)
        if flat.size != int(np.prod(shape)):
            raise ValueError("flat table length does not match the sizes")
        return cls(tuple(inputs), tuple(outputs), flat.reshape(shape))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConditionalDistribution)
            and self.input_sizes == other.input_sizes
            and self.output_sizes == other.output_sizes
            and np.array_equal(self.table, other.table)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(inputs={self.input_sizes}, "
            f"outputs={self.output_sizes})"
        )


class Distribution(ConditionalDistribution):
    """Unconditional joint distribution: every party has the trivial input.

    ``probs`` exposes the table shaped over the output components only.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim == 0:
            raise ValueError("a distribution needs at least one component")
        super().__init__(
            (1,) * probs.ndim, probs.shape, probs.reshape((1,) * probs.ndim + probs.shape)
        )

    @property
    def probs(self) -> np.ndarray:
        return self.table.reshape(self.output_sizes)


@dataclass(frozen=True)
class NonSignalingReport:
    """Worst marginal dependence on the other parties' inputs."""

    max_violation: float
    passed: bool
    tol: float
    worst_subset: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CouplingReport:
    """Marginal distance versus disagreement probability of one coupling."""

    lhs: float
    rhs: float
    passed: bool


def _unconditional_probs(p: ConditionalDistribution) -> np.ndarray:
    if any(s != 1 for s in p.input_sizes):
        raise ValueError("expected an unconditional distribution (all inputs trivial)")
    return p.table.reshape(p.output_sizes)


def _essential_shape(sizes: Sequence[int]) -> tuple[int, ...]:
    return tuple(s for s in sizes if s != 1)


def stat_distance(p: ConditionalDistribution, q: ConditionalDistribution) -> float:
    """Statistical (total-variation) distance between two distributions.

    Computed as half the L1 difference and cross-checked against the
    one-sided excess form sum_x max(0, Q(x) - P(x)); the two must agree
    within ``IDENTITY_TOL``.
    """
    pv = _unconditional_probs(p).ravel()
    qv = _unconditional_probs(q).ravel()
    if _essential_shape(p.output_sizes) != _essential_shape(q.output_sizes):
        raise ValueError(
            f"alphabet mismatch: {p.output_sizes} vs {q.output_sizes}"
        )
    half_l1 = 0.5 * float(np.abs(pv - qv).sum())
    excess = float(np.maximum(qv - pv, 0.0).sum())
    if abs(half_l1 - excess) > IDENTITY_TOL:
        raise AssertionError(
            f"distance identity violated: {half_l1} vs {excess}"
        )
    return half_l1


def marginalize(
    p: ConditionalDistribution, keep_outputs: Iterable[int]
) -> ConditionalDistribution:
    """Sum out the outputs of every party not in ``keep_outputs``.

    Dropped parties keep their inputs and are left with the trivial
    (size-1) output alphabet.
    """
    keep = sorted({int(i) for i in keep_outputs})
    if not keep:
        raise ValueError("keep_outputs must be a non-empty party subset")
    if keep[0] < 0 or keep[-1] >= p.n_parties:
        raise ValueError("party index out of range")
    drop = [i for i in range(p.n_parties) if i not in keep]
    if not drop:
        return p
    axes = tuple(p.n_parties + i for i in drop)
    table = p.table.sum(axis=axes, keepdims=True)
    new_outputs = tuple(
        1 if i in set(drop) else s for i, s in enumerate(p.output_sizes)
    )
    return ConditionalDistribution(p.input_sizes, new_outputs, table)


def _max_pairwise_tv(arr: np.ndarray) -> float:
    """Largest statistical distance between two context slices.

    ``arr`` has shape (c, s, o): c contexts, s fixed input tuples, o
    outcomes.  Returns the max over context pairs c, c' and over s of
    0.5 * sum_o |arr[c, s, o] - arr[c', s, o]|.  Scratch memory is at most
    one copy of ``arr`` plus a block of ``_PAIRWISE_BLOCK_ELEMS`` elements
    (or of one (s, o) slice, if that is larger); it does not grow with c^2.

    The result is bit-identical to the all-pairs broadcast
    ``0.5 * np.abs(arr[:, None] - arr[None, :]).sum(axis=-1)`` evaluated on
    a C-ordered copy of ``arr``, and so on ``arr`` itself whenever its o
    axis varies fastest in memory, as it does for every caller here.
    (NumPy sums o >= 8 terms in a different order along a slow axis.)
    """
    c, s, o = arr.shape
    if o == 1:
        # Float subtraction is monotone, so no pair rounds above max - min.
        return 0.5 * float((arr.max(axis=0) - arr.min(axis=0)).max())
    if o == 2:
        # Two contiguous column planes; adding the two |differences| is one
        # float add, which rounds exactly like the length-2 ``sum(axis=-1)``.
        x0 = np.ascontiguousarray(arr[..., 0])
        x1 = np.ascontiguousarray(arr[..., 1])

        def block_max(rows: slice, cols: slice) -> float:
            d = x0[rows, None] - x0[None, cols]
            np.abs(d, out=d)
            d1 = x1[rows, None] - x1[None, cols]
            np.abs(d1, out=d1)
            d += d1
            return float(d.max())

    else:

        def block_max(rows: slice, cols: slice) -> float:
            # Keep NumPy's own reduction: it does not sum o >= 3 terms left
            # to right, so per-column accumulation would round differently.
            d = np.subtract(arr[rows, None], arr[None, cols], order="C")
            np.abs(d, out=d)
            return float(d.sum(axis=-1).max())

    per_block = max(1, _PAIRWISE_BLOCK_ELEMS // (s * o))  # pairs per block
    worst = 0.0
    i = 0
    while i < c - 1:
        # Rows i .. i+rows-1 against every later context, in column chunks
        # of ``width``.  Pairs j <= row inside a block repeat a pair or are
        # the zero diagonal (|x - y| == |y - x| exactly), so they cannot
        # raise the maximum.
        rows = max(1, per_block // (c - i - 1))
        width = max(1, per_block // rows)
        for j in range(i + 1, c, width):
            worst = max(worst, block_max(slice(i, i + rows), slice(j, j + width)))
        i += rows
    return 0.5 * worst


def assert_nonsignaling(
    p: ConditionalDistribution, tol: float = NORM_TOL
) -> NonSignalingReport:
    """Exhaustive marginal-independence check over all party subsets.

    For every non-empty subset S and every fixed input tuple for S, the
    output marginal on S must not depend on the remaining parties' inputs;
    the report carries the largest statistical distance found across all
    subsets and input pairs.
    """
    n = p.n_parties
    if n > MAX_PARTIES:
        raise ValueError(f"non-signaling check supports at most {MAX_PARTIES} parties")
    worst = 0.0
    worst_subset: tuple[int, ...] | None = None
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            comp = tuple(i for i in range(n) if i not in subset)
            if not comp or all(p.input_sizes[i] == 1 for i in comp):
                continue
            drop_axes = tuple(n + i for i in comp)
            marg = p.table.sum(axis=drop_axes)
            # Remaining axes: all n inputs, then the kept outputs in
            # ascending party order.
            perm = comp + subset + tuple(range(n, n + len(subset)))
            arr = marg.transpose(perm)
            c_size = int(np.prod([p.input_sizes[i] for i in comp]))
            s_size = int(np.prod([p.input_sizes[i] for i in subset]))
            o_size = int(np.prod([p.output_sizes[i] for i in subset]))
            arr = arr.reshape(c_size, s_size, o_size)
            v = _max_pairwise_tv(arr)
            if v > worst:
                worst, worst_subset = v, subset
    return NonSignalingReport(worst, worst <= tol, tol, worst_subset)


def average_conditional_distance(
    p: ConditionalDistribution, q: ConditionalDistribution
) -> float:
    """Distance between two (X, Z) joints as the Z-average of conditional
    distances, valid when the Z-marginals agree within ``NORM_TOL``.

    The average form must reproduce the direct joint distance within
    ``NORM_TOL``; a mismatch indicates numerical corruption and raises.
    """
    pj = _unconditional_probs(p)
    qj = _unconditional_probs(q)
    if pj.ndim != 2 or qj.ndim != 2 or pj.shape != qj.shape:
        raise ValueError("expected two (X, Z) joints with matching shapes")
    pz = pj.sum(axis=0)
    qz = qj.sum(axis=0)
    if 0.5 * float(np.abs(pz - qz).sum()) > NORM_TOL:
        raise ValueError("Z-marginals differ beyond tolerance")
    terms = []
    for z in range(pj.shape[1]):
        wz = float(pz[z])
        if wz <= 0.0:
            continue
        px = pj[:, z] / wz
        qx = qj[:, z] / float(qz[z]) if qz[z] > 0.0 else np.zeros_like(px)
        terms.append(wz * 0.5 * float(np.abs(px - qx).sum()))
    avg = math.fsum(terms)
    joint = stat_distance(p, q)
    if abs(avg - joint) > NORM_TOL:
        raise AssertionError(
            f"conditional-average distance {avg} disagrees with joint {joint}"
        )
    return avg


def coupling_distance_bound(p_xy: ConditionalDistribution) -> CouplingReport:
    """Marginal distance versus disagreement probability of a coupling.

    For a joint P(X, Y) on a shared alphabet, D(P_X, P_Y) is at most the
    probability that X != Y.
    """
    pj = _unconditional_probs(p_xy)
    if pj.ndim != 2 or pj.shape[0] != pj.shape[1]:
        raise ValueError("expected a joint over a shared alphabet (square table)")
    px = pj.sum(axis=1)
    py = pj.sum(axis=0)
    lhs = 0.5 * float(np.abs(px - py).sum())
    rhs = float(pj.sum() - np.trace(pj))
    return CouplingReport(lhs, rhs, lhs <= rhs + IDENTITY_TOL)


def as_distribution(p: ConditionalDistribution) -> Distribution:
    """View an all-trivial-input conditional as a plain distribution."""
    return Distribution(_unconditional_probs(p))


def uniform_distribution(sizes: Sequence[int]) -> Distribution:
    """Uniform distribution over the product of the given alphabets."""
    sizes = tuple(int(s) for s in sizes)
    return Distribution(np.full(sizes, 1.0 / float(np.prod(sizes))))


def _json_float_list(flat: np.ndarray) -> str:
    """``json.dumps(flat.tolist())`` for a 1-d float64 array, without the
    brackets, formatting each distinct value once.

    Values are keyed by their bits, so ``0.0`` and ``-0.0`` keep their own
    text.  Table entries are finite by construction (the table constructor
    rejects NaN and infinities), so json's ``NaN``/``Infinity`` spellings
    never arise and need no branch here.
    """
    keys, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = np.fromiter(map(repr, keys.view(np.float64).tolist()), object, len(keys))
    return ", ".join(text[inverse].tolist())


def write_json_file(p: ConditionalDistribution, path: str | Path) -> None:
    """Write ``json.dumps(p.to_dict()) + "\\n"``, byte for byte.

    A chained table holds few distinct values (an N=200 quantum table has
    1 607 among 160 000 entries), so the table is formatted by
    :func:`_json_float_list` and spliced after the size fields.
    """
    head = json.dumps(p._size_fields())[:-1]  # drop the closing brace
    table = _json_float_list(p.table.ravel())
    Path(path).write_text(f'{head}, "table": [{table}]}}\n')


def _load_json(path: str | Path):
    """Parse a JSON file.  A document nested too deeply for the parser is a
    malformed input (ValueError), not a crash."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON document nested too deeply") from exc


def read_json_file(path: str | Path) -> ConditionalDistribution:
    return ConditionalDistribution.from_dict(_load_json(path))
