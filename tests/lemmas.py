"""Test-side oracles for the distance lemmas behind the locality bound.

The library computes the locality distance and the bound directly; these
are the textbook lemmas they rest on (marginals never increase distance,
the conditional-average form of a distance, the coupling bound), kept
here so the suites can check them on random tables.  ``Distribution`` and
``stat_distance`` are the one-table-at-a-time forms of the distance that
the library's one-pass ``locality_bound_check`` replaced; its tests
compare against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from chainedbell import ConditionalDistribution
from chainedbell.distributions import IDENTITY_TOL


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
class CouplingReport:
    """Marginal distance versus disagreement probability of one coupling."""

    lhs: float
    rhs: float
    passed: bool


def _probs(p: ConditionalDistribution) -> np.ndarray:
    if any(s != 1 for s in p.input_sizes):
        raise ValueError("expected an unconditional distribution (all inputs trivial)")
    return p.table.reshape(p.output_sizes)


def _essential_shape(sizes) -> tuple[int, ...]:
    return tuple(s for s in sizes if s != 1)


def stat_distance(p: ConditionalDistribution, q: ConditionalDistribution) -> float:
    """Statistical (total-variation) distance between two distributions.

    Computed as half the L1 difference and cross-checked against the
    one-sided excess form sum_x max(0, Q(x) - P(x)); the two must agree
    within ``IDENTITY_TOL``.
    """
    pv = _probs(p).ravel()
    qv = _probs(q).ravel()
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


def per_setting_locality_bound(p: ConditionalDistribution):
    """``(lhs_x, lhs_y)`` of ``locality_bound_check`` on a three-party
    table, one setting at a time: each setting's (c, x, z) joint and the
    uniform reference built as two distributions, and their distance taken
    with :func:`stat_distance`."""
    t = p.table  # (N, N, n_c, 2, 2, oz)
    n, n_c, oz = p.input_sizes[0], p.input_sizes[2], p.output_sizes[2]
    pc = np.full(n_c, 1.0 / n_c)
    p_zc = t[0, 0].sum(axis=(1, 2)) * pc[:, None]
    uniform_half = np.broadcast_to(0.5 * p_zc[:, None, :], (n_c, 2, oz)).copy()
    lhs_x = tuple(
        stat_distance(Distribution(t[a, 0].sum(axis=2) * pc[:, None, None]),
                      Distribution(uniform_half))
        for a in range(n)
    )
    lhs_y = tuple(
        stat_distance(Distribution(t[0, b].sum(axis=1) * pc[:, None, None]),
                      Distribution(uniform_half))
        for b in range(n)
    )
    return lhs_x, lhs_y


def as_distribution(p: ConditionalDistribution) -> Distribution:
    """View an all-trivial-input conditional as a plain distribution."""
    return Distribution(_probs(p))


def uniform_distribution(sizes) -> Distribution:
    """Uniform distribution over the product of the given alphabets."""
    sizes = tuple(int(s) for s in sizes)
    return Distribution(np.full(sizes, 1.0 / float(np.prod(sizes))))


def conditional(p: ConditionalDistribution, inputs) -> Distribution:
    """Output distribution of ``p`` for one full input assignment."""
    inputs = tuple(int(i) for i in inputs)
    if len(inputs) != p.n_parties:
        raise ValueError("need one input value per party")
    return Distribution(p.table[inputs])


def marginalize(p: ConditionalDistribution, keep_outputs) -> ConditionalDistribution:
    """Sum out the outputs of every party not in ``keep_outputs``; dropped
    parties keep their inputs and get the trivial (size-1) output."""
    keep = sorted({int(i) for i in keep_outputs})
    if not keep:
        raise ValueError("keep_outputs must be a non-empty party subset")
    if keep[0] < 0 or keep[-1] >= p.n_parties:
        raise ValueError("party index out of range")
    drop = [i for i in range(p.n_parties) if i not in keep]
    if not drop:
        return p
    table = p.table.sum(axis=tuple(p.n_parties + i for i in drop), keepdims=True)
    outputs = tuple(1 if i in drop else s for i, s in enumerate(p.output_sizes))
    return ConditionalDistribution(p.input_sizes, outputs, table)


def average_conditional_distance(
    p: ConditionalDistribution, q: ConditionalDistribution
) -> float:
    """Distance between two (X, Z) joints with equal Z-marginals, as the
    Z-average of the conditional X distances."""
    pj, qj = _probs(p), _probs(q)
    if pj.ndim != 2 or qj.ndim != 2 or pj.shape != qj.shape:
        raise ValueError("expected two (X, Z) joints with matching shapes")
    pz, qz = pj.sum(axis=0), qj.sum(axis=0)
    if 0.5 * float(np.abs(pz - qz).sum()) > 1e-9:
        raise ValueError("Z-marginals differ beyond tolerance")
    terms = []
    for z in range(pj.shape[1]):
        wz = float(pz[z])
        if wz <= 0.0:
            continue
        px = pj[:, z] / wz
        qx = qj[:, z] / float(qz[z]) if qz[z] > 0.0 else np.zeros_like(px)
        terms.append(wz * 0.5 * float(np.abs(px - qx).sum()))
    return math.fsum(terms)


def coupling_distance_bound(p_xy: ConditionalDistribution) -> CouplingReport:
    """For a joint P(X, Y) on a shared alphabet, D(P_X, P_Y) <= P[X != Y]."""
    pj = _probs(p_xy)
    if pj.ndim != 2 or pj.shape[0] != pj.shape[1]:
        raise ValueError("expected a joint over a shared alphabet (square table)")
    lhs = 0.5 * float(np.abs(pj.sum(axis=1) - pj.sum(axis=0)).sum())
    rhs = float(pj.sum() - np.trace(pj))
    return CouplingReport(lhs, rhs, lhs <= rhs + 1e-12)

