"""Test-side oracles for the distance lemmas behind the locality bound.

The library computes the locality distance and the bound directly; these
are the textbook lemmas they rest on (marginals never increase distance,
the conditional-average form of a distance, the coupling bound), kept
here so the suites can check them on random tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from chainedbell import ConditionalDistribution, Distribution


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

