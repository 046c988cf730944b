"""Test-side oracles for the distance lemmas behind the locality bound.

The library computes the locality distance and the bound directly; these
are the textbook lemmas they rest on (marginals never increase distance,
the conditional-average form of a distance, the coupling bound), kept
here so the suites can check them on random tables.  ``Distribution`` and
``stat_distance`` are the one-table-at-a-time forms of the distance that
the library's one-pass ``locality_bound_check`` replaced.  Built from
them, ``per_setting_locality_bound`` measures every setting against the
common hidden marginal at (a, b) = (0, 0); the library measures each
setting against its own, through ``locality_measure``'s kernel, and stays
within ``IDENTITY_TOL`` of this looser reference.
``strategy_distribution`` is the table a ``DeterministicStrategy``
produces.

The model oracles rebuild the dense route that models took before they
kept per-side responses: the (N, N, n_u, n_v, 2, 2) response array, the
four-party table P(x, y, u, v | a, b) built from it
(:func:`induced_distribution`), its three-party and Alice-side views, and
the direct Leggett test ``falsify_leggett``, which returns the
measurement and the cap.

``plain_read_json_file`` is the distribution reader before its route for
the writer's own layout: the whole file through ``json.loads``, then
``from_dict``.  ``read_json_file`` must give its bits and its errors.

``plain_write_shots_csv`` is the shot CSV writer before it formatted each
distinct row of a block once: every block row by row, a few thousand
rows per write.  ``write_shots_csv`` must write its bytes.

``full_parse`` is the CLI's parse before it handed the rest of an argv
that starts with a subcommand straight to that subcommand's parser: the
whole argv through the full parser.  ``main`` must print the same bytes
and exit with the same code on either route.

``reference_normalised``, ``reference_weights``,
``reference_check_local_parts``, ``reference_mix_with_noise`` and
``reference_qm_table`` are the table rule, the model checks, the noise mix
and the einsum Born-table build as they were written with NumPy's method
wrappers and per-call constants.  The library's leaner forms must give
their result bits, their exception types and their messages.

``reference_locality_distances`` is the locality kernel as it was before
it ran in row blocks with certified long-double row sums: all rows in one
pass and one ``math.fsum`` per row.  ``_locality_distances`` must give its
per-setting distances bit for bit.
"""

import itertools
import json
import math
from pathlib import Path
from dataclasses import dataclass

import numpy as np

from chainedbell import ConditionalDistribution, cli, quantum_chain_closed_form
from chainedbell.distributions import IDENTITY_TOL, NORM_TOL, _normalised
from chainedbell.experiment import _COLUMNS, _check_block
from chainedbell.hvm import (
    MARGINAL_INDEPENDENCE_TOL,
    _malus_responses,
    LocalityMeasurement,
    locality_measure,
)
from chainedbell.quantum import _chained_angles


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
    table, within ``IDENTITY_TOL``, one setting at a time: each setting's
    (c, x, z) joint and the uniform reference on the (0, 0) hidden
    marginal built as two distributions, and their distance taken with
    :func:`stat_distance`."""
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


def strategy_distribution(strategy) -> ConditionalDistribution:
    """The deterministic table P(x, y | a, b) a ``DeterministicStrategy``
    produces."""
    n = len(strategy.alice_map)
    table = np.zeros((n, n, 2, 2))
    for a in range(n):
        for b in range(n):
            table[a, b, strategy.alice_map[a], strategy.bob_map[b]] = 1.0
    return ConditionalDistribution((n, n), (2, 2), table)


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


def dense_kernels(model) -> np.ndarray:
    """The model's responses as one (N, N, n_u, n_v, 2, 2) array
    P(x, y | a, b, u, v): the product of the two sides' responses, or the
    table broadcast over the dummy hidden pair, each kernel normalised by
    the table rule."""
    n, nu, nv = model.n_settings, model.n_u, model.n_v
    if model.table is None:
        raw = np.einsum("aux,bvy->abuvxy", model.alice, model.bob)
    else:
        raw = np.broadcast_to(model.table.table[:, :, None, None], (n, n, nu, nv, 2, 2))
    return _normalised(raw, 2)


def dense_weights(model) -> np.ndarray:
    """The joint hidden weights as the dense model held them: ``p_uv``, the
    uniform 1/(n_u n_v) when both sides are uniform (its default), or the
    outer product of the two sides' weights, always divided by their sum."""
    nu, nv = model.n_u, model.n_v
    if model.p_uv is not None:
        w = model.p_uv
    elif (model.p_u == 1.0 / nu).all() and (model.p_v == 1.0 / nv).all():
        w = np.full((nu, nv), 1.0 / (nu * nv))
    else:
        w = np.outer(model.p_u, model.p_v)
    return w / w.sum()


def induced_distribution(model) -> ConditionalDistribution:
    """Four-party table P(x, y, u, v | a, b) of a model, each dense kernel
    times its hidden-variable weight.  Parties 2 and 3 carry the hidden
    indices as outputs and have no inputs."""
    n, nu, nv = model.n_settings, model.n_u, model.n_v
    t = np.einsum("uv,abuvxy->abxyuv", dense_weights(model), dense_kernels(model))
    return ConditionalDistribution(
        (n, n, 1, 1), (2, 2, nu, nv), t.reshape(n, n, 1, 1, 2, 2, nu, nv)
    )


def hidden_joint_form(p4: ConditionalDistribution) -> ConditionalDistribution:
    """Repack a four-party induced table into three parties by merging the
    two hidden outputs into one joint alphabet (z = u * n_v + v); the
    merged party keeps a trivial input."""
    if p4.n_parties != 4 or p4.input_sizes[2:] != (1, 1):
        raise ValueError("expected a four-party induced table")
    n_a, n_b = p4.input_sizes[:2]
    ox, oy, nu, nv = p4.output_sizes
    table = p4.table.reshape(n_a, n_b, 1, ox, oy, nu * nv)
    return ConditionalDistribution((n_a, n_b, 1), (ox, oy, nu * nv), table)


def xu_conditional(
    p4: ConditionalDistribution,
    tol: float = MARGINAL_INDEPENDENCE_TOL,
    average_b: bool = False,
) -> ConditionalDistribution:
    """Alice-side view P(x, u | a) of a four-party induced table.

    Sums out Bob's outcome and hidden variable, then checks that nothing
    left depends on Bob's setting (within ``tol``) and removes that axis:
    it keeps Bob's first setting, or with ``average_b`` pools over all.
    """
    if p4.n_parties != 4 or p4.input_sizes[2:] != (1, 1):
        raise ValueError("expected a four-party induced table")
    n_a, n_b = p4.input_sizes[:2]
    ox, oy, nu, nv = p4.output_sizes
    marg = p4.table.sum(axis=(5, 7))  # drop y and v outputs -> (a, b, 1, 1, x, u)
    if n_b > 1:
        dev = float((0.5 * np.abs(marg - marg[:, :1]).sum(axis=(-2, -1))).max())
        if dev > tol:
            raise ValueError(f"Alice-side table depends on Bob's setting (deviation {dev})")
    reduced = marg.mean(axis=1) if average_b else marg[:, 0]
    return ConditionalDistribution((n_a, 1), (ox, nu), reduced.reshape(n_a, 1, ox, nu))


def leggett_xu_table(n: int, vectors, weights=None) -> ConditionalDistribution:
    """Alice's (outcome, hidden-vector) table of a Leggett-type model,
    straight from the squared-overlap rule: ``w * p0`` and ``w * (1 - p0)``,
    with given weights divided by their sum (uniform ones are 1/k)."""
    vecs = np.asarray(vectors, dtype=float)
    k = len(vecs)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    if weights is not None:
        w = w / w.sum()
    p0 = _malus_responses(_chained_angles(n)[0], vecs)[..., 0]  # (N, k)
    table = np.empty((n, 1, 2, k))
    table[:, 0, 0, :] = w[None, :] * p0
    table[:, 0, 1, :] = w[None, :] * (1.0 - p0)
    return ConditionalDistribution((n, 1), (2, k), table)


def falsify_leggett(n: int, vectors, weights=None) -> tuple[LocalityMeasurement, float]:
    """The measurement of a Leggett-type hidden-vector distribution, from
    :func:`leggett_xu_table`, and the locality cap certified by the ideal
    quantum chain value, half of it.  In-plane vector mass forces a
    distance of about 1/pi per setting, which already exceeds the cap at
    N = 2."""
    lm = locality_measure(leggett_xu_table(n, vectors, weights))
    return lm, 0.5 * quantum_chain_closed_form(n)


def plain_read_json_file(path) -> ConditionalDistribution:
    """A distribution file parsed whole by ``json.loads``, one nested too
    deeply for the parser being a ValueError, then read by ``from_dict``."""
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON document nested too deeply") from exc
    return ConditionalDistribution.from_dict(doc)


def plain_write_shots_csv(blocks, path) -> int:
    """Shot blocks written to CSV row by row, 4096 rows per write, after
    the same block checks as ``write_shots_csv``; returns the row count."""
    it = map(_check_block, blocks)
    first = next(it, None)
    if first is None:
        raise ValueError("no records to write")
    width = first.shape[1]
    row = ",".join(["%d"] * width) + "\r\n"
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_COLUMNS[:width]) + "\r\n")
        for block in itertools.chain([first], it):
            if block.shape[1] != width:
                raise ValueError("shot blocks of one stream must share their columns")
            for start in range(0, len(block), 4096):
                part = block[start:start + 4096]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))
            rows += len(block)
    return rows


def full_parse(argv):
    """``argv`` read by the full CLI parser alone."""
    return cli.build_parser().parse_args(argv)


def _reference_slice_sums(flat: np.ndarray) -> np.ndarray:
    run = flat.shape[1]
    if run >= 8:
        return flat.sum(axis=1)
    sums = flat[:, 0] + 0.0
    for q in range(1, run):
        sums += flat[:, q]
    return sums


def reference_normalised(table: np.ndarray, n_out: int) -> np.ndarray:
    """The table rule: finite entries, dust down to -NORM_TOL clamped,
    slices off 1 by more than NORM_TOL rejected and by more than 1e-12
    divided by their sum."""
    lo, hi = float(table.min()), float(table.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("table entries must be finite")
    if lo < -NORM_TOL:
        raise ValueError(f"negative entry {lo} below -{NORM_TOL}")
    if lo < 0.0:
        table = np.clip(table, 0.0, None)
    table = np.ascontiguousarray(table)
    flat = table.reshape(-1, math.prod(table.shape[table.ndim - n_out:]))
    sums = _reference_slice_sums(flat)
    worst = max(float(sums.max()) - 1.0, 1.0 - float(sums.min()))
    if worst > NORM_TOL:
        raise ValueError(f"conditional slices must sum to 1 (off by {worst})")
    if worst > 1e-12:
        far = np.abs(sums - 1.0) > 1e-12
        flat = flat.copy()
        flat[far] /= sums[far, None]
        table = flat.reshape(table.shape)
    return table


def reference_weights(weights, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Model weights: the shape, finite, non-negative and summing to 1
    checks, then the table rule over the whole array."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    if w.min() < -NORM_TOL:
        raise ValueError(f"{name} must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return reference_normalised(w, w.ndim)


def reference_check_local_parts(table: np.ndarray) -> None:
    """A table model's non-signaling check on its (N, N, 2, 2) array."""
    k00, k01, k10, k11 = (table[..., x, y] for x in (0, 1) for y in (0, 1))
    x0, x1 = k00 + k01, k10 + k11
    dev_x = float((0.5 * (np.abs(x0 - x0[:, :1]) + np.abs(x1 - x1[:, :1]))).max())
    y0, y1 = k00 + k10, k01 + k11
    dev_y = float((0.5 * (np.abs(y0 - y0[:1]) + np.abs(y1 - y1[:1]))).max())
    if max(dev_x, dev_y) > NORM_TOL:
        raise ValueError(
            "averaged responses leak across sides: one side's outcome "
            f"marginal depends on the other side's context (deviation "
            f"{max(dev_x, dev_y)})"
        )


def reference_mix_with_noise(p: ConditionalDistribution, visibility: float):
    """v*P + (1-v)*U, U uniform over the output tuples."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    u = 1.0 / float(np.prod(p.output_sizes))
    table = visibility * p.table + (1.0 - visibility) * u
    return ConditionalDistribution(p.input_sizes, p.output_sizes, table)


def reference_qm_table(n: int, visibility: float | None = None) -> ConditionalDistribution:
    """The chained Born table by one einsum over both sides' outcome
    states and the state's amplitudes, mixed with noise unless
    ``visibility`` is None."""
    alice, bob = _chained_angles(n)

    def states(angles):
        return np.array([[[math.cos(0.5 * t), math.sin(0.5 * t)],
                          [math.sin(0.5 * t), -math.cos(0.5 * t)]] for t in angles])

    psi = np.eye(2) / math.sqrt(2.0)
    amps = np.einsum("axi,byj,ij->abxy", states(alice), np.asfortranarray(states(bob)), psi)
    table = ConditionalDistribution((n, n), (2, 2), amps * amps)
    return table if visibility is None else reference_mix_with_noise(table, visibility)


def reference_locality_distances(t: np.ndarray, pz: np.ndarray | None = None) -> list[float]:
    """Per-row distance of a C-ordered (rows, 2, k) array of (outcome,
    hidden) joints from (uniform outcome) x (the row's hidden marginal):
    the hidden-average of the conditional distances, one ``math.fsum`` per
    row, with no cross-check."""
    x0, x1 = t[:, 0], t[:, 1]
    if pz is None:
        pz = x0 + x1
    live = pz > 0.0
    terms = np.zeros_like(pz)
    cond = np.zeros_like(pz)
    every = bool(live.all())
    for plane in (x0, x1):
        np.divide(plane, pz, out=cond, where=True if every else live)
        cond -= 0.5
        terms += np.abs(cond, out=cond)
    terms *= np.multiply(pz, 0.5, out=cond)
    return [math.fsum(memoryview(row)) for row in terms]
