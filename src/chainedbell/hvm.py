"""Hidden-variable models for the chained layout: per-side Leggett-type
responses or one non-local table, each side's (outcome, hidden) table,
locality measurement, and the non-signaling locality bound.

Vector convention.  The squared-overlap ("Malus-law") marginal rule for a
direction measurement on a qubit is implemented in Bloch coordinates,
P(outcome 0 | measurement, u) = (1 + a.u) / 2, where ``a`` is the Bloch
vector of the measurement's outcome-0 projector and ``u`` the hidden unit
vector.  Under this reading, hidden vectors orthogonal to the measurement
plane give uniform outcomes and therefore carry no usable local
information; a literal squared 3-vector dot product would instead make
orthogonal vectors deterministic, which is not the intended physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chained import evaluate_chain
from .distributions import (
    IDENTITY_TOL,
    NORM_TOL,
    ConditionalDistribution,
    _check_numeric_fields,
    _l1_upper_bounds,
    _load_json,
    _max_pairwise_tv,
    _normalised,
    _slice_sums,
    assert_nonsignaling,
)
from .quantum import _chained_angles, mix_with_noise, qm_chained_distribution

__all__ = [
    "MARGINAL_INDEPENDENCE_TOL",
    "MAX_MODEL_ENTRIES",
    "HiddenVariableModel",
    "LocalityMeasurement",
    "LocalityBoundReport",
    "leggett_model",
    "local_deterministic_model",
    "nonlocal_qm_model",
    "table_model",
    "xu_table",
    "sampled_xu_table",
    "chain_table",
    "locality_measure",
    "locality_bound_check",
    "inplane_grid",
    "model_from_dict",
    "model_from_json_file",
]

# The hidden-variable marginal must not depend on the chosen setting
# (settings are drawn independently of the hidden variables).
MARGINAL_INDEPENDENCE_TOL = 1e-6
# Most numbers a model document may ask for (80 MB of float64); see
# :func:`_model_of_kind`.
MAX_MODEL_ENTRIES = 10_000_000
# Entries per pass of the locality kernel, and the fewest for which
# :func:`_row_sums` sums in long double: one math.fsum per row costs less
# below.  The flag is np.finfo(np.longdouble).nmant >= 63, without finfo.
_BLOCK_ENTRIES, _TREE_MIN_ENTRIES = 1 << 14, 2048
_LONG_DOUBLE_SUMS = bool(np.longdouble(1.0) + 2.0 ** -63 > 1.0)


class HiddenVariableModel:
    """Finite model of two-party outcomes driven by hidden variables.

    ``u`` and ``v`` index the per-side local variables, weighed by ``p_u``
    and ``p_v`` (uniform by default), or jointly by ``p_uv`` (then ``p_u``
    and ``p_v`` are its row and column sums; None for product weights).
    Any further shared variable is averaged into the responses: per-side
    ``alice`` (N, n_u, 2), P(x | a, u), and ``bob`` (N, n_v, 2),
    P(y | b, v), whose product is the outcome table given (a, b, u, v); or
    one ``table``, the ConditionalDistribution P(x, y | a, b) of shape
    (N, N, 2, 2), which the hidden variables (weighed per side) do not
    enter.  The other form's attributes are None, so memory grows with
    N·(n_u + n_v), or N² for a table.  Arrays follow the table rule
    (:func:`_normalised`) and are made read-only.
    """

    __slots__ = ("n_settings", "n_u", "n_v", "p_u", "p_v", "p_uv", "alice", "bob", "table")

    def __init__(self, n_settings: int, *, alice=None, bob=None, table=None,
                 p_u=None, p_v=None, p_uv=None):
        n_settings = int(n_settings)
        if n_settings < 2:
            raise ValueError("chain parameter must be at least 2")
        if (table is None) == (alice is None or bob is None):
            raise ValueError("a model takes per-side responses alice and bob, or one table")
        if p_uv is not None and (p_u is not None or p_v is not None or table is not None):
            raise ValueError("joint weights p_uv go with per-side responses alone")
        if table is None:
            alice = _responses(alice, n_settings, "alice")
            bob = _responses(bob, n_settings, "bob")
            nu, nv = alice.shape[1], bob.shape[1]
        else:
            if table.table.shape != (n_settings, n_settings, 2, 2):
                raise ValueError(f"table must have shape (N, N, 2, 2), got {table.table.shape}")
            self._check_local_parts(table.table)
            nu, nv = (1 if w is None else len(w) for w in (p_u, p_v))
        if p_uv is not None:
            p_uv = _weights(p_uv, (nu, nv), "uv_weights")
            p_u, p_v = p_uv.sum(axis=1), p_uv.sum(axis=0)
        else:
            p_u = _weights(np.full(nu, 1.0 / nu) if p_u is None else p_u, (nu,), "u_weights")
            p_v = _weights(np.full(nv, 1.0 / nv) if p_v is None else p_v, (nv,), "v_weights")
        for name, value in (("n_settings", n_settings), ("n_u", nu), ("n_v", nv), ("p_u", p_u),
                            ("p_v", p_v), ("p_uv", p_uv), ("alice", alice), ("bob", bob),
                            ("table", table)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HiddenVariableModel is immutable")

    @staticmethod
    def _check_local_parts(table: np.ndarray) -> None:
        """The table form's non-signaling check: each side's outcome
        marginal moves by at most ``NORM_TOL`` across the other's settings,
        so that the table has well-defined local parts."""
        # Alice's outcome marginal [a, b, x] and Bob's [a, b, y], each off
        # its first context; rounding is monotone, so the max can be halved.
        x, y = table[..., 0] + table[..., 1], table[:, :, 0] + table[:, :, 1]
        dev = max(0.5 * float(np.maximum.reduce(d[..., 0] + d[..., 1], None))
                  for d in (np.abs(x - x[:, :1]), np.abs(y - y[:1])))
        if dev > NORM_TOL:
            raise ValueError(
                "averaged responses leak across sides: one side's outcome "
                f"marginal depends on the other side's context (deviation {dev})"
            )


def _responses(resp, n: int, side: str) -> np.ndarray:
    """One side's responses P(outcome | setting, hidden value), checked to
    have shape (N, k, 2) and normalised slice by slice."""
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 3 or resp.shape[0] != n or resp.shape[1] < 1 or resp.shape[2] != 2:
        raise ValueError(f"{side} responses must have shape (N, k, 2), got {resp.shape}")
    return _normalised(resp, 1)


def _unit_vectors(vectors, name: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty (k, 3) array of vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    # Whole-column adds: NumPy reduces a 3-long axis one row at a time.
    norms = np.sqrt(arr[:, 0] * arr[:, 0] + arr[:, 1] * arr[:, 1] + arr[:, 2] * arr[:, 2])
    if np.abs(norms - 1.0).max() > IDENTITY_TOL:
        raise ValueError(f"{name} must contain unit vectors")
    return arr


def _weights(weights, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``weights`` checked to have ``shape``, to be finite and non-negative
    and to sum to 1 within ``NORM_TOL``; returned by the table rule
    (:func:`_normalised`, the whole array one slice, given the reductions
    made here; a C-ordered array's slice sum is ``w.sum()``): clipped at 0,
    and divided by their sum only if it is off 1 by more than 1e-12."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    lo, hi = float(np.minimum.reduce(w, None)), float(np.maximum.reduce(w, None))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if lo < -NORM_TOL:
        raise ValueError(f"{name} must be non-negative")
    sums = _slice_sums(w.reshape(1, -1)) if w.flags.c_contiguous else None
    total = float(np.add.reduce(w, None) if sums is None else sums[0])
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return _normalised(w, w.ndim, lo, sums)


def _malus_responses(angles, vectors: np.ndarray) -> np.ndarray:
    """Responses (P(0), P(1)) with P(0) = (1 + a.u)/2 for every measurement
    angle and hidden unit vector u at once, shape (len(angles),
    len(vectors), 2); ``a`` is the outcome-0 Bloch direction (sin t, 0,
    cos t) of the measurement at angle t (see the module docstring for why
    the rule reads this way).  Built in place: a stacked copy of the two
    planes costs more than the rest."""
    bloch = np.array([(math.sin(t), 0.0, math.cos(t)) for t in angles])
    p0 = bloch @ vectors.T
    p0 += 1.0
    p0 *= 0.5
    resp = np.empty(p0.shape + (2,))
    np.clip(p0, 0.0, 1.0, out=resp[..., 0])
    np.subtract(1.0, resp[..., 0], out=resp[..., 1])
    return resp


def inplane_grid(n_points: int = 360) -> np.ndarray:
    """Unit vectors evenly spaced in the measurement (x-z) plane."""
    if n_points < 1:
        raise ValueError("need at least one grid point")
    phi = 2.0 * math.pi * np.arange(n_points) / n_points
    return np.stack([np.sin(phi), np.zeros(n_points), np.cos(phi)], axis=1)


def leggett_model(
    n: int, u_vectors, v_vectors=None, uv_weights=None, u_weights=None, v_weights=None
) -> HiddenVariableModel:
    """Leggett-type model bound to the chained layout.

    Each side's outcome marginal given its hidden vector follows the
    squared-overlap rule at that side's chained angles.  The joint outcome
    table is the product of the two marginals: it exists only to make the
    model executable shot by shot, and deliberately carries no correlations
    (it does not reproduce quantum statistics).  Bob's grid defaults to
    Alice's; the weights are joint (``uv_weights``) or per side.
    """
    alice, bob = _chained_angles(n)
    uvecs = _unit_vectors(u_vectors, "u_vectors")
    vvecs = uvecs if v_vectors is None else _unit_vectors(v_vectors, "v_vectors")
    return HiddenVariableModel(
        n, alice=_malus_responses(alice, uvecs), bob=_malus_responses(bob, vvecs),
        p_u=u_weights, p_v=v_weights, p_uv=uv_weights,
    )


def local_deterministic_model(
    n: int, alice_tables, bob_tables, uv_weights=None, u_weights=None, v_weights=None
) -> HiddenVariableModel:
    """Mixture of deterministic local strategies.

    Hidden index u picks Alice's lookup table and v picks Bob's; the
    weights (default uniform) are per side, or joint (``uv_weights``) to
    correlate the two.
    """
    # Read as floats and checked before the cast: casting to int would turn
    # 0.5 into the bit 0 and 10**30 into an OverflowError.
    at = np.asarray(alice_tables, dtype=float)
    bt = np.asarray(bob_tables, dtype=float)
    if at.ndim != 2 or at.shape[1] != n or bt.ndim != 2 or bt.shape[1] != n:
        raise ValueError("strategy tables must have shape (k, N)")
    if not (np.isin(at, (0, 1)).all() and np.isin(bt, (0, 1)).all()):
        raise ValueError("strategy outputs must be bits")
    eye = np.eye(2)  # one-hot responses, (N, k, 2)
    return HiddenVariableModel(
        n, alice=eye[at.astype(np.int64).T], bob=eye[bt.astype(np.int64).T],
        p_u=u_weights, p_v=v_weights, p_uv=uv_weights,
    )


def nonlocal_qm_model(
    n: int,
    visibility: float = 1.0,
    n_u: int = 1,
    n_v: int = 1,
) -> HiddenVariableModel:
    """Entirely non-local model reproducing the (optionally noisy) quantum
    table: the shared variable carries all outcome correlations, and any
    declared local variables are uniform dummies the table ignores."""
    if n_u < 1 or n_v < 1:
        raise ValueError("n_u and n_v must be at least 1")
    base = qm_chained_distribution(n)
    if visibility != 1.0:  # mix_with_noise rejects NaN and values off [0, 1]
        base = mix_with_noise(base, visibility)
    return HiddenVariableModel(
        n, table=base, p_u=np.full(n_u, 1.0 / n_u), p_v=np.full(n_v, 1.0 / n_v)
    )


def table_model(dist: ConditionalDistribution) -> HiddenVariableModel:
    """Wrap an explicit two-party binary table as an entirely non-local
    model (trivial local variables).  The model rejects a table of another
    shape than (N, N, 2, 2) with N >= 2, and a signaling one, whose
    outcome marginals cannot come from a well-defined local part."""
    return HiddenVariableModel(dist.input_sizes[0], table=dist)


def xu_table(model: HiddenVariableModel) -> ConditionalDistribution:
    """Alice's (outcome, hidden) table P(x, u | a) of a model, the only
    table the locality cap constrains: parties (setting -> binary outcome)
    and (none -> hidden index).  Entry (a, x, u) is p_u[u] times her
    response P(x | a, u), or for the table form p_u[u] times the table's
    Alice marginal at Bob's first setting (the table is non-signaling)."""
    n, nu = model.n_settings, model.n_u
    if model.table is None:
        planes = (model.alice[:, :, 0], model.alice[:, :, 1])
    else:
        t = model.table.table[:, 0]  # (N, 2, 2)
        planes = ((t[:, 0, 0] + t[:, 0, 1])[:, None], (t[:, 1, 0] + t[:, 1, 1])[:, None])
    table = np.empty((n, 1, 2, nu))
    for x, plane in enumerate(planes):
        np.multiply(model.p_u, plane, out=table[:, 0, x])
    return ConditionalDistribution((n, 1), (2, nu), table)


def sampled_xu_table(p_xu: ConditionalDistribution, samples: int, seed) -> ConditionalDistribution:
    """Monte-Carlo estimate of a per-side table P(x, u | a): each
    setting's ``samples`` draws counted by one multinomial over its
    (x, u) cells, then divided by ``samples``.  Reproducible per seed."""
    shape = p_xu.table.shape
    rows = p_xu.table.reshape(shape[0], -1)
    freq = np.random.default_rng(seed).multinomial(samples, rows) / float(samples)
    return ConditionalDistribution(p_xu.input_sizes, p_xu.output_sizes, freq.reshape(shape))


def chain_table(model: HiddenVariableModel) -> ConditionalDistribution:
    """A model's outcome table P(x, y | a, b), hidden variables summed out:
    its own table, the product of the two sides' marginals under product
    weights, or the two responses contracted through ``p_uv``."""
    if model.table is not None:
        return model.table
    n = model.n_settings
    if model.p_uv is None:
        pa = np.einsum("u,aux->ax", model.p_u, model.alice)
        pb = np.einsum("v,bvy->by", model.p_v, model.bob)
        t = pa[:, None, :, None] * pb[None, :, None, :]
    else:
        t = np.einsum("aux,uv,bvy->abxy", model.alice, model.p_uv, model.bob, optimize=True)
    return ConditionalDistribution((n, n), (2, 2), t)


@dataclass(frozen=True)
class LocalityMeasurement:
    """Per-setting locality of one side: distance of the (outcome, hidden)
    joint from (uniform outcome) x (hidden marginal)."""

    per_setting: tuple[float, ...]
    max_distance: float


def _locality_distances(t: np.ndarray, pz: np.ndarray | None = None) -> list[float]:
    """The one locality-distance kernel: for each row of a C-ordered
    (rows, 2, k) array of (outcome, hidden) joints that each sum to 1, its
    distance from (uniform outcome) x (the row's own hidden marginal
    ``pz``, the sum of the two outcome planes, computed here if not given).

    Each distance is the hidden-average of the conditional outcome
    distances from uniform, summed as ``math.fsum`` sums (:func:`_row_sums`).
    On every row it is cross-checked against the direct joint distance
    (``NORM_TOL``), whose half-L1 and excess forms are cross-checked
    against each other (``IDENTITY_TOL``).  Rows go ``_BLOCK_ENTRIES``
    entries at a time, so the scratch stays a few hundred KiB.
    """
    rows, k = t.shape[0], t.shape[2]
    if pz is None:
        pz = t[:, 0] + t[:, 1]
    every = bool((pz > 0.0).all())  # a masked divide costs more than a plain one
    step = max(1, _BLOCK_ENTRIES // k)
    cond = np.zeros((min(step, rows), 2, k))
    distances, half_l1, excess = [], np.zeros(rows), np.zeros(rows)
    for start in range(0, rows, step):
        block = slice(start, start + step)
        joint, bz = t[block], pz[block]
        c = cond[:len(bz)]
        # |P(x | s, z) - 1/2| summed over the outcome planes, then weighted
        # by P(z)/2.  Where P(z) = 0 the division is skipped; the finite
        # value left there times P(z)/2 = 0 adds a +0.0 term.
        np.divide(joint, bz[:, None], out=c, where=True if every else (bz > 0.0)[:, None])
        c -= 0.5
        np.abs(c, out=c)
        q = bz * 0.5  # (uniform outcome) x (hidden marginal)
        terms = (c[:, 0] + c[:, 1]) * q
        distances += _row_sums(terms)
        # Direct joint distance from q, as half the L1 difference and as the
        # excess sum of max(0, q - p), one outcome plane at a time.
        for x in (0, 1):
            d = np.subtract(joint[:, x], q, out=c[:, x])
            half_l1[block] += np.abs(d).sum(axis=1)
            excess[block] -= np.minimum(d, 0.0, out=d).sum(axis=1)
    half_l1 *= 0.5
    for avg, direct, ex in zip(distances, half_l1.tolist(), excess.tolist()):
        if abs(direct - ex) > IDENTITY_TOL:
            raise AssertionError(f"distance identity violated: {direct} vs {ex}")
        if abs(avg - direct) > NORM_TOL:
            raise AssertionError(
                f"average-form distance {avg} disagrees with joint form {direct}"
            )
    return distances


def _row_sums(terms: np.ndarray) -> list[float]:
    """``[math.fsum(row) for row in terms]`` of a (rows, k) float64 array,
    bit for bit.  From ``_TREE_MIN_ENTRIES`` entries on, with a long double
    of 64 or more significant bits, a row's sum s is first taken in long
    double by halving adds, a binary tree of depth D = ceil(log2 k).  On
    non-negative terms s is off the exact sum S by at most γ_D·S (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., §4.2), well
    inside E = s·(D + 4)·2^-63, which also covers the test's roundings.  So
    if s ± E lies strictly between the midpoints that flank d =
    float64(s), d is S correctly rounded: fsum's result.  Other rows (near
    a midpoint, or with a NaN, an infinity, a negative entry or a zero sum,
    whose sign is fsum's) take ``math.fsum``.
    """
    if terms.size < _TREE_MIN_ENTRIES or not _LONG_DOUBLE_SUMS:
        # fsum reads each row's floats through a memoryview, with no list.
        return [math.fsum(memoryview(row)) for row in terms]
    k = terms.shape[1]
    # One column per row, so that the halves of each add are disjoint blocks.
    cols, w = terms.T, (k + 1) >> 1
    x = np.empty((w, len(terms)), np.longdouble)
    with np.errstate(all="ignore"):  # rows with a NaN or an infinity take fsum
        np.add(cols[:k - w], cols[w:], out=x[:k - w], dtype=np.longdouble)
        x[k - w:] = cols[k - w:w]  # the middle term of an odd row
        while w > 1:
            x[:w >> 1] += x[(w + 1) >> 1:w]
            w = (w + 1) >> 1
        s, d = x[0], x[0].astype(np.float64)
        # The midpoints between d and its float64 neighbours, exact in long double.
        mids = (np.nextafter(d, ((-np.inf,), (np.inf,))).astype(np.longdouble) + d) * 0.5
        err = s * (((k - 1).bit_length() + 4) * 2.0 ** -63)
        sure = (mids[0] < s - err) & (s + err < mids[1]) & (mids[1] < np.inf) & (s > 0.0)
    sure &= np.minimum.reduce(terms, axis=1) >= 0.0
    sums = d.tolist()
    for i in np.flatnonzero(~sure).tolist():
        sums[i] = math.fsum(memoryview(terms[i]))
    return sums


def locality_measure(
    p_xu: ConditionalDistribution,
    marginal_tol: float = MARGINAL_INDEPENDENCE_TOL,
) -> LocalityMeasurement:
    """Measure how much one side's outcome leans on its hidden variable.

    Input: two-party table with party 0 = (setting -> binary outcome) and
    party 1 = (no input -> hidden index).  The hidden marginal must not
    depend on the setting beyond ``marginal_tol``: the gate checks the
    distance between its entrywise max and min rows, which bounds every
    pair's, and runs the all-pairs max only when that bound is above the
    tolerance.  Each setting's distance then comes from
    :func:`_locality_distances`, with both cross-checks.
    """
    if p_xu.n_parties != 2 or p_xu.input_sizes[1] != 1 or p_xu.output_sizes[0] != 2:
        raise ValueError("expected parties (setting -> binary outcome, none -> hidden)")
    t = p_xu.table[:, 0]  # (N, 2, nu), a view
    pu = t[:, 0] + t[:, 1]  # hidden marginal per setting
    if len(pu) > 1:
        # No pair's distance rounds above the max/min rows' bound.
        bound = 0.5 * float(_l1_upper_bounds(pu[:, None, :])[0])
        if bound > marginal_tol:
            dev = _max_pairwise_tv(pu[:, None, :])
            if dev > marginal_tol:
                raise ValueError(
                    f"hidden-variable marginal depends on the setting (deviation {dev})"
                )
    distances = _locality_distances(t, pu)
    return LocalityMeasurement(tuple(distances), max(distances))


@dataclass(frozen=True)
class LocalityBoundReport:
    """Result of the non-signaling locality bound on a two- or three-party
    table.

    ``bound`` and ``passed`` are None when the input signals (the bound's
    hypothesis fails, so the check is inapplicable rather than failed).
    """

    applicable: bool
    ns_violation: float
    lhs_x: tuple[float, ...]
    lhs_y: tuple[float, ...]
    bound: float | None
    passed: bool | None


def locality_bound_check(
    p: ConditionalDistribution, tol: float = NORM_TOL
) -> LocalityBoundReport:
    """Check that hidden-side information stays within half the chain value.

    ``p`` is a two- or three-party table: party 0 is Alice (binary outcome
    given a chain setting), party 1 Bob, and party 2, if present, an extra
    output Z given an input C drawn uniformly and independently of the
    settings.  A two-party table is read as one with a one-valued C and Z.
    For every setting a, the statistical distance of P(x, (c, z) | a) from
    (uniform x) times its (c, z) marginal must be at most half the chain
    value of the (x, y) table; symmetrically for every b.  All 2N settings
    are measured in one pass of :func:`_locality_distances`, as
    :func:`locality_measure` measures one side.
    """
    if p.n_parties not in (2, 3):
        raise ValueError("locality bound needs a 2- or 3-party table")
    if p.output_sizes[0] != 2 or p.output_sizes[1] != 2:
        raise ValueError("chain parties must have binary outcomes")
    n = p.input_sizes[0]
    if p.input_sizes[1] != n or n < 2:
        raise ValueError("chain parties must share N >= 2 settings")
    ns = assert_nonsignaling(p, tol)
    if not ns.passed:
        return LocalityBoundReport(False, ns.max_violation, (), (), None, None)
    t = p.table if p.n_parties == 3 else p.table[:, :, None, :, :, None]  # (N, N, n_c, 2, 2, oz)
    n_c = t.shape[2]
    xy = t[:, :, 0].sum(axis=-1)  # chain table at the first C value
    bound = 0.5 * evaluate_chain(
        ConditionalDistribution((n, n), (2, 2), xy), n
    ).value
    # One (x, (c, z)) joint per setting, the other side's outcome summed
    # out: Alice's settings at Bob's first, then Bob's at Alice's first.
    joints = np.empty((2, n, 2, n_c, t.shape[-1]))
    np.add(t[:, 0, :, :, 0], t[:, 0, :, :, 1], out=joints[0].transpose(0, 2, 1, 3))
    np.add(t[0, :, :, 0], t[0, :, :, 1], out=joints[1].transpose(0, 2, 1, 3))
    joints *= 1.0 / n_c
    lhs = _locality_distances(_normalised(joints.reshape(2 * n, 2, -1), 2))
    return LocalityBoundReport(
        True, ns.max_violation, tuple(lhs[:n]), tuple(lhs[n:]), bound,
        max(lhs) <= bound + NORM_TOL,
    )


# Model document fields that hold numbers or nested lists of numbers.
_NUMERIC_FIELDS = (
    "n", "grid", "n_u", "n_v", "visibility", "vectors", "v_vectors", "weights",
    "uv_weights", "u_weights", "v_weights", "alice_tables", "bob_tables",
)
# The fields each model type reads; any other field is a usage error.
_LEGGETT_FIELDS = ("type", "n", "vectors", "grid", "v_vectors", "weights", "uv_weights")
_DETERMINISTIC_FIELDS = ("type", "n", "alice_tables", "bob_tables", "u_weights", "v_weights",
                         "uv_weights")
_NONLOCAL_QM_FIELDS = ("type", "n", "visibility", "n_u", "n_v")
_CUSTOM_TABLE_FIELDS = ("type", "n", "distribution")


def _field(data: dict, key: str):
    """Required field of a model document; a missing one is named."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{key} is missing from the model document") from None


def _int_field(data: dict, key: str, default: int | None = None) -> int:
    """Integer field of a model document.  A fractional number, NaN, null, a
    list or an object is a usage error, not truncated (``int(2.7)`` is 2); so
    is an infinite one, on which ``int`` raises OverflowError (``1e400``)."""
    value = _field(data, key) if default is None else data.get(key, default)
    if not isinstance(value, (int, float)) or (
            isinstance(value, float) and not (value.is_integer() or math.isinf(value))):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except OverflowError as exc:
        raise ValueError(f"{key} must be a finite integer") from exc


def model_from_dict(data: dict, n: int | None = None) -> HiddenVariableModel:
    """Build a model from its JSON description, a JSON object.

    Types: ``leggett`` (vector grids and weights), ``local_deterministic``
    (strategy tables and weights), ``nonlocal_qm`` (N, visibility and
    hidden alphabets), and ``custom_table`` (an inline distribution
    document, and optionally its N).  With ``n`` given (the CLI's
    ``--n``), a model of another chain length is rejected: a document's
    own ``n`` is read once, here, and compared before
    :func:`_model_of_kind` builds anything.
    """
    if not isinstance(data, dict):
        raise ValueError("model document must be a JSON object")
    try:
        kind = data["type"]
    except KeyError as exc:
        raise ValueError("model document needs a 'type' field") from exc
    _check_numeric_fields(data, _NUMERIC_FIELDS)
    sized = kind in ("leggett", "local_deterministic", "nonlocal_qm")
    own_n = _int_field(data, "n") if sized or (kind == "custom_table" and "n" in data) else None
    if n is not None and own_n not in (None, n):
        raise ValueError("model chain length does not match --n")
    model = _model_of_kind(kind, data, own_n)
    if n is not None and model.n_settings != n:
        raise ValueError("model chain length does not match --n")
    return model


def _model_of_kind(kind, data: dict, n: int | None) -> HiddenVariableModel:
    """The model of a document whose ``type`` field reads ``kind`` and
    whose ``n`` field reads ``n`` (None for a ``custom_table`` without one).

    Each side's hidden alphabet is read once: ``vectors`` or ``grid`` (360
    in-plane points by default) and ``v_vectors`` (Alice's grid by
    default), the strategy table counts, or ``n_u`` and ``n_v``.  Before
    any array or angle list is built, a document that asks for more than
    ``MAX_MODEL_ENTRIES`` numbers is rejected, naming the field that asks:
    ``grid``, a ``nonlocal_qm`` alphabet, ``uv_weights`` (n_u·n_v), or
    ``n`` for the total with the responses N·(n_u + n_v) and a
    ``nonlocal_qm`` table's 4·N².  The model is built from those values;
    Leggett ``weights`` weigh Bob's grid too when he has none of his own.
    A ``custom_table`` is bounded by its own input.  A field that the type
    does not read is rejected, by name, and so is a weight field next to
    ``uv_weights``, which weigh both sides.
    """
    fields = {"leggett": _LEGGETT_FIELDS, "local_deterministic": _DETERMINISTIC_FIELDS,
              "nonlocal_qm": _NONLOCAL_QM_FIELDS, "custom_table": _CUSTOM_TABLE_FIELDS}
    allowed = fields.get(kind) if isinstance(kind, str) else None  # a list is unhashable
    if allowed is None:
        raise ValueError(f"unknown model type {kind!r}")
    for key in data:
        if key not in allowed:
            raise ValueError(f"{key} is not a field of a {kind} model document")
        if key in ("weights", "u_weights", "v_weights") and "uv_weights" in data:
            raise ValueError(f"{key} cannot go with uv_weights, which weigh both sides")
    if kind == "custom_table":
        model = table_model(ConditionalDistribution.from_dict(_field(data, "distribution")))
        if n is not None and model.n_settings != n:
            raise ValueError(f"distribution has {model.n_settings} settings per side, "
                             f"but the model document's n is {n}")
        return model
    length = {k: len(v) for k, v in data.items() if type(v) is list}  # others fail later
    sizes, total = [], 0
    if kind == "leggett":
        nu = length.get("vectors", 1) if "vectors" in data else _int_field(data, "grid", 360)
        sizes += [] if "vectors" in data else [("grid", nu)]
        nv = length.get("v_vectors", nu)
    elif kind == "local_deterministic":
        nu, nv = length.get("alice_tables", 1), length.get("bob_tables", 1)
    else:
        nu, nv = _int_field(data, "n_u", 1), _int_field(data, "n_v", 1)
        sizes, total = [("n_u", nu), ("n_v", nv)], 4 * n * n
    if "uv_weights" in data:
        sizes.append(("uv_weights", nu * nv))
    sizes.append(("n", total + n * (nu + nv) + sum(size for _, size in sizes)))
    for key, size in sizes:
        if size > MAX_MODEL_ENTRIES:
            raise ValueError(f"model document too large: {key} asks for {size} numbers, "
                             f"above {MAX_MODEL_ENTRIES}")
    if kind == "nonlocal_qm":
        v = data.get("visibility", 1.0)
        if not isinstance(v, (int, float)):
            raise ValueError(f"visibility must be a number, got {v!r}")
        return nonlocal_qm_model(n, v, nu, nv)  # float(10**400) overflows; the mix rejects it
    if kind == "leggett":
        vectors = (np.asarray(data["vectors"], dtype=float) if "vectors" in data
                   else inplane_grid(nu))
        v_vectors = data.get("v_vectors")
        w = data.get("weights")
        w = None if w is None else _weights(w, (nu,), "weights")
        return leggett_model(n, vectors, v_vectors, uv_weights=data.get("uv_weights"),
                             u_weights=w, v_weights=w if v_vectors is None else None)
    tables = _field(data, "alice_tables"), _field(data, "bob_tables")
    if "u_weights" not in data and "v_weights" not in data:
        return local_deterministic_model(n, *tables, uv_weights=data.get("uv_weights"))
    missing = "v_weights" if "u_weights" in data else "u_weights"
    if missing not in data:
        raise ValueError(f"{missing} is missing: u_weights and v_weights go together")
    # One weight per strategy; a table that is not a list fails its own check.
    for name, side, size in zip(("u_weights", "v_weights"), tables, (nu, nv)):
        if type(side) is list and np.shape(data[name]) != (size,):
            raise ValueError(f"{name} must have length {size}")
    return local_deterministic_model(n, *tables, u_weights=data["u_weights"],
                                     v_weights=data["v_weights"])


def model_from_json_file(path: str | Path, n: int | None = None) -> HiddenVariableModel:
    return model_from_dict(_load_json(path), n)
