"""Hidden-variable models for the chained layout: local/non-local structure,
Leggett-type marginal rules, locality measurement, and the non-signaling
locality bound.

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

from .chained import evaluate_chain, quantum_chain_closed_form
from .distributions import (
    IDENTITY_TOL,
    NORM_TOL,
    ConditionalDistribution,
    _check_numeric_fields,
    _l1_upper_bounds,
    _load_json,
    _max_pairwise_tv,
    _normalised,
    assert_nonsignaling,
)
from .quantum import _chained_angles, mix_with_noise, qm_chained_distribution

__all__ = [
    "VECTOR_TOL",
    "LOCAL_PART_TOL",
    "MARGINAL_INDEPENDENCE_TOL",
    "HiddenVariableModel",
    "LocalityMeasurement",
    "LocalityBoundReport",
    "LocalityReport",
    "leggett_model",
    "local_deterministic_model",
    "nonlocal_qm_model",
    "table_model",
    "induced_distribution",
    "hidden_joint_form",
    "xu_conditional",
    "locality_measure",
    "locality_bound_check",
    "falsify_leggett",
    "make_locality_report",
    "inplane_grid",
    "model_from_dict",
    "model_from_json_file",
]

VECTOR_TOL = 1e-12
# Constructed models must have well-defined local parts: the shared-variable
# average of each side's response may depend only on its own setting and
# local variable.
LOCAL_PART_TOL = 1e-9
# The hidden-variable marginal must not depend on the chosen setting
# (settings are drawn independently of the hidden variables).
MARGINAL_INDEPENDENCE_TOL = 1e-6


class HiddenVariableModel:
    """Finite model of two-party outcomes driven by hidden variables.

    ``u`` and ``v`` index the per-side local variables (finite alphabets
    with joint weights ``p_uv``, uniform by default); any additional shared
    variable has already been averaged into the response ``kernels``: entry
    ``kernels[a, b, u, v]`` is the joint outcome table P(x, y | a, b, u, v).
    Kernels follow the table rule (:func:`_normalised`); as with a table,
    an array that needs no change is kept, not copied, and made read-only.
    """

    __slots__ = ("n_settings", "p_uv", "kernels")

    def __init__(self, n_settings: int, *, p_uv=None, kernels: np.ndarray):
        n_settings = int(n_settings)
        if n_settings < 2:
            raise ValueError("chain parameter must be at least 2")
        kernels = np.asarray(kernels, dtype=float)
        if kernels.ndim != 6 or kernels.shape[:2] != (n_settings, n_settings) \
                or kernels.shape[4:] != (2, 2):
            raise ValueError(
                f"kernels must have shape (N, N, n_u, n_v, 2, 2), got {kernels.shape}"
            )
        kernels = _normalised(kernels, 2)
        nu, nv = kernels.shape[2:4]
        if p_uv is None:
            p_uv = np.full((nu, nv), 1.0 / (nu * nv))
        p_uv = _weights(p_uv, (nu, nv), "uv_weights")
        self._check_local_parts(kernels)
        kernels.setflags(write=False)
        p_uv.setflags(write=False)
        object.__setattr__(self, "n_settings", n_settings)
        object.__setattr__(self, "p_uv", p_uv)
        object.__setattr__(self, "kernels", kernels)

    def __setattr__(self, name, value):
        raise AttributeError("HiddenVariableModel is immutable")

    @staticmethod
    def _check_local_parts(kernels: np.ndarray) -> None:
        k00, k01, k10, k11 = (kernels[..., x, y] for x in (0, 1) for y in (0, 1))
        x0, x1 = k00 + k01, k10 + k11  # Alice's outcome marginal, (N, N, nu, nv)
        dev_x = float((0.5 * (
            np.abs(x0 - x0[:, :1, :, :1]) + np.abs(x1 - x1[:, :1, :, :1])
        )).max())
        y0, y1 = k00 + k10, k01 + k11  # Bob's
        dev_y = float((0.5 * (
            np.abs(y0 - y0[:1, :, :1, :]) + np.abs(y1 - y1[:1, :, :1, :])
        )).max())
        if max(dev_x, dev_y) > LOCAL_PART_TOL:
            raise ValueError(
                "averaged responses leak across sides: one side's outcome "
                f"marginal depends on the other side's context (deviation "
                f"{max(dev_x, dev_y)})"
            )

    @property
    def n_u(self) -> int:
        return self.kernels.shape[2]

    @property
    def n_v(self) -> int:
        return self.kernels.shape[3]

    def __repr__(self) -> str:
        return (
            f"HiddenVariableModel(N={self.n_settings}, "
            f"n_u={self.n_u}, n_v={self.n_v})"
        )


def _inverse_cdf(cdf: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Outcome index for each uniform draw ``r``: the first outcome whose
    cumulative probability exceeds it, or the last outcome when none does
    (rounding can leave the final cumulative value just under 1).

    ``cdf`` is either one cumulative table of shape (m,) shared by every
    draw, searched with ``searchsorted``, or one row per draw, shape
    (k, m), searched by ``argmax`` over the row's ``cdf > r`` flags with
    the last flag forced true.  A cumulative table never decreases, so both
    equal the number of entries at or below ``r``, capped at m - 1."""
    if cdf.ndim == 1:
        return np.minimum(np.searchsorted(cdf, r, side="right"), cdf.shape[-1] - 1)
    hit = cdf > r[:, None]
    hit[:, -1] = True
    return hit.argmax(axis=1)


def _unit_vectors(vectors, name: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty (k, 3) array of vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    norms = np.sqrt((arr * arr).sum(axis=1))
    if np.abs(norms - 1.0).max() > VECTOR_TOL:
        raise ValueError(f"{name} must contain unit vectors")
    return arr


def _weights(weights, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``weights`` checked to have ``shape``, to be finite and non-negative
    and to sum to 1 within ``NORM_TOL``; returned clipped at 0 and divided
    by their sum."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    if w.min() < -NORM_TOL:
        raise ValueError(f"{name} must be non-negative")
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return w / total


def _malus_p0(angles, vectors: np.ndarray) -> np.ndarray:
    """P(outcome 0) = (1 + a.u)/2 for every measurement angle and hidden
    unit vector u at once, shape (len(angles), len(vectors)); ``a`` is the
    outcome-0 Bloch direction (sin t, 0, cos t) of the measurement at
    angle t (see the module docstring for why the rule reads this way)."""
    bloch = np.array([(math.sin(t), 0.0, math.cos(t)) for t in angles])
    return np.clip(0.5 * (1.0 + bloch @ vectors.T), 0.0, 1.0)


def inplane_grid(n_points: int = 360) -> np.ndarray:
    """Unit vectors evenly spaced in the measurement (x-z) plane."""
    if n_points < 1:
        raise ValueError("need at least one grid point")
    phi = 2.0 * math.pi * np.arange(n_points) / n_points
    return np.stack([np.sin(phi), np.zeros(n_points), np.cos(phi)], axis=1)


def leggett_model(
    n: int, u_vectors, v_vectors=None, uv_weights=None
) -> HiddenVariableModel:
    """Leggett-type model bound to the chained layout.

    Each side's outcome marginal given its hidden vector follows the
    squared-overlap rule at that side's chained angles.  The joint outcome
    table is the product of the two marginals: it exists only to make the
    model executable shot by shot, and deliberately carries no correlations
    (it does not reproduce quantum statistics).
    """
    alice, bob = _chained_angles(n)
    uvecs = _unit_vectors(u_vectors, "u_vectors")
    vvecs = uvecs if v_vectors is None else _unit_vectors(v_vectors, "v_vectors")
    pa0 = _malus_p0(alice, uvecs)  # (N, nu)
    pb0 = _malus_p0(bob, vvecs)  # (N, nv)
    ma = np.stack([pa0, 1.0 - pa0], axis=-1)  # (N, nu, 2)
    mb = np.stack([pb0, 1.0 - pb0], axis=-1)
    kernels = np.einsum("aux,bvy->abuvxy", ma, mb)
    return HiddenVariableModel(n, p_uv=uv_weights, kernels=kernels)


def local_deterministic_model(
    n: int, alice_tables, bob_tables, uv_weights=None
) -> HiddenVariableModel:
    """Mixture of deterministic local strategies.

    Hidden index u picks Alice's lookup table and v picks Bob's;
    ``uv_weights`` (default uniform product) may correlate the two.
    """
    # Read as floats and checked before the cast: casting to int would turn
    # 0.5 into the bit 0 and 10**30 into an OverflowError.
    at = np.asarray(alice_tables, dtype=float)
    bt = np.asarray(bob_tables, dtype=float)
    if at.ndim != 2 or at.shape[1] != n or bt.ndim != 2 or bt.shape[1] != n:
        raise ValueError("strategy tables must have shape (k, N)")
    if not (np.isin(at, (0, 1)).all() and np.isin(bt, (0, 1)).all()):
        raise ValueError("strategy outputs must be bits")
    at, bt = at.astype(np.int64), bt.astype(np.int64)
    eye = np.eye(2)
    ma = eye[at].transpose(1, 0, 2)  # (N, nu, 2): one-hot responses
    mb = eye[bt].transpose(1, 0, 2)
    kernels = np.einsum("aux,bvy->abuvxy", ma, mb)
    return HiddenVariableModel(n, p_uv=uv_weights, kernels=kernels)


def nonlocal_qm_model(
    n: int,
    visibility: float = 1.0,
    n_u: int = 1,
    n_v: int = 1,
) -> HiddenVariableModel:
    """Entirely non-local model reproducing the (optionally noisy) quantum
    table: the shared variable carries all outcome correlations, and any
    declared local variables are uniform dummies the responses ignore."""
    if n_u < 1 or n_v < 1:
        raise ValueError("n_u and n_v must be at least 1")
    base = qm_chained_distribution(n)
    if visibility != 1.0:  # mix_with_noise rejects NaN and values off [0, 1]
        base = mix_with_noise(base, visibility)
    p_uv = np.outer(np.full(n_u, 1.0 / n_u), np.full(n_v, 1.0 / n_v))
    kernels = np.broadcast_to(
        base.table[:, :, None, None, :, :], (n, n, n_u, n_v, 2, 2)
    ).copy()
    return HiddenVariableModel(n, p_uv=p_uv, kernels=kernels)


def table_model(dist: ConditionalDistribution) -> HiddenVariableModel:
    """Wrap an explicit two-party binary table as an entirely non-local
    model (trivial local variables).  Rejects signaling tables, whose
    outcome marginals cannot come from a well-defined local part."""
    if dist.n_parties != 2 or dist.output_sizes != (2, 2):
        raise ValueError("expected a two-party binary table")
    n = dist.input_sizes[0]
    if dist.input_sizes != (n, n) or n < 2:
        raise ValueError("expected N >= 2 settings on both sides")
    return HiddenVariableModel(n, kernels=dist.table[:, :, None, None, :, :])


def induced_distribution(
    model: HiddenVariableModel,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> ConditionalDistribution:
    """Four-party table P(x, y, u, v | a, b) of a model.

    ``mode="exact"`` computes the table as each response kernel times its
    hidden-variable weight; ``mode="sampled"`` estimates it with ``shots``
    Monte Carlo draws per setting pair (seed required, reproducible).
    Parties 2 and 3 carry the hidden indices as outputs and have no inputs.
    """
    n, nu, nv = model.n_settings, model.n_u, model.n_v
    if mode == "exact":
        t = np.einsum("uv,abuvxy->abxyuv", model.p_uv, model.kernels)
        return ConditionalDistribution(
            (n, n, 1, 1), (2, 2, nu, nv), t.reshape(n, n, 1, 1, 2, 2, nu, nv)
        )
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if shots is None or shots < 1 or seed is None:
        raise ValueError("sampled mode needs shots >= 1 and a seed")
    rng = np.random.default_rng(seed)
    shape = (2, 2, nu, nv)
    table = np.zeros((n, n) + shape)
    for a in range(n):
        for b in range(n):
            # The joint laid out (x, y, u, v): a flat index is a table cell.
            joint = np.einsum("uv,uvxy->xyuv", model.p_uv, model.kernels[a, b])
            cells = _inverse_cdf(np.cumsum(joint.reshape(-1)), rng.random(shots))
            table[a, b] = np.bincount(cells, minlength=joint.size).reshape(shape)
    table /= float(shots)
    return ConditionalDistribution(
        (n, n, 1, 1), (2, 2, nu, nv), table.reshape(n, n, 1, 1, 2, 2, nu, nv)
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
    left depends on Bob's setting (within ``tol``) and removes that axis.
    ``average_b`` pools over Bob's settings instead of slicing the first
    one, which is the right reduction for sampled tables (the exact table
    is b-independent, so pooling only averages noise).
    """
    if p4.n_parties != 4 or p4.input_sizes[2:] != (1, 1):
        raise ValueError("expected a four-party induced table")
    n_a, n_b = p4.input_sizes[:2]
    ox, oy, nu, nv = p4.output_sizes
    marg = p4.table.sum(axis=(5, 7))  # drop y and v outputs -> (a, b, 1, 1, x, u)
    if n_b > 1:
        dev = float(
            (0.5 * np.abs(marg - marg[:, :1]).sum(axis=(-2, -1))).max()
        )
        if dev > tol:
            raise ValueError(
                f"Alice-side table depends on Bob's setting (deviation {dev})"
            )
    reduced = marg.mean(axis=1) if average_b else marg[:, 0]
    table = reduced.reshape(n_a, 1, ox, nu)
    return ConditionalDistribution((n_a, 1), (ox, nu), table)


@dataclass(frozen=True)
class LocalityMeasurement:
    """Per-setting locality of one side: distance of the (outcome, hidden)
    joint from (uniform outcome) x (hidden marginal)."""

    per_setting: tuple[float, ...]
    max_distance: float


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
    tolerance.  Each setting's distance is the hidden-average of the
    conditional outcome distances from uniform, all N settings in one pass
    over the two outcome planes.  On every setting it is cross-checked
    against the direct joint distance, whose half-L1 and excess forms are
    cross-checked against each other.
    """
    if p_xu.n_parties != 2 or p_xu.input_sizes[1] != 1 or p_xu.output_sizes[0] != 2:
        raise ValueError("expected parties (setting -> binary outcome, none -> hidden)")
    t = p_xu.table[:, 0]  # (N, 2, nu)
    x0, x1 = t[:, 0], t[:, 1]  # outcome planes, (N, nu)
    pu = x0 + x1  # hidden marginal per setting
    if len(pu) > 1:
        # No pair's distance rounds above the max/min rows' bound.
        bound = 0.5 * float(_l1_upper_bounds(pu[:, None, :])[0])
        if bound > marginal_tol:
            dev = _max_pairwise_tv(pu[:, None, :])
            if dev > marginal_tol:
                raise ValueError(
                    f"hidden-variable marginal depends on the setting (deviation {dev})"
                )
    # |P(x | a, u) - 1/2| summed over the outcome planes, then weighted by
    # P(u)/2.  Where P(u) = 0 the division is skipped; the finite value left
    # there times P(u)/2 = 0 adds a +0.0 term, which fsum ignores.
    live = pu > 0.0
    terms = np.zeros_like(pu)
    cond = np.zeros_like(pu)
    for plane in (x0, x1):
        np.divide(plane, pu, out=cond, where=live)
        cond -= 0.5
        terms += np.abs(cond, out=cond)
    q = np.multiply(pu, 0.5, out=cond)  # (uniform outcome) x (hidden marginal)
    terms *= q
    # fsum reads each row's floats through a memoryview, with no list.
    distances = [math.fsum(memoryview(row)) for row in terms]
    # Direct joint distance from q, as half the L1 difference and as the
    # excess sum of max(0, q - p), one outcome plane at a time.
    half_l1 = np.zeros(len(pu))
    excess = np.zeros(len(pu))
    for plane in (x0, x1):
        d = np.subtract(plane, q, out=terms)
        half_l1 += np.abs(d).sum(axis=1)
        excess -= np.minimum(d, 0.0, out=d).sum(axis=1)
    half_l1 *= 0.5
    for avg, direct, ex in zip(distances, half_l1.tolist(), excess.tolist()):
        if abs(direct - ex) > IDENTITY_TOL:
            raise AssertionError(f"distance identity violated: {direct} vs {ex}")
        if abs(avg - direct) > NORM_TOL:
            raise AssertionError(
                f"average-form distance {avg} disagrees with joint form {direct}"
            )
    return LocalityMeasurement(tuple(distances), max(distances))


@dataclass(frozen=True)
class LocalityBoundReport:
    """Result of the non-signaling locality bound on a three-party table.

    ``passed`` is None when the input signals (the bound's hypothesis
    fails, so the check is inapplicable rather than failed).
    """

    applicable: bool
    ns_violation: float
    lhs_x: tuple[float, ...]
    lhs_y: tuple[float, ...]
    bound: float
    passed: bool | None


def locality_bound_check(
    p: ConditionalDistribution, tol: float = NORM_TOL
) -> LocalityBoundReport:
    """Check that hidden-side information stays within half the chain value.

    ``p`` is a three-party table: party 0 is Alice (binary outcome given a
    chain setting), party 1 Bob, party 2 an extra output Z given an input C
    drawn uniformly and independently of the settings.  For every setting
    a, the statistical distance of P(x, z, c | a) from (uniform x) times
    the (z, c) marginal must be at most half the chain value of the (x, y)
    table; symmetrically for every b.  All 2N settings are measured in one
    pass, and each distance is cross-checked against its excess form.
    """
    if p.n_parties != 3:
        raise ValueError("expected a three-party table")
    if p.output_sizes[0] != 2 or p.output_sizes[1] != 2:
        raise ValueError("chain parties must have binary outcomes")
    n = p.input_sizes[0]
    if p.input_sizes[1] != n or n < 2:
        raise ValueError("chain parties must share N >= 2 settings")
    n_c = p.input_sizes[2]
    pc = np.full(n_c, 1.0 / n_c)
    ns = assert_nonsignaling(p, tol)
    if not ns.passed:
        return LocalityBoundReport(False, ns.max_violation, (), (), math.nan, None)
    t = p.table  # (N, N, n_c, 2, 2, oz)
    xy = t[:, :, 0].sum(axis=-1)  # chain table at the first C value
    bound = 0.5 * evaluate_chain(
        ConditionalDistribution((n, n), (2, 2), xy), n
    ).value
    # Hidden-side marginal over (c, z); independent of a and b by the
    # non-signaling check above.
    p_zc = t[0, 0].sum(axis=(1, 2)) * pc[:, None]  # (n_c, oz)
    uniform_half = np.repeat(0.5 * p_zc[:, None, :], 2, axis=1)  # (n_c, 2, oz)
    # One (c, x, z) joint per setting, the other side's outcome summed out:
    # Alice's settings at Bob's first, then Bob's at Alice's first.
    joints = np.empty((2, n) + uniform_half.shape)
    np.add(t[:, 0, :, :, 0], t[:, 0, :, :, 1], out=joints[0])
    np.add(t[0, :, :, 0], t[0, :, :, 1], out=joints[1])
    joints *= pc[:, None, None]
    q = _normalised(uniform_half.reshape(1, -1), 1)
    rows = _normalised(joints.reshape(2 * n, -1), 1)
    # Each setting's distance from the uniform reference, as half the L1
    # difference and as the excess sum of max(0, q - p), row by row.
    half_l1 = 0.5 * np.abs(rows - q).sum(axis=1)
    excess = np.maximum(q - rows, 0.0).sum(axis=1)
    lhs = half_l1.tolist()
    for direct, ex in zip(lhs, excess.tolist()):
        if abs(direct - ex) > IDENTITY_TOL:
            raise AssertionError(f"distance identity violated: {direct} vs {ex}")
    return LocalityBoundReport(
        True, ns.max_violation, tuple(lhs[:n]), tuple(lhs[n:]), bound,
        max(lhs) <= bound + NORM_TOL,
    )


@dataclass(frozen=True)
class LocalityReport:
    """Verdict of a locality falsification run.

    ``per_setting_distance`` pairs each Alice setting with its measured
    hidden-variable dependence; ``bound`` is the locality cap certified by
    the chain value; ``falsified`` means the worst setting exceeds the cap
    by more than ``stat_tolerance``.
    """

    per_setting_distance: tuple[tuple[int, float], ...]
    bound: float
    max_distance: float
    falsified: bool
    stat_tolerance: float

    def to_dict(self) -> dict:
        return {
            "per_setting_distance": [[a, d] for a, d in self.per_setting_distance],
            "bound": self.bound,
            "max_distance": self.max_distance,
            "falsified": self.falsified,
            "stat_tolerance": self.stat_tolerance,
        }


def make_locality_report(
    lm: LocalityMeasurement, bound: float, stat_tolerance: float
) -> LocalityReport:
    """Assemble a verdict from per-setting distances and a locality cap."""
    per = tuple((a, d) for a, d in enumerate(lm.per_setting))
    return LocalityReport(
        per, bound, lm.max_distance, lm.max_distance > bound + stat_tolerance,
        stat_tolerance,
    )


def falsify_leggett(n: int, vectors, weights=None) -> LocalityReport:
    """Test a Leggett-type hidden-vector distribution against the locality
    cap certified by the ideal quantum chain value.

    Builds Alice's (outcome, hidden-vector) table from the squared-overlap
    rule at the chained angles and compares the worst per-setting distance
    with half the quantum chain value.  In-plane vector mass forces a
    distance of about 1/pi per setting, which already exceeds the cap at
    N = 2; vectors orthogonal to the measurement plane contribute nothing.
    """
    vecs = _unit_vectors(vectors, "vectors")
    k = len(vecs)
    w = np.full(k, 1.0 / k) if weights is None else _weights(weights, (k,), "weights")
    p0 = _malus_p0(_chained_angles(n)[0], vecs)  # (N, k)
    table = np.empty((n, 1, 2, k))
    table[:, 0, 0, :] = w[None, :] * p0
    table[:, 0, 1, :] = w[None, :] * (1.0 - p0)
    p_xu = ConditionalDistribution((n, 1), (2, k), table)
    lm = locality_measure(p_xu)
    bound = 0.5 * quantum_chain_closed_form(n)
    return make_locality_report(lm, bound, 1e-9)


# Model document fields that hold numbers or nested lists of numbers.
_NUMERIC_FIELDS = (
    "n", "grid", "n_u", "n_v", "visibility", "vectors", "v_vectors", "weights",
    "uv_weights", "u_weights", "v_weights", "alice_tables", "bob_tables",
)


def _field(data: dict, key: str):
    """Required field of a model document; a missing one is named."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{key} is missing from the model document") from None


def _int_field(data: dict, key: str, default: int | None = None) -> int:
    """Integer field of a model document.  A fractional number is a usage
    error, not truncated (``int(2.7)`` is 2); so is an infinite one, on
    which ``int`` raises OverflowError (``1e400`` parses as one)."""
    value = _field(data, key) if default is None else data.get(key, default)
    if isinstance(value, float) and math.isfinite(value) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except OverflowError as exc:
        raise ValueError(f"{key} must be a finite integer") from exc


def _leggett_document(data: dict):
    """Chain length, hidden-vector grids and weights of a ``leggett`` model
    document.

    Returns ``(n, vectors, v_vectors, uv_weights, alice_weights)``: the
    document's N, Alice's grid, Bob's grid (None: Alice's), the joint
    weights and Alice's weights over her grid (None: uniform).
    ``uv_weights`` takes precedence over ``weights``, which weigh Alice's
    grid and Bob's too when he has none of his own.
    """
    _check_numeric_fields(data, _NUMERIC_FIELDS)
    n = _int_field(data, "n")
    if "vectors" in data:
        vectors = np.asarray(data["vectors"], dtype=float)
    else:
        vectors = inplane_grid(_int_field(data, "grid", 360))
    v_vectors = (
        _unit_vectors(data["v_vectors"], "v_vectors") if "v_vectors" in data else None
    )
    nv = len(vectors) if v_vectors is None else len(v_vectors)
    if "uv_weights" in data:
        uv = np.asarray(data["uv_weights"], dtype=float)
        # Checked entry by entry, as row sums can be valid weights while an
        # entry is negative.  The raw entries are returned: the model and
        # falsify_leggett each divide them by their sum once.
        _weights(uv, (len(vectors), nv), "uv_weights")
        return n, vectors, v_vectors, uv, uv.sum(axis=1)
    weights = data.get("weights")
    if weights is None:
        return n, vectors, v_vectors, None, None
    w = _weights(weights, (len(vectors),), "weights")
    wv = w if v_vectors is None else np.full(nv, 1.0 / nv)
    return n, vectors, v_vectors, np.outer(w, wv), weights


def model_from_dict(data: dict, n: int | None = None) -> HiddenVariableModel:
    """Build a model from its JSON description.

    Types: ``leggett`` (vector grids and weights), ``local_deterministic``
    (strategy tables and weights), ``nonlocal_qm`` (N and visibility), and
    ``custom_table`` (an inline distribution document).  With ``n`` given
    (the CLI's ``--n``), a model of another chain length is rejected; a
    document's own ``n`` is compared before any table is built, so that a
    huge one allocates nothing.
    """
    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError("model document needs a 'type' field") from exc
    _check_numeric_fields(data, _NUMERIC_FIELDS)
    if n is not None and kind in ("leggett", "local_deterministic", "nonlocal_qm") \
            and _int_field(data, "n") != n:
        raise ValueError("model chain length does not match --n")
    model = _model_of_kind(kind, data)
    if n is not None and model.n_settings != n:
        raise ValueError("model chain length does not match --n")
    return model


def _model_of_kind(kind, data: dict) -> HiddenVariableModel:
    """The model of a document whose ``type`` field reads ``kind``."""
    if kind == "leggett":
        n, vectors, v_vectors, uv, _ = _leggett_document(data)
        return leggett_model(n, vectors, v_vectors, uv)
    if kind == "local_deterministic":
        n = _int_field(data, "n")
        uv = np.asarray(data["uv_weights"], dtype=float) if "uv_weights" in data else None
        if uv is None and ("u_weights" in data or "v_weights" in data):
            missing = "v_weights" if "u_weights" in data else "u_weights"
            if missing not in data:
                raise ValueError(f"{missing} is missing: u_weights and v_weights go together")
            u, v = (np.asarray(data[k], dtype=float) for k in ("u_weights", "v_weights"))
            # 0 * inf in the product would be NaN, with a RuntimeWarning.
            for name, w in (("u_weights", u), ("v_weights", v)):
                if not np.all(np.isfinite(w)):
                    raise ValueError(f"{name} must be finite")
            # One weight per strategy; a table field that is not a list
            # fails the table check instead.
            sides = (("u_weights", u, "alice_tables"), ("v_weights", v, "bob_tables"))
            for name, w, side in sides:
                tables = _field(data, side)
                if isinstance(tables, list) and w.shape != (len(tables),):
                    raise ValueError(f"{name} must have length {len(tables)}")
            uv = np.outer(u, v)
        return local_deterministic_model(
            n, _field(data, "alice_tables"), _field(data, "bob_tables"), uv
        )
    if kind == "nonlocal_qm":
        return nonlocal_qm_model(
            _int_field(data, "n"),
            float(data.get("visibility", 1.0)),
            _int_field(data, "n_u", 1),
            _int_field(data, "n_v", 1),
        )
    if kind == "custom_table":
        dist = ConditionalDistribution.from_dict(_field(data, "distribution"))
        return table_model(dist)
    raise ValueError(f"unknown model type {kind!r}")


def model_from_json_file(path: str | Path, n: int | None = None) -> HiddenVariableModel:
    return model_from_dict(_load_json(path), n)
