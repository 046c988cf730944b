"""The table and model checks, the noise mix and the Born-table build
against their frozen references in ``lemmas``: the same result bits, the
same exception type and the same message, on arrays that probe every
branch (NaN, infinities, signed zeros, negative dust on both sides of
``-NORM_TOL``, slices off 1 on both sides of 1e-12 and of ``NORM_TOL``).

The locality verdicts of ``check --locality-bound`` and ``falsify``
against the routes they took before one record carried them, kept here:
each with its own cap and its own comparison."""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import ConditionalDistribution, cli, qm_chained_distribution
from chainedbell.chained import evaluate_chain, noisy_chain_closed_form
from chainedbell.distributions import (
    NORM_TOL,
    _l1_upper_bounds,
    _max_pairwise_tv,
    _normalised,
    assert_nonsignaling,
)
from chainedbell.hvm import (
    HiddenVariableModel,
    _locality_distances,
    _weights,
    locality_bound_check,
    locality_measure,
    sampled_xu_table,
    xu_table,
)
from lemmas import (
    reference_check_local_parts,
    reference_locality_distances,
    reference_mix_with_noise,
    reference_normalised,
    reference_qm_table,
    reference_weights,
)

SPECIALS = [0.0, -0.0, -5e-10, -2e-9, np.nan, np.inf, -np.inf]
SLICE_OFFSETS = [0.0, 5e-13, 5e-12, 2e-9]


def outcome(fn, *args):
    """What a call gives: None, or its result's shape, memory order and
    bits (a table's for a distribution), or its exception's type and
    message."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    if result is None:
        return None
    if isinstance(result, ConditionalDistribution):
        result = result.table
    return result.shape, result.flags.c_contiguous, result.tobytes()


@st.composite
def rule_arrays(draw, ndims=(1, 2, 4), whole=False):
    """A float array of 1, 2 or 4 axes of 1 to 4 entries, and a count of
    trailing axes (all of them if ``whole``) whose slices hold a random
    share of entries set to one special value (or each to a random one)
    and sum to 1 with them, each slice then scaled by 1 plus or minus 0,
    5e-13, 5e-12 or 2e-9.  The array is C-ordered, Fortran-ordered or a
    view with negative strides."""
    ndim = draw(st.sampled_from(ndims))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim)))
    n_out = ndim if whole else draw(st.integers(1, ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = tuple(range(ndim - n_out, ndim))
    table = rng.random(shape)
    special = draw(st.sampled_from(["none", "mixed"] + SPECIALS))
    hit = rng.random(shape) < draw(st.sampled_from([0.1, 0.5]))
    if special == "mixed":
        table[hit] = rng.choice(SPECIALS, shape)[hit]
    elif special != "none":
        table[hit] = special
    # The other entries take the rest of each slice's mass.
    rest = np.where(hit, 0.0, table)
    with np.errstate(divide="ignore", invalid="ignore"):
        taken = np.where(hit & np.isfinite(table), table, 0.0).sum(axis=axes, keepdims=True)
        table = np.where(hit, table, rest * ((1.0 - taken) / rest.sum(axis=axes, keepdims=True)))
    per_slice = shape[:ndim - n_out] + (1,) * n_out
    table *= 1.0 + rng.choice(SLICE_OFFSETS, per_slice) * rng.choice([-1.0, 1.0], per_slice)
    layout = draw(st.sampled_from(["C", "F", "reversed"]))
    if layout == "F":
        table = np.asfortranarray(table)
    elif layout == "reversed":
        table = np.ascontiguousarray(table[::-1])[::-1]
    return table, n_out


def same_outcome_and_input_kept(fn, reference, table, *args):
    before = table.tobytes()
    assert outcome(fn, table, *args) == outcome(reference, table, *args)
    assert table.tobytes() == before


class TestTableRule:
    @settings(max_examples=600, deadline=None)
    @given(rule_arrays())
    def test_normalised_matches_its_reference(self, drawn):
        table, n_out = drawn
        same_outcome_and_input_kept(_normalised, reference_normalised, table, n_out)


class TestModelChecks:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(rule_arrays(ndims=(1, 2), whole=True), rule_arrays(ndims=(2,))))
    def test_weights_match_their_reference(self, drawn):
        # Weights are one distribution: rows that each sum to 1 are not.
        table, _ = drawn
        same_outcome_and_input_kept(_weights, reference_weights, table, table.shape, "p_uv")

    def test_weights_shape_error_comes_first(self):
        w = np.array([np.nan, 1.0])
        assert outcome(_weights, w, (3,), "u_weights") == outcome(
            reference_weights, w, (3,), "u_weights") == (ValueError,
                                                         "u_weights must have shape (3,)")

    @settings(max_examples=400, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 5e-10, 2e-9, 1e-3]), st.sampled_from(["none"] + SPECIALS))
    def test_local_parts_match_their_reference(self, n, seed, leak, special):
        # A product of two per-setting marginals has well-defined local
        # parts; ``leak`` moves one entry pair, keeping its slice's sum.
        rng = np.random.default_rng(seed)
        pa, pb = rng.random((n, 1, 2, 1)), rng.random((1, n, 1, 2))
        table = (pa / pa.sum(axis=2, keepdims=True)) * (pb / pb.sum(axis=3, keepdims=True))
        a, b = rng.integers(n, size=2)
        table[a, b, 0, 0] += leak
        table[a, b, 1, 1] -= leak
        if special != "none":
            table[rng.random(table.shape) < 0.2] = special
        with np.errstate(all="ignore"):  # inf - inf, as both forms meet it
            same_outcome_and_input_kept(
                HiddenVariableModel._check_local_parts, reference_check_local_parts, table)


class TestNoiseAndBornTable:
    @pytest.mark.parametrize("visibility", [None, 0.0, 0.93, 1.0])
    def test_qm_table_bits(self, visibility):
        for n in [*range(2, 65), 100, 200]:
            assert outcome(cli._qm_table, n, visibility, "n") == outcome(
                reference_qm_table, n, visibility), n

    def test_qm_table_bits_at_the_budget(self):
        # N = 1581 is the largest table the model budget allows
        # (4·N² = 9 998 244 entries).
        reference = reference_qm_table(1581)
        assert outcome(cli._qm_table, 1581, None, "n") == outcome(lambda: reference)
        for visibility in (0.0, 0.93, 1.0):
            assert outcome(cli._qm_table, 1581, visibility, "n") == outcome(
                reference_mix_with_noise, reference, visibility)


@dataclass(frozen=True)
class FrozenBoundReport:
    applicable: bool
    ns_violation: float
    lhs_x: tuple[float, ...]
    lhs_y: tuple[float, ...]
    bound: float | None
    passed: bool | None


def frozen_locality_bound_check(p, tol=NORM_TOL) -> FrozenBoundReport:
    """``locality_bound_check`` with its own report, cap and comparison; the
    kernel's marginal, once computed inside it when not given, is passed."""
    if p.n_parties not in (2, 3):
        raise ValueError("locality bound needs a 2- or 3-party table")
    if p.output_sizes[0] != 2 or p.output_sizes[1] != 2:
        raise ValueError("chain parties must have binary outcomes")
    n = p.input_sizes[0]
    if p.input_sizes[1] != n or n < 2:
        raise ValueError("chain parties must share N >= 2 settings")
    ns = assert_nonsignaling(p, tol)
    if not ns.passed:
        return FrozenBoundReport(False, ns.max_violation, (), (), None, None)
    t = p.table if p.n_parties == 3 else p.table[:, :, None, :, :, None]
    n_c = t.shape[2]
    xy = t[:, :, 0].sum(axis=-1)
    bound = 0.5 * evaluate_chain(ConditionalDistribution(xy)).value
    joints = np.empty((2, n, 2, n_c, t.shape[-1]))
    np.add(t[:, 0, :, :, 0], t[:, 0, :, :, 1], out=joints[0].transpose(0, 2, 1, 3))
    np.add(t[0, :, :, 0], t[0, :, :, 1], out=joints[1].transpose(0, 2, 1, 3))
    joints *= 1.0 / n_c
    rows = _normalised(joints.reshape(2 * n, 2, -1), 2)
    lhs = _locality_distances(rows, rows[:, 0] + rows[:, 1])
    return FrozenBoundReport(True, ns.max_violation, tuple(lhs[:n]), tuple(lhs[n:]), bound,
                             max(lhs) <= bound + NORM_TOL)


def frozen_locality_measure(p_xu, marginal_tol=1e-6):
    """``locality_measure`` as it returned (per_setting, max_distance),
    with the hidden-marginal gate it then ran, at its default 1e-6."""
    if p_xu.n_parties != 2 or p_xu.input_sizes[1] != 1 or p_xu.output_sizes[0] != 2:
        raise ValueError("expected parties (setting -> binary outcome, none -> hidden)")
    t = p_xu.table[:, 0]
    pu = t[:, 0] + t[:, 1]
    if len(pu) > 1:
        bound = 0.5 * float(_l1_upper_bounds(pu[:, None, :])[0])
        if bound > marginal_tol:
            dev = _max_pairwise_tv(pu[:, None, :])
            if dev > marginal_tol:
                raise ValueError(
                    f"hidden-variable marginal depends on the setting (deviation {dev})"
                )
    distances = _locality_distances(t, pu)
    return tuple(distances), max(distances)


def frozen_falsify(args, model) -> tuple[dict, int]:
    """``cmd_falsify`` on a model already read, with its own cap and its
    own verdict ``max_distance > bound + stat_tol``."""
    if args.shots is None and args.seed is not None:
        raise ValueError("--seed applies only with --shots")
    n = args.n
    payload: dict = {"n": n, "model_type": "per_side"}
    p_xu = xu_table(model)
    if args.shots is None:
        per_setting, max_distance = frozen_locality_measure(p_xu)
        stat_tol = NORM_TOL
        payload["mode"] = "exact"
    else:
        if args.shots < 1:
            raise ValueError("shots must be at least 1")
        samples = args.shots * n
        if samples > cli._INT64_MAX:
            raise ValueError(f"--shots must be at most {cli._INT64_MAX // n} at --n {n}")
        seed = cli._resolve_seed(args)
        payload["seed"] = seed
        p_xu = sampled_xu_table(p_xu, samples, seed)
        cells = 2 * model.n_u
        radius = math.sqrt(math.log(2.0 * cells * n / 1e-3) / (2.0 * samples))
        stat_tol = 0.5 * cells * radius
        per_setting, max_distance = frozen_locality_measure(
            p_xu, marginal_tol=max(1e-6, cells * radius))
        payload["mode"] = "monte_carlo"
        payload["shots_per_pair"] = args.shots
    bound = 0.5 * noisy_chain_closed_form(n, 1.0)
    falsified = max_distance > bound + stat_tol
    payload.update({
        "per_setting_distance": [[a, d] for a, d in enumerate(per_setting)],
        "bound": bound,
        "max_distance": max_distance,
        "falsified": falsified,
        "stat_tolerance": stat_tol,
    })
    return payload, (1 if falsified else 0)


def bound_verdict(p, tol):
    """The bound check's verdict in one form for both routes: whether it
    applies, the non-signaling violation, each distance, the cap and the
    tolerance (their bits), and ``passed``; or the exception's type and
    message."""
    try:
        result = locality_bound_check(p, tol)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    ns, rec = result
    if rec is None:
        return ns.passed, ns.max_violation.hex(), [], None, None, None
    return (ns.passed, ns.max_violation.hex(), [d.hex() for d in rec.per_setting],
            rec.cap.hex(), rec.tolerance.hex(), rec.passed)


def frozen_bound_verdict(p, tol):
    try:
        rep = frozen_locality_bound_check(p, tol)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    if not rep.applicable:
        return False, rep.ns_violation.hex(), [], None, None, None
    return (True, rep.ns_violation.hex(), [d.hex() for d in rep.lhs_x + rep.lhs_y],
            rep.bound.hex(), NORM_TOL.hex(), rep.passed)


def three_party_table(n, n_c, oz, k, rng, deterministic, quantum, drift):
    """A table P(x, y, z | a, b, c): a local model of ``k`` shared values
    (deterministic responses if asked), mixed with weight ``quantum`` with
    the quantum chained table times a uniform Z.  ``drift`` then moves up
    to that share of each (a, b, c) slice's mass onto z = 0, growing with
    Alice's setting: Z's marginal depends on a, the x and y marginals do
    not."""
    def responses(settings, outcomes):
        if deterministic:
            return np.eye(outcomes)[rng.integers(0, outcomes, (settings, k))]
        r = rng.random((settings, k, outcomes))
        return r / r.sum(axis=-1, keepdims=True)

    w = rng.random(k)
    table = np.einsum("l,alx,bly,clz->abcxyz", w / w.sum(), responses(n, 2),
                      responses(n, 2), responses(n_c, oz))
    if quantum:
        qm = qm_chained_distribution(n).table[:, :, None, :, :, None] / oz
        table = (1.0 - quantum) * table + quantum * qm
    if drift:
        eps = (drift * np.arange(n) / (n - 1))[:, None, None, None, None, None]
        to_zero = np.zeros(oz)
        to_zero[0] = 1.0
        table = (1.0 - eps) * table + eps * table.sum(axis=-1, keepdims=True) * to_zero
    return table


@st.composite
def bound_tables(draw):
    """Two- and three-party tables for the bound, N 2 to 8, C and Z 1 to
    3, some with Z's marginal moving with Alice's setting."""
    n = draw(st.integers(2, 8))
    three = draw(st.booleans())
    n_c, oz = (draw(st.integers(1, 3)), draw(st.integers(1, 3))) if three else (1, 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = three_party_table(
        n, n_c, oz, draw(st.integers(1, 4)), rng, draw(st.booleans()),
        draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.sampled_from([0.0, 2e-6, 5e-4, 2e-3])))
    if three:
        return ConditionalDistribution(table)
    return ConditionalDistribution(table[:, :, 0, :, :, 0])


def falsify_outcome(route, args, model):
    try:
        payload, code = route(args, model)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    return cli._payload_text(payload), code


def new_falsify(args, model):
    """``cmd_falsify`` with its document reader and model builder handing
    it ``model``."""
    with mock.patch.object(cli, "_load_json", lambda path: {"type": "per_side"}), \
            mock.patch.object(cli, "model_from_dict", lambda raw, n: model):
        return cli.cmd_falsify(args)


class TestLocalityVerdicts:
    @settings(max_examples=300, deadline=None)
    @given(bound_tables(), st.sampled_from([1e-9, 1e-3]))
    def test_bound_check_matches_its_frozen_route(self, p, tol):
        assert bound_verdict(p, tol) == frozen_bound_verdict(p, tol)

    def test_a_hidden_marginal_moving_within_tol_is_measured(self):
        # Z's marginal moves with Alice's setting by more than 1e-6 and
        # less than --tol 1e-3: the bound's own non-signaling check lets
        # it pass, and each setting is measured against its own marginal.
        rng = np.random.default_rng(5)
        table = three_party_table(4, 2, 3, 3, rng, False, 0.5, 5e-4)
        p = ConditionalDistribution(table)
        ns, rec = locality_bound_check(p, 1e-3)
        assert 1e-6 < ns.max_violation <= 1e-3 and rec.passed
        assert bound_verdict(p, 1e-3) == frozen_bound_verdict(p, 1e-3)
        t = p.table[:, 0].sum(axis=3)  # Alice's (c, x, z) rows at Bob's first setting
        rows = ConditionalDistribution(np.moveaxis(t / 2, 2, 1).reshape(4, 1, 2, 6))
        got = locality_measure(rows, 1.0).per_setting
        expected = reference_locality_distances(rows.table[:, 0])
        assert [d.hex() for d in got] == [d.hex() for d in expected]

    @pytest.mark.parametrize("inputs, outputs", [
        ((2,), (2,)), ((2, 2, 1, 1), (2, 2, 1, 1)), ((2, 2), (3, 2)), ((2, 2), (2, 3)),
        ((2, 3), (2, 2)), ((1, 1), (2, 2)), ((3, 3, 2), (2, 2, 1))])
    def test_bound_check_errors_match(self, inputs, outputs):
        table = np.full(inputs + outputs, 1.0 / math.prod(outputs))
        p = ConditionalDistribution(table)
        for tol in (1e-9, 1e-3):
            assert bound_verdict(p, tol) == frozen_bound_verdict(p, tol)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([None, None, 0, 1, 50, 10**4]), st.booleans())
    def test_falsify_matches_its_frozen_verdict(self, n, n_u, seed, deterministic, shots,
                                                seeded):
        # Per-side models, some with deterministic responses and hidden
        # values of weight 0; a --seed without --shots is the usage error.
        rng = np.random.default_rng(seed)
        r = rng.random((n, n_u, 2))
        r /= r.sum(axis=-1, keepdims=True)
        if deterministic:
            r = np.eye(2)[rng.integers(0, 2, (n, n_u))]
        w = rng.random(n_u) * (rng.random(n_u) < 0.8)
        w = np.full(n_u, 1.0 / n_u) if w.sum() == 0 else w / w.sum()
        model = HiddenVariableModel(alice=r, bob=r[::-1], p_u=w, p_v=w)
        args = SimpleNamespace(model="m.json", n=n, shots=shots,
                               seed=seed if seeded or shots is not None else None)
        assert falsify_outcome(new_falsify, args, model) == falsify_outcome(
            frozen_falsify, args, model)

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_falsify_at_the_edge_of_the_cap(self, n, side):
        # Alice's distance W/2 at W = I_N (1 +- 1e-6): just below or above
        # the cap, where the two comparisons must agree.
        w = noisy_chain_closed_form(n, 1.0) * (1.0 + side * 1e-6)
        r = np.empty((n, 2, 2))
        r[:, 0], r[:, 1] = [1.0, 0.0], 0.5
        model = HiddenVariableModel(alice=r, bob=r, p_u=[w, 1.0 - w], p_v=[w, 1.0 - w])
        args = SimpleNamespace(model="m.json", n=n, shots=None, seed=None)
        got = falsify_outcome(new_falsify, args, model)
        assert got == falsify_outcome(frozen_falsify, args, model)
        assert got[1] == (1 if side > 0 else 0)


class TestPlantedDivergence:
    """The comparison sees a divergence in the bits of a zero, in a
    message, and in an exception's type."""

    def test_each_kind_of_divergence_is_seen(self):
        table = np.array([[0.5, 0.5], [-0.0, 1.0]])
        assert outcome(reference_normalised, table, 1) != outcome(
            lambda t, k: reference_normalised(t, k) + 0.0, table, 1)  # -0.0 turned 0.0

        def worded(t, k):
            try:
                return reference_normalised(t, k)
            except ValueError as exc:
                raise ValueError(str(exc).replace("off by", "off 1 by")) from None

        def retyped(t, k):
            try:
                return reference_normalised(t, k)
            except ValueError as exc:
                raise ArithmeticError(str(exc)) from None

        drifting = np.array([[0.6, 0.6]])
        want = outcome(reference_normalised, drifting, 1)
        assert want[0] is ValueError
        assert outcome(worded, drifting, 1) != want
        assert outcome(retyped, drifting, 1) != want
