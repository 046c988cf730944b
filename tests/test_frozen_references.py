"""The table and model checks, the noise mix and the Born-table build
against their frozen references in ``lemmas``: the same result bits, the
same exception type and the same message, on arrays that probe every
branch (NaN, infinities, signed zeros, negative dust on both sides of
``-NORM_TOL``, slices off 1 on both sides of 1e-12 and of ``NORM_TOL``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import ConditionalDistribution, cli
from chainedbell.distributions import _normalised
from chainedbell.hvm import HiddenVariableModel, _weights
from chainedbell.quantum import mix_with_noise
from lemmas import (
    reference_check_local_parts,
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
    @settings(max_examples=200, deadline=None)
    @given(rule_arrays(ndims=(2, 4)),
           st.one_of(st.sampled_from([0.0, 0.93, 1.0, np.nan, -0.1, 1.5]),
                     st.floats(0.0, 1.0)))
    def test_mix_matches_its_reference(self, drawn, visibility):
        table, n_out = drawn
        ndim = table.ndim
        try:
            dist = ConditionalDistribution(table.shape[:ndim - n_out], table.shape[ndim - n_out:],
                                           table)
        except ValueError:
            return  # only tables that pass the rule are mixed
        assert outcome(mix_with_noise, dist, visibility) == outcome(
            reference_mix_with_noise, dist, visibility)

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
