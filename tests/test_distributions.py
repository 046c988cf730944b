"""Distribution table invariants and the distance toolbox."""

import contextlib
import io
import json
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import cli, distributions
from chainedbell.distributions import NORM_TOL, NonSignalingReport
from chainedbell import (
    ConditionalDistribution,
    HiddenVariableModel,
    assert_nonsignaling,
    locality_bound_check,
    qm_chained_distribution,
    read_json_file,
    write_json_file,
)
from lemmas import (
    Distribution,
    as_distribution,
    average_conditional_distance,
    conditional,
    coupling_distance_bound,
    marginalize,
    plain_read_json_file,
    stat_distance,
    uniform_distribution,
)


def random_distribution(rng, shape):
    t = rng.random(shape)
    return Distribution(t / t.sum())


def random_conditional(rng, input_sizes, output_sizes):
    shape = tuple(input_sizes) + tuple(output_sizes)
    t = rng.random(shape)
    axes = tuple(range(len(input_sizes), len(shape)))
    t = t / t.sum(axis=axes, keepdims=True)
    return ConditionalDistribution(t)


class TestConstruction:
    def test_negative_dust_clamped(self):
        d = Distribution([1.0 + 5e-10, -5e-10])
        assert d.probs[1] == 0.0
        assert abs(d.probs.sum() - 1.0) < 1e-9

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution([1.1, -0.1])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Distribution([0.6, 0.6])

    @pytest.mark.parametrize("table, message", [
        (np.array(1.0), "need one input and one output alphabet per party"),
        (np.full((1, 2, 2), 0.25), "need one input and one output alphabet per party"),
        (np.ones((2, 0)), "alphabet sizes must be >= 1"),
    ], ids=["0-d", "rank-3", "zero-length-axis"])
    def test_sizes_read_from_the_shape_rejected(self, table, message):
        # The sizes are the two halves of the shape, so only the shape can be wrong.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConditionalDistribution(table)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Distribution([np.nan, 1.0])

    def test_tables_are_frozen(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.table[0, 0] = 1.0
        with pytest.raises(AttributeError):
            d.table = None

    def test_normalization_preserved_by_operations(self):
        rng = np.random.default_rng(0)
        p = random_conditional(rng, (2, 3), (2, 2))
        m = marginalize(p, [0])
        sums = m.table.sum(axis=(2, 3))
        assert np.abs(sums - 1.0).max() < 1e-9


class TestStatDistance:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(1)
        p = random_distribution(rng, (5,))
        assert stat_distance(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert stat_distance(Distribution([1, 0]), Distribution([0, 1])) == 1.0

    def test_direct_arithmetic(self):
        p = Distribution([0.75, 0.25])
        q = Distribution([0.5, 0.5])
        assert stat_distance(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            stat_distance(Distribution([0.5, 0.5]), Distribution([1.0, 0.0, 0.0]))

    def test_excess_form_identity_random(self):
        # Half-L1 must equal the positive-excess sum; recomputed here as an
        # independent check on top of the in-function tripwire.
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = random_distribution(rng, (6,))
            q = random_distribution(rng, (6,))
            d = stat_distance(p, q)
            excess = float(np.maximum(q.probs - p.probs, 0.0).sum())
            assert abs(d - excess) < 1e-12

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = random_distribution(rng, (4,))
            q = random_distribution(rng, (4,))
            r = random_distribution(rng, (4,))
            assert stat_distance(p, r) <= (
                stat_distance(p, q) + stat_distance(q, r) + 1e-12
            )


class TestMarginalize:
    def test_product_marginal(self):
        px = np.array([0.7, 0.3])
        pz = np.array([0.2, 0.3, 0.5])
        joint = Distribution(np.outer(px, pz))
        m = marginalize(joint, [0])
        assert np.allclose(as_distribution(m).probs.ravel(), px, atol=1e-12)

    def test_perfectly_correlated_pair(self):
        joint = Distribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        m = marginalize(joint, [0])
        assert np.allclose(as_distribution(m).probs.ravel(), [0.5, 0.5], atol=1e-15)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            marginalize(Distribution(np.full((2, 2), 0.25)), [])

    def test_inputs_retained(self):
        rng = np.random.default_rng(4)
        p = random_conditional(rng, (3, 2), (2, 2))
        m = marginalize(p, [1])
        assert m.input_sizes == (3, 2)
        assert m.output_sizes == (1, 2)

    def test_marginals_never_increase_distance(self):
        # Monotonicity under marginalization, on random joint pairs.
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = random_distribution(rng, (3, 4))
            q = random_distribution(rng, (3, 4))
            dm = stat_distance(marginalize(p, [0]), marginalize(q, [0]))
            assert dm <= stat_distance(p, q) + 1e-12


class TestNonSignaling:
    def test_product_channels_pass(self):
        rng = np.random.default_rng(6)
        pa = random_conditional(rng, (3,), (2,))
        pb = random_conditional(rng, (4,), (3,))
        table = np.einsum("ax,by->abxy", pa.table, pb.table)
        p = ConditionalDistribution(table)
        rep = assert_nonsignaling(p)
        assert rep.passed
        assert rep.max_violation < 1e-12

    def test_copy_input_table_fails_maximally(self):
        # Alice's output copies Bob's input.
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                table[a, b, b, 0] = 1.0
        p = ConditionalDistribution(table)
        rep = assert_nonsignaling(p)
        assert not rep.passed
        assert rep.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_party_cap(self):
        p = uniform_distribution((2,) * 5)
        with pytest.raises(ValueError, match="at most"):
            assert_nonsignaling(p)

    @pytest.mark.parametrize("n_c", [1, 3])
    def test_one_output_party_adds_no_rounding(self, n_c):
        # A product table whose rows are built as (p, 1 - p): some slices
        # sum to 1 only up to rounding.  A one-output party's marginal is
        # that sum, which the table rule already holds to 1; it once read
        # 1.1e-16 as a signal.
        ma = np.array([(p, 1 - p) for p in (0.4, 0.8)])
        mb = np.array([(p, 1 - p) for p in (0.3, 0.3)])
        xy = ma[:, None, :, None] * mb[None, :, None, :]
        table = np.broadcast_to(xy[:, :, None, :, :, None], (2, 2, n_c, 2, 2, 1))
        p3 = ConditionalDistribution(table)
        assert assert_nonsignaling(p3, 0.0) == NonSignalingReport(0.0, True, 0.0)
        assert assert_nonsignaling(ConditionalDistribution(xy), 0.0).passed


def broadcast_max_tv(arr):
    """The all-pairs expression the pairwise kernel replaced."""
    return float((0.5 * np.abs(arr[:, None] - arr[None, :]).sum(axis=-1)).max())


@st.composite
def context_arrays(draw):
    """(c, s, o) arrays in one of several memory layouts, plus a flag saying
    whether the o axis is still the fastest-varying one."""
    c = draw(st.integers(1, 12))
    s = draw(st.integers(1, 4))
    o = draw(st.sampled_from([1, 2, 3, 8, 9]))
    seed = draw(st.integers(0, 2**32 - 1))
    base = np.random.default_rng(seed).random((c, s, o))
    if draw(st.booleans()):
        base /= base.sum(axis=-1, keepdims=True)  # conditional slices
    layout = draw(st.sampled_from(["c", "inputs_transposed", "strided", "reversed"]))
    if layout == "inputs_transposed":  # as assert_nonsignaling's reshape makes
        return np.ascontiguousarray(base.transpose(1, 0, 2)).transpose(1, 0, 2), True
    if layout == "strided":
        big = np.zeros((c, 2 * s, 3 * o))
        big[:, ::2, ::3] = base
        return big[:, ::2, ::3], True
    if layout == "reversed":
        return np.ascontiguousarray(base.transpose(2, 1, 0)).transpose(2, 1, 0), False
    return base, True


@st.composite
def tied_arrays(draw):
    """(c, s, o) arrays of values a few ulps around 1/2, 0.5 + k*eps for k
    in -2..2, with some contexts copied from others: ties everywhere, so
    the bounds' argmax and argmin pick among equals, and many slices
    survive them."""
    c = draw(st.integers(1, 12))
    s = draw(st.integers(1, 4))
    o = draw(st.sampled_from([1, 2, 3, 8, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = 0.5 + rng.integers(-2, 3, (c, s, o)) * np.finfo(float).eps
    for i in range(1, c):
        if draw(st.booleans()):
            arr[i] = arr[draw(st.integers(0, i - 1))]
    return arr


def envelope_tv(arr):
    """Distance between the entrywise max and min rows of a (c, s, o) array,
    from the pairwise kernel's per-slice bound: the bound on which
    ``_max_pairwise_tv`` settles a slice without its all-pairs sweep."""
    return 0.5 * float(distributions._l1_upper_bounds(arr).max())


@st.composite
def marginal_rows(draw):
    """(c, 1, o) arrays of normalized rows, with duplicated rows and rows
    one ulp away from another now and then."""
    c = draw(st.integers(2, 60))
    o = draw(st.sampled_from([1, 2, 3, 8, 9, 500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.random(o) + 0.01
    base /= base.sum()
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.3]))
    rows = np.abs(base + spread * rng.standard_normal((c, o)))
    rows /= rows.sum(axis=1, keepdims=True)
    for i in range(1, c):
        kind = draw(st.sampled_from(["own", "own", "duplicate", "ulp"]))
        if kind != "own":
            rows[i] = rows[draw(st.integers(0, i - 1))]
        if kind == "ulp":
            j = draw(st.integers(0, o - 1))
            rows[i, j] = np.nextafter(rows[i, j], draw(st.sampled_from([0.0, 1.0])))
    return rows[:, None, :]


@st.composite
def signed_tables(draw):
    """Tables of 2 to 4 parties with inputs of 1 to 3 values and outputs of
    1 to 9, some entries -0.0 or negative, plus the output axes of a
    non-empty party subset to sum out."""
    n = draw(st.integers(2, 4))
    inputs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random(inputs + outputs)
    kind = draw(st.sampled_from(["plain", "zeros", "negative_zeros", "signs"]))
    if kind == "zeros":
        table[rng.random(table.shape) < 0.5] = 0.0
    elif kind == "negative_zeros":
        table[rng.random(table.shape) < draw(st.sampled_from([0.5, 1.0]))] = -0.0
    elif kind == "signs":
        table[rng.random(table.shape) < 0.5] *= -1.0
    comp = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return table, tuple(sorted(n + i for i in comp))


class TestOutputMarginal:
    @settings(max_examples=400, deadline=None)
    @given(signed_tables())
    def test_equals_numpy_sum_bit_for_bit(self, drawn):
        table, drop_axes = drawn
        got = distributions._output_marginal(table, drop_axes)
        want = table.sum(axis=drop_axes)
        assert got.shape == want.shape
        # Compared as bits, so that -0.0 and 0.0 differ.
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def slice_stacks(draw):
    """Stacks of slices over 1 to 3 input axes and 1 to 3 output axes,
    whose trailing output run spans 1 to 9 entries or up to 125, each slice
    off 1 by nothing, by ulps or by up to 5e-10; some with zeros, or with
    -0.0 or negative dust in their place, some whole slices -0.0.  Returns
    the stack and its output-axis count."""
    inputs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    outputs = draw(st.one_of(
        st.lists(st.integers(1, 9), min_size=1, max_size=1),
        st.lists(st.integers(1, 5), min_size=2, max_size=3),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(inputs + outputs)
    out_axes = tuple(range(len(inputs), len(shape)))
    table = rng.random(shape)
    kind = draw(st.sampled_from(["plain", "zeros", "negative_zeros", "dust", "zero_slices"]))
    zero = rng.random(shape) < (0.0 if kind == "plain" else 0.5)
    table[zero] = 0.0
    table[table.sum(axis=out_axes) == 0.0] = 1.0  # every slice keeps some mass
    table /= table.sum(axis=out_axes, keepdims=True)
    drift = draw(st.sampled_from([0.0, 1e-16, 1e-13, 5e-12, 5e-10]))
    table *= 1.0 + drift * rng.uniform(-1.0, 1.0, shape)
    if kind == "negative_zeros":
        table[table == 0.0] = -0.0
    elif kind == "dust":
        table[zero & (rng.random(shape) < 0.5)] = -0.5 * NORM_TOL
    elif kind == "zero_slices":  # these sum to 0.0 and are rejected
        table[rng.random(tuple(inputs)) < 0.5] = -0.0
    return table, len(outputs)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestNormalised:
    @settings(max_examples=400, deadline=None)
    @given(slice_stacks())
    def test_slice_sums_equal_numpy_sum_bit_for_bit(self, drawn):
        table, n_out = drawn
        run = math.prod(table.shape[table.ndim - n_out:])
        got = distributions._slice_sums(table.reshape(-1, run))
        want = table.sum(axis=tuple(range(table.ndim - n_out, table.ndim))).ravel()
        # Compared as bits, so that -0.0 and 0.0 differ.
        assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=400, deadline=None)
    @given(slice_stacks())
    def test_equals_the_reference_rule(self, drawn):
        # The rule written with NumPy's own reductions: clamp negative dust,
        # reject a slice off 1 by more than NORM_TOL, and divide each slice
        # off by more than 1e-12 by its sum.
        table, n_out = drawn
        before = table.copy()
        clamped = np.clip(table, 0.0, None) if table.min() < 0.0 else table
        sums = clamped.sum(axis=tuple(range(table.ndim - n_out, table.ndim)), keepdims=True)
        drift = np.abs(sums - 1.0)
        if drift.max() > NORM_TOL:
            with pytest.raises(ValueError, match="must sum to 1"):
                distributions._normalised(table, n_out)
        else:
            got = distributions._normalised(table, n_out)
            want = np.where(drift > 1e-12, clamped / sums, clamped)
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(table), bits(before))  # the input is never written

    def test_only_a_drifting_slice_is_divided(self):
        # Slice 0 is off 1 by about 5e-12, slice 1 by about 1e-13: only
        # slice 0 is divided; slice 1 keeps its bits.
        table = np.array([[0.5, 0.5 + 5e-12], [0.25, 0.75 + 1e-13]])
        sums = table.sum(axis=1)
        assert abs(sums[0] - 1.0) > 1e-12 and 0.0 < abs(sums[1] - 1.0) < 1e-12
        d = ConditionalDistribution(table)
        assert np.array_equal(bits(d.table[0]), bits(table[0] / sums[0]))
        assert np.array_equal(bits(d.table[1]), bits(table[1]))
        # Model tables follow the same rule, slice by slice; so do the
        # per-side responses, response by response, and the weights.
        tables = np.full((2, 2, 2, 2), 0.25)
        tables[0, 0, 0, 0] += 5e-12
        tables[1, 1, 0, 0] += 1e-13
        model = HiddenVariableModel(table=ConditionalDistribution(tables))
        t = model.table.table
        assert np.array_equal(bits(t[0, 0]), bits(tables[0, 0] / tables[0, 0].sum()))
        assert np.array_equal(bits(t[1, 1]), bits(tables[1, 1]))
        responses = np.broadcast_to(table, (2, 2, 2))
        model = HiddenVariableModel(alice=responses, bob=responses, p_u=table[1])
        for side in (model.alice, model.bob):
            assert np.array_equal(bits(side[:, 0]), bits(np.tile(table[0] / sums[0], (2, 1))))
            assert np.array_equal(bits(side[:, 1]), bits(np.tile(table[1], (2, 1))))
        assert np.array_equal(bits(model.p_u), bits(table[1]))
        assert np.array_equal(bits(model.p_v), bits(np.full(2, 0.5)))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([np.nan, 1.0], "table entries must be finite"),
            ([np.inf, 0.0], "table entries must be finite"),
            ([1.0 + 2e-9, -2e-9], "negative entry -2e-09 below -1e-09"),
            ([0.6, 0.6], "conditional slices must sum to 1 (off by 0.19999999999999996)"),
        ],
        ids=["nan", "inf", "negative", "drift"],
    )
    def test_error_messages(self, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConditionalDistribution(np.array([entries]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            distributions._normalised(np.array([entries]), 1)


class TestMaxPairwiseTV:
    @settings(max_examples=300, deadline=None)
    @given(context_arrays(), st.sampled_from([1 << 18, 1, 7, 64]))
    def test_equals_the_broadcast_exactly(self, drawn, budget):
        arr, o_fastest = drawn
        with mock.patch.object(distributions, "_PAIRWISE_BLOCK_ELEMS", budget):
            got = distributions._max_pairwise_tv(arr)
        # Bit-identical to the broadcast on a C-ordered copy, and on the
        # array itself when its o axis varies fastest (every caller's case).
        assert got == broadcast_max_tv(np.ascontiguousarray(arr))
        if o_fastest:
            assert got == broadcast_max_tv(arr)

    @settings(max_examples=300, deadline=None)
    @given(tied_arrays())
    def test_ties_duplicates_and_survivors_equal_the_broadcast(self, arr):
        assert distributions._max_pairwise_tv(arr) == broadcast_max_tv(arr)

    @settings(max_examples=300, deadline=None)
    @given(marginal_rows())
    def test_envelope_bounds_every_pair(self, arr):
        """Guards the pruning in ``assert_nonsignaling``:
        ``_max_pairwise_tv`` skips the all-pairs sweep of a slice whose
        envelope is no larger than a pair already found, which is exact
        only if no pair's distance rounds above its slice's envelope."""
        assert envelope_tv(arr) >= distributions._max_pairwise_tv(arr)

    def test_a_slice_that_survives_the_bounds_is_swept(self):
        # The contexts with the largest and the smallest first outcome are
        # 0.1 apart in L1; the third context is 1.05 from each.
        arr = np.array([[1.0, 0.0], [0.9, 0.0], [0.95, 1.0]])[:, None, :]
        sweep = mock.Mock(wraps=distributions._all_pairs_max_l1)
        with mock.patch.object(distributions, "_all_pairs_max_l1", sweep):
            got = distributions._max_pairwise_tv(arr)
        assert sweep.call_count == 1
        assert got == broadcast_max_tv(arr)
        assert got == pytest.approx(0.525, abs=1e-15)

    def test_quantum_table_sweeps_no_pair(self):
        # The bounds settle every slice of a quantum table; a change that
        # sends it back to the all-pairs sweep fails here, not silently.
        p = qm_chained_distribution(50)
        sweep = mock.Mock(wraps=distributions._all_pairs_max_l1)
        with mock.patch.object(distributions, "_all_pairs_max_l1", sweep):
            rep = assert_nonsignaling(p)
        assert rep.passed
        assert sweep.call_count == 0

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak, elapsed

    def test_two_party_memory_scales_with_the_table(self):
        # The broadcast allocated two (N, N, N, 2) arrays here, 4 GB; the
        # bound is two tables plus 16 MB.
        p = qm_chained_distribution(500)
        rep, peak, _ = self._peak_bytes(lambda: assert_nonsignaling(p, 1e-12))
        assert rep.passed
        assert peak < 2 * p.table.nbytes + 16 * 2**20

    def test_three_party_locality_bound_memory_and_time(self):
        # N^2 = 90 000 contexts for the hidden party's marginal: the
        # broadcast would have needed about 130 GB.
        n = 300
        table = qm_chained_distribution(n).table.reshape(n, n, 1, 2, 2, 1)
        p3 = ConditionalDistribution(table)
        rep, peak, elapsed = self._peak_bytes(
            lambda: locality_bound_check(p3)
        )
        ns, record = rep
        assert ns.passed and record.passed
        assert peak < 2 * p3.table.nbytes + 16 * 2**20
        assert elapsed < 5.0


class TestAverageConditionalDistance:
    def test_uniform_conditionals_give_zero(self):
        pz = np.array([0.25, 0.75])
        p = Distribution(np.outer([0.5, 0.5], pz))
        q = Distribution(np.outer([0.5, 0.5], pz))
        assert average_conditional_distance(p, q) == 0.0

    def test_deterministic_conditionals(self):
        # X = Z with Z uniform, against uniform x uniform: each conditional
        # distance is 1/2 so the average is 1/2.
        p = Distribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        q = Distribution(np.full((2, 2), 0.25))
        assert average_conditional_distance(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_matches_joint_distance_random(self):
        # The average form must reproduce the joint distance whenever the
        # side marginals match; the joint distance is the oracle.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            pz = rng.random(3)
            pz /= pz.sum()
            pxz = rng.random((4, 3))
            pxz /= pxz.sum(axis=0, keepdims=True)
            qxz = rng.random((4, 3))
            qxz /= qxz.sum(axis=0, keepdims=True)
            p = Distribution(pxz * pz)
            q = Distribution(qxz * pz)
            avg = average_conditional_distance(p, q)
            joint = stat_distance(p, q)
            assert abs(avg - joint) < 1e-9

    def test_unequal_marginals_rejected(self):
        p = Distribution(np.outer([0.5, 0.5], [0.9, 0.1]))
        q = Distribution(np.outer([0.5, 0.5], [0.1, 0.9]))
        with pytest.raises(ValueError, match="Z-marginals"):
            average_conditional_distance(p, q)


class TestCouplingBound:
    def test_perfect_coupling(self):
        px = np.array([0.3, 0.7])
        rep = coupling_distance_bound(Distribution(np.diag(px)))
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-15)
        assert rep.passed

    def test_independent_uniform_pair(self):
        rep = coupling_distance_bound(Distribution(np.full((2, 2), 0.25)))
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.passed

    def test_random_joints_always_pass(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            rep = coupling_distance_bound(random_distribution(rng, (4, 4)))
            assert rep.passed
            assert rep.lhs <= rep.rhs + 1e-12


class TestHelpers:
    def test_conditional_accessor(self):
        rng = np.random.default_rng(12)
        p = random_conditional(rng, (3, 2), (2, 2))
        d = conditional(p, (1, 0))
        assert np.array_equal(d.probs, p.table[1, 0])
        with pytest.raises(ValueError, match="per party"):
            conditional(p, (1,))


class TestJsonRoundTrip:
    def test_dict_round_trip_bit_exact(self):
        rng = np.random.default_rng(10)
        p = random_conditional(rng, (3, 2), (2, 2))
        q = ConditionalDistribution.from_dict(p.to_dict())
        assert q == p

    def test_file_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        p = random_conditional(rng, (2, 2), (2, 2))
        path = tmp_path / "dist.json"
        write_json_file(p, path)
        q = read_json_file(path)
        assert q == p
        # And a second hop stays identical.
        write_json_file(q, path)
        assert read_json_file(path) == p

    def test_document_shape(self, tmp_path):
        p = uniform_distribution((2, 2))
        doc = p.to_dict()
        assert set(doc) == {"parties", "outputs", "inputs", "table"}
        assert doc["parties"] == 2
        assert doc["table"] == [0.25, 0.25, 0.25, 0.25]

    def test_infinite_size_is_malformed(self):
        # 1e400 parses as infinity; int() raises OverflowError on it.
        with pytest.raises(ValueError, match="malformed"):
            ConditionalDistribution.from_dict(
                {"parties": 2, "outputs": [2, 2], "inputs": [1e400, 2], "table": []}
            )

    def test_integral_sizes_of_any_number_type_are_read(self):
        # Sizes are read, not truncated: 2.0 and NumPy's integers pass, 2.5 fails.
        doc = {**uniform_distribution((2, 2)).to_dict(), "parties": np.int64(2),
               "outputs": [2.0, np.int32(2)], "inputs": [np.float32(1.0), 1]}
        assert ConditionalDistribution.from_dict(doc) == uniform_distribution((2, 2))
        with pytest.raises(ValueError, match="inputs must be an integer, got 2.5"):
            ConditionalDistribution.from_dict({**doc, "inputs": [2.5, 1]})

    def test_deeply_nested_file_is_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            read_json_file(path)

    def test_signed_zeros_keep_their_text(self):
        flat = np.array([0.0, -0.0, 0.0, 5e-324, -0.0, 1.0])
        assert distributions._json_float_list(flat) == json.dumps(flat.tolist())[1:-1]
        assert distributions._json_float_list(flat) == "0.0, -0.0, 0.0, 5e-324, -0.0, 1.0"

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            ConditionalDistribution.from_dict({"parties": 2})
        with pytest.raises(ValueError, match="length"):
            ConditionalDistribution.from_dict(
                {"parties": 1, "outputs": [2], "inputs": [1], "table": [1.0]}
            )


@st.composite
def nested_lists(draw):
    """Nested lists of numbers and null: free ones, most of them ragged, or
    rectangular ones of a drawn shape, zero-length axes included."""
    leaf = st.one_of(st.none(), st.integers(-3, 3), st.floats(-2, 2))
    if draw(st.booleans()):
        return draw(st.recursive(leaf, lambda kids: st.lists(kids, max_size=3), max_leaves=12))

    def fill(dims):
        return [fill(dims[1:]) for _ in range(dims[0])] if dims else draw(leaf)

    return fill(draw(st.lists(st.integers(0, 3), max_size=4)))


class TestRaggedFields:
    @settings(max_examples=400, deadline=None)
    @given(nested_lists())
    def test_ragged_exactly_when_numpy_finds_an_inhomogeneous_shape(self, value):
        try:
            np.asarray(value, dtype=float)
        except ValueError as exc:
            assert "inhomogeneous shape" in str(exc)
            with pytest.raises(ValueError, match="^table must be a rectangular array of numbers$"):
                distributions._check_numeric_fields({"table": value}, ("table",))
        else:
            distributions._check_numeric_fields({"table": value}, ("table",))


# Values whose text a value-keyed memo could get wrong: both zeros (equal
# as floats, different text) and subnormals, down to the smallest one.
_TINY = [0.0, -0.0, 5e-324, 1e-320, 2.225073858507201e-308]


@st.composite
def table_slices(draw):
    """A valid conditional table in which every slice is one of: a 1.0 among
    zeros and subnormals, a dyadic split with repeated exact values, or
    random (all-distinct) entries."""
    n_parties = draw(st.integers(1, 2))
    inputs = tuple(draw(st.integers(1, 4)) for _ in range(n_parties))
    outputs = tuple(draw(st.integers(1, 4)) for _ in range(n_parties))
    o = math.prod(outputs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slices = []
    for _ in range(math.prod(inputs)):
        kind = draw(st.sampled_from(["one", "dyadic", "random"]))
        if kind == "random":
            row = rng.random(o) + 0.01
            row /= row.sum()
        else:
            mass = [1.0]
            while kind == "dyadic" and len(mass) < o and rng.random() < 0.7:
                half = mass.pop(rng.integers(len(mass))) / 2
                mass += [half, half]
            row = np.array(mass + [_TINY[k] for k in rng.integers(len(_TINY), size=o - len(mass))])
            rng.shuffle(row)
        slices.append(row)
    return ConditionalDistribution(np.array(slices).reshape(inputs + outputs))


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(table_slices())
    def test_bytes_and_bits_match_json_dumps(self, tmp_path_factory, p):
        path = tmp_path_factory.mktemp("writer") / "dist.json"
        write_json_file(p, path)
        assert path.read_text() == json.dumps(p.to_dict()) + "\n"
        back = read_json_file(path).table
        assert np.array_equal(back.view(np.uint64), p.table.view(np.uint64))

    def test_each_distinct_value_is_formatted_once(self, tmp_path, monkeypatch):
        # Six distinct values (as bits: 0.0 and -0.0 differ) among 24 entries.
        table = np.array([
            [1.0, 0.0, -0.0, 0.0], [0.5, 0.5, 0.0, -0.0], [0.25, 0.25, 0.25, 0.25],
            [5e-324, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, -0.0], [0.5, 0.0, 0.5, -0.0],
        ])
        p = ConditionalDistribution(table)
        calls = []
        monkeypatch.setattr(distributions, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        write_json_file(p, tmp_path / "t.json")
        assert len(calls) == 6
        assert (tmp_path / "t.json").read_text() == json.dumps(p.to_dict()) + "\n"


def read_outcome(read, path):
    """What a reader makes of a file: the sizes and the table's bits, or
    the error's type and text."""
    try:
        p = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return p.input_sizes, p.output_sizes, p.table.tobytes()


def check_outcome(path, *extra):
    """``check``'s exit code and stdout on a file, with the library reader
    and with the plain ``json.loads`` one."""
    runs = []
    for reader in (cli.read_json_file, plain_read_json_file):
        out = io.StringIO()
        with mock.patch.object(cli, "read_json_file", reader), contextlib.redirect_stdout(out):
            code = cli.main(["check", str(path), *extra])
        runs.append((code, out.getvalue()))
    return runs


def written_parts(p):
    """The text the writer puts before a table's entries, and the entries'
    tokens."""
    head, rest = (json.dumps(p.to_dict()) + "\n").split(', "table": [')
    return head, rest[:-3].split(", ")


def layout_text(head, tokens, sep=", ", tail="]}\n"):
    return f'{head}, "table": [{sep.join(tokens)}{tail}'


# Entries that replace one table token: JSON numbers that are not the
# writer's spelling, and values that are not numbers at all.
_ODD_TOKENS = ["1", "0", "-0", "-0.0", "0.0", "1E5", "5e-324", "1e400", "NaN", "Infinity",
               "-Infinity", '"0.25"', "true", "null", "[0.25]", "[]", "{}", "00.5", ".5",
               "0.25 0.75", "0.5,0.5", "]", "[", "", "\x000.25", "0.2\u00e95"]


@st.composite
def perturbed_documents(draw):
    """A table's file as the writer writes it, then changed in one of the
    ways a hand-edited or foreign file differs from it."""
    p = draw(st.one_of(table_slices(), st.builds(
        qm_chained_distribution,
        st.integers(2, 12), st.sampled_from([1.0, 0.93, 0.5]))))
    head, tokens = written_parts(p)
    i = draw(st.integers(0, len(tokens) - 1))
    kind = draw(st.sampled_from([
        "none", "token_space", "separator_space", "head_space", "odd_token", "dup_table_end",
        "dup_table_head", "marker_in_head", "marker_as_key", "truncate", "no_newline",
        "crlf", "nul_first", "drop_entry", "extra_entry",
    ]))
    sep, tail = ", ", "]}\n"
    if kind == "token_space":
        tokens[i] = draw(st.sampled_from([" ", "\n", "\t", "\r"])) + tokens[i] \
            + draw(st.sampled_from(["", " ", "\n"]))
    elif kind == "separator_space":
        sep = draw(st.sampled_from([",", ",  ", " , ", ",\n"]))
    elif kind == "head_space":
        head = head.replace(": ", ":", 1)
    elif kind == "odd_token":
        tokens[i] = draw(st.sampled_from(_ODD_TOKENS))
    elif kind == "dup_table_end":
        tail = ']' + ', "table": [' + ", ".join(tokens) + tail
    elif kind == "dup_table_head":
        head += ', "table": [0.5]'
    elif kind == "marker_in_head":
        head += ', "note": ", \\"table\\": ["'
    elif kind == "marker_as_key":
        head = '{", \\"table\\": [": 1, ' + head[1:]
    elif kind == "drop_entry" and len(tokens) > 1:
        del tokens[i]
    elif kind == "extra_entry":
        tokens.insert(i, tokens[i])
    text = layout_text(head, tokens, sep, tail)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "no_newline":
        text = text[:-1]
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "nul_first":
        text = "\x00" + text
    return text


class TestWrittenLayoutReader:
    """``read_json_file`` reads the writer's own layout by parsing each
    distinct token once, and everything else through ``json.loads``: both
    give the plain reader's bits, or its error, and ``check`` prints the
    same bytes with either reader."""

    @settings(max_examples=400, deadline=None)
    @given(perturbed_documents())
    def test_same_bits_or_same_error_as_json_loads(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("reader") / "dist.json"
        path.write_bytes(text.encode())
        assert read_outcome(read_json_file, path) == read_outcome(plain_read_json_file, path)
        (ours, plain) = check_outcome(path)
        assert ours == plain

    @pytest.mark.parametrize("head, sep", [
        (None, ", "), (None, ",  "), (None, ", \n"),
        ('{"parties":2,"outputs":[2,2],"inputs":[8,8]', ", "),
        ('{"inputs": [8, 8], "outputs": [2, 2], "parties": 2', ", "),
        ('{"table": [1.0], "note": "x", "parties": 2, "outputs": [2, 2], "inputs": [8, 8]', ", "),
    ])
    def test_writer_layout_takes_the_fast_route(self, tmp_path, head, sep):
        # The writer's layout, with other spacing or other fields before
        # the table (a table key there is overwritten, as json.loads does).
        p = qm_chained_distribution(8, 0.93)
        written, tokens = written_parts(p)
        path = tmp_path / "t.json"
        path.write_text(layout_text(head or written, tokens, sep))
        doc = distributions._written_layout(path.read_bytes())
        assert doc["table"].tobytes() == p.table.tobytes()
        assert read_outcome(read_json_file, path) == read_outcome(plain_read_json_file, path)

    @pytest.mark.parametrize("where", [None, 20_000, -1])
    def test_table_of_many_chunks(self, tmp_path, where):
        # 40 000 entries, some 0.9 MB: a dozen chunks, each with a few new
        # values, and one odd entry in a late chunk.
        p = qm_chained_distribution(100, 0.93)
        head, tokens = written_parts(p)
        if where is not None:
            tokens[where] = "true"
        path = tmp_path / "t.json"
        path.write_text(layout_text(head, tokens))
        if where is None:
            doc = distributions._written_layout(path.read_bytes())
            assert doc["table"].tobytes() == p.table.tobytes()
        else:
            with pytest.raises(ValueError, match="one float per token"):
                distributions._written_layout(path.read_bytes())
        assert read_outcome(read_json_file, path) == read_outcome(plain_read_json_file, path)

    def test_text_before_the_table_must_be_ascii(self):
        # Other text is decoded by the locale, as the json.loads route
        # reads it.
        text = '{"note": "\u00e9", "parties": 1, "outputs": [2], "inputs": [1], "table": [0.5, 0.5]}\n'
        assert distributions._written_layout(text.replace("\u00e9", "e").encode())
        with pytest.raises(ValueError, match="not the written layout"):
            distributions._written_layout(text.encode())

    @pytest.mark.parametrize("token", _ODD_TOKENS)
    @pytest.mark.parametrize("where", [0, 100, -1])
    def test_each_odd_entry_in_a_fast_route_table(self, tmp_path, token, where):
        p = qm_chained_distribution(8, 0.93)
        head, tokens = written_parts(p)
        tokens[where] = token
        path = tmp_path / "t.json"
        path.write_text(layout_text(head, tokens))
        assert read_outcome(read_json_file, path) == read_outcome(plain_read_json_file, path)
        (ours, plain) = check_outcome(path)
        assert ours == plain

    def test_all_distinct_table_goes_to_json_loads(self, tmp_path):
        # The worst case: 160 000 distinct entries.  The first chunk is
        # all new, so the route gives up before the rest is split.
        rng = np.random.default_rng(23)
        pa = rng.random((200, 2)) + 0.01
        pb = rng.random((200, 2)) + 0.01
        pa /= pa.sum(axis=1, keepdims=True)
        pb /= pb.sum(axis=1, keepdims=True)
        p = ConditionalDistribution(pa[:, None, :, None] * pb[None, :, None, :])
        assert len(np.unique(p.table)) == p.table.size
        path = tmp_path / "distinct.json"
        write_json_file(p, path)
        with pytest.raises(ValueError, match="mostly distinct"):
            distributions._written_layout(path.read_bytes())
        assert read_json_file(path) == p
        (ours, plain) = check_outcome(path)
        assert ours == plain and ours[0] == 0

    @pytest.mark.parametrize("n, delta", [(2, 0.0), (3, 0.2), (10, 0.45)])
    def test_lp_argmin_table(self, tmp_path, n, delta):
        path = tmp_path / "argmin.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lp", "--n", str(n), "--delta", repr(delta), "--out", str(path)]) == 0
        assert read_outcome(read_json_file, path) == read_outcome(plain_read_json_file, path)
        (ours, plain) = check_outcome(path, "--locality-bound")
        assert ours == plain
