"""Distribution table invariants and the distance toolbox."""

import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainedbell import distributions
from chainedbell import (
    ConditionalDistribution,
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
    return ConditionalDistribution(input_sizes, output_sizes, t)


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ConditionalDistribution((2,), (2,), np.ones((2, 3)) / 3)

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
        p = ConditionalDistribution((3, 4), (2, 3), table)
        rep = assert_nonsignaling(p)
        assert rep.passed
        assert rep.max_violation < 1e-12

    def test_copy_input_table_fails_maximally(self):
        # Alice's output copies Bob's input.
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                table[a, b, b, 0] = 1.0
        p = ConditionalDistribution((2, 2), (2, 2), table)
        rep = assert_nonsignaling(p)
        assert not rep.passed
        assert rep.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_party_cap(self):
        p = uniform_distribution((2,) * 5)
        with pytest.raises(ValueError, match="at most"):
            assert_nonsignaling(p)


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
        p3 = ConditionalDistribution((n, n, 1), (2, 2, 1), table)
        rep, peak, elapsed = self._peak_bytes(
            lambda: locality_bound_check(p3)
        )
        assert rep.applicable and rep.passed
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
    return ConditionalDistribution(inputs, outputs, np.array(slices).reshape(inputs + outputs))


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
        p = ConditionalDistribution((6,), (4,), table)
        calls = []
        monkeypatch.setattr(distributions, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        write_json_file(p, tmp_path / "t.json")
        assert len(calls) == 6
        assert (tmp_path / "t.json").read_text() == json.dumps(p.to_dict()) + "\n"
