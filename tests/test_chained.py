"""Chain score, classical bound, LP probe, and the noisy closed form."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chainedbell import (
    ConditionalDistribution,
    DeterministicStrategy,
    assert_nonsignaling,
    chain_pairs,
    classical_min_chain_value,
    evaluate_chain,
    lp_min_chain_given_bias,
    mix_with_noise,
    noisy_chain_closed_form,
    qm_chained_distribution,
    quantum_chain_closed_form,
)
from chainedbell.chained import _certified_value, _chain_pair_lp, _strategy_scores
from chainedbell.distributions import IDENTITY_TOL


def full_table_lp(n, delta, branch_x):
    """Reference program over the whole table: all 4N^2 entries plus one
    surplus variable, with normalisation per setting pair, marginal
    independence across every pair, and the bias row."""

    def var(a, b, x, y):
        return ((a * n + b) * 2 + x) * 2 + y

    nv = 4 * n * n + 1
    c = np.zeros(nv)
    for i in range(n):
        for x in (0, 1):
            c[var(i, i, x, 1 - x)] += 1.0
    for i in range(n - 1):
        for x in (0, 1):
            c[var(i + 1, i, x, 1 - x)] += 1.0
    for x in (0, 1):
        c[var(0, n - 1, x, x)] += 1.0
    rows, rhs = [], []
    for a in range(n):
        for b in range(n):
            r = np.zeros(nv)
            for x in (0, 1):
                for y in (0, 1):
                    r[var(a, b, x, y)] = 1.0
            rows.append(r)
            rhs.append(1.0)
    for a in range(n):
        for b in range(1, n):
            r = np.zeros(nv)
            for y in (0, 1):
                r[var(a, b, 0, y)] += 1.0
                r[var(a, 0, 0, y)] -= 1.0
            rows.append(r)
            rhs.append(0.0)
    for b in range(n):
        for a in range(1, n):
            r = np.zeros(nv)
            for x in (0, 1):
                r[var(a, b, x, 0)] += 1.0
                r[var(0, b, x, 0)] -= 1.0
            rows.append(r)
            rhs.append(0.0)
    r = np.zeros(nv)
    for y in (0, 1):
        r[var(0, 0, branch_x, y)] = 1.0
    r[-1] = -1.0
    rows.append(r)
    rhs.append(0.5 + delta)
    return c, np.array(rows), np.array(rhs)


def scipy_min(program):
    c, A, b = program
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


def brute_force_oracle(n):
    """Direct enumeration of all strategy pairs, no vectorization."""
    best = None
    for f in itertools.product((0, 1), repeat=n):
        for g in itertools.product((0, 1), repeat=n):
            total = sum(f[i] != g[i] for i in range(n))
            total += sum(f[i + 1] != g[i] for i in range(n - 1))
            total += f[0] == g[n - 1]
            if best is None or total < best[0]:
                best = (total, f, g)
    return best


def broadcast_scores(n):
    """Reference scores of all strategy pairs: an int8 broadcast of the
    ``itertools.product`` bits with one ``sum`` per kind of chain term."""
    bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int8)
    f = bits[:, None, :]  # Alice assignments
    g = bits[None, :, :]  # Bob assignments
    adj_same = (f != g).sum(axis=2)
    adj_next = (f[:, :, 1:] != g[:, :, :-1]).sum(axis=2)
    wrap = (f[:, :, 0] == g[:, :, n - 1]).astype(np.int64)
    return bits, adj_same + adj_next + wrap


class TestEvaluateChain:
    def test_constant_strategy_scores_one(self):
        # All outputs zero: adjacent terms vanish, only the wrap term fires.
        for n in (2, 3, 5):
            strat = DeterministicStrategy((0,) * n, (0,) * n)
            assert evaluate_chain(strat.distribution(), n).value == 1.0

    def test_chsh_value(self):
        score = evaluate_chain(qm_chained_distribution(2), 2)
        assert score.value == pytest.approx(2 - math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_quantum_matches_closed_form(self, n):
        score = evaluate_chain(qm_chained_distribution(n), n)
        assert score.value == pytest.approx(quantum_chain_closed_form(n), abs=1e-9)

    def test_term_breakdown_structure(self):
        n = 4
        score = evaluate_chain(qm_chained_distribution(n), n)
        assert len(score.terms) == 2 * n
        adjacent = [(a, b) for a, b, _ in score.terms[:-1]]
        assert all(abs(a - b) == 1 for a, b in adjacent)
        wrap = score.terms[-1]
        assert (wrap[0], wrap[1]) == (0, 2 * n - 1)
        assert all(0.0 <= c <= 1.0 for _, _, c in score.terms)
        assert math.fsum(c for _, _, c in score.terms) == pytest.approx(score.value)

    def test_shape_mismatch_rejected(self):
        p = qm_chained_distribution(3)
        with pytest.raises(ValueError, match="settings"):
            evaluate_chain(p, 4)

    def test_affine_in_the_table(self):
        n = 3
        p = qm_chained_distribution(n)
        q = DeterministicStrategy((0,) * n, (1,) * n).distribution()
        for lam in (0.25, 0.5, 0.9):
            mixed = ConditionalDistribution(
                (n, n), (2, 2), lam * p.table + (1 - lam) * q.table
            )
            expected = lam * evaluate_chain(p, n).value + (1 - lam) * evaluate_chain(q, n).value
            assert evaluate_chain(mixed, n).value == pytest.approx(expected, abs=1e-12)

    def test_value_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.random((3, 3, 2, 2))
            t /= t.sum(axis=(2, 3), keepdims=True)
            p = ConditionalDistribution((3, 3), (2, 2), t)
            assert evaluate_chain(p, 3).value >= 0.0


class TestClosedForm:
    def test_chsh_closed_form(self):
        assert quantum_chain_closed_form(2) == pytest.approx(2 - math.sqrt(2), abs=1e-15)

    def test_large_n_asymptote(self):
        limit = math.pi**2 / 8
        for n in (100, 1000, 10000):
            assert n * quantum_chain_closed_form(n) == pytest.approx(limit, rel=1e-3)

    def test_domain_bound(self):
        with pytest.raises(ValueError):
            quantum_chain_closed_form(1)


class TestClassicalMinimum:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_enumeration_oracle(self, n):
        oracle_value, f, g = brute_force_oracle(n)
        result = classical_min_chain_value(n)
        assert result.min_value == float(oracle_value) == 1.0
        # Smallest-index tie break reproduces the oracle's first witness.
        assert result.witness.alice_map == f
        assert result.witness.bob_map == g

    @pytest.mark.parametrize("n", range(2, 11))
    def test_scores_match_broadcast_reference(self, n):
        _, reference = broadcast_scores(n)
        scores = _strategy_scores(n)
        assert scores.shape == (2**n, 2**n)
        assert np.array_equal(scores, reference)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_broadcast_argmin(self, n):
        bits, reference = broadcast_scores(n)
        s, t = divmod(int(np.argmin(reference)), reference.shape[1])
        result = classical_min_chain_value(n)
        assert result.min_value == float(reference[s, t])
        assert result.witness.alice_map == tuple(int(x) for x in bits[s])
        assert result.witness.bob_map == tuple(int(x) for x in bits[t])

    def test_witness_achieves_the_minimum(self):
        result = classical_min_chain_value(5)
        value = evaluate_chain(result.witness.distribution(), 5).value
        assert value == result.min_value == 1.0

    def test_range_enforced(self):
        for n in (1, 11):
            with pytest.raises(ValueError):
                classical_min_chain_value(n)

    def test_random_local_mixtures_respect_the_bound(self):
        # The minimum over shared-randomness mixtures equals the
        # deterministic minimum; random mixtures can only do worse.
        rng = np.random.default_rng(1)
        n = 3
        strategies = [
            DeterministicStrategy(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
            for _ in range(6)
        ]
        weights = rng.random(len(strategies))
        weights /= weights.sum()
        table = sum(w * s.distribution().table for w, s in zip(weights, strategies))
        p = ConditionalDistribution((n, n), (2, 2), table)
        assert evaluate_chain(p, n).value >= 1.0 - 1e-12


class TestBiasedLP:
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.4, 0.5])
    def test_lower_bound_holds(self, delta):
        result = lp_min_chain_given_bias(2, delta)
        assert result.min_value >= 2 * delta - 1e-9
        assert abs(result.branch_values[0] - result.branch_values[1]) <= 1e-9

    def test_unbiased_optimum_is_zero(self):
        result = lp_min_chain_given_bias(2, 0.0)
        assert result.min_value == pytest.approx(0.0, abs=1e-9)
        argmin = result.argmin
        assert assert_nonsignaling(argmin, 1e-7).passed
        assert evaluate_chain(argmin, 2).value == pytest.approx(0.0, abs=1e-7)

    def test_full_bias_costs_at_least_one(self):
        result = lp_min_chain_given_bias(2, 0.5)
        assert result.min_value >= 1.0 - 1e-9

    def test_argmin_is_feasible(self):
        result = lp_min_chain_given_bias(2, 0.3)
        argmin = result.argmin
        assert assert_nonsignaling(argmin, 1e-7).passed
        bias = argmin.table[0, 0, 0, :].sum() - 0.5
        assert bias >= 0.3 - 1e-7
        assert evaluate_chain(argmin, 2).value == pytest.approx(result.min_value, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scipy(self, n):
        # The full-table program, through an independent solver.
        for delta in (0.15, 0.35):
            result = lp_min_chain_given_bias(n, delta)
            for branch_x in (0, 1):
                ref = scipy_min(full_table_lp(n, delta, branch_x))
                assert result.branch_values[branch_x] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n, delta", [(5, 0.15), (10, 0.35), (25, 0.05), (50, 0.45)])
    def test_chain_pair_program_matches_scipy(self, n, delta):
        result = lp_min_chain_given_bias(n, delta)
        for branch_x in (0, 1):
            ref = scipy_min(_chain_pair_lp(n, delta, branch_x))
            assert result.branch_values[branch_x] == pytest.approx(ref, abs=1e-9)
        assert result.min_value == pytest.approx(2 * delta, abs=1e-9)

    @pytest.mark.parametrize("n, shape", [(2, (9, 17)), (4, (17, 33)), (100, (401, 801))])
    def test_program_size_is_linear_in_n(self, n, shape):
        c, A, b = _chain_pair_lp(n, 0.2, 0)
        assert A.shape == shape and c.shape == (shape[1],) and b.shape == (shape[0],)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_argmin_completes_off_chain_pairs(self, n):
        # Off-chain pairs hold the product of their marginals: the table is
        # non-signaling, meets the bias and scores the optimum.
        delta = 0.3
        result = lp_min_chain_given_bias(n, delta)
        argmin = result.argmin
        assert assert_nonsignaling(argmin, 1e-12).passed
        assert argmin.table[0, 0, 0, :].sum() - 0.5 >= delta - 1e-12
        assert evaluate_chain(argmin, n).value == pytest.approx(result.min_value, abs=1e-12)

    def test_tight_at_n_100(self):
        result = lp_min_chain_given_bias(100, 0.3)
        assert abs(result.gap) <= 1e-9
        assert abs(result.branch_values[0] - result.branch_values[1]) <= 1e-9

    def test_domain_checks(self):
        for n in (1, 101):
            with pytest.raises(ValueError):
                lp_min_chain_given_bias(n, 0.1)
        with pytest.raises(ValueError):
            lp_min_chain_given_bias(2, 0.6)


def check_closed_form_optimum(n, delta):
    """The optimum is 2*delta bit for bit, each branch's dual certificate
    proves it against the one LP builder, and the argmin is a feasible
    table that scores it."""
    result = lp_min_chain_given_bias(n, delta)
    assert result.min_value == 2.0 * delta
    assert result.branch_values == (2.0 * delta, 2.0 * delta)
    assert result.gap == 0.0
    for branch_x, y in enumerate(result.dual_certificate):
        c, A, b = _chain_pair_lp(n, delta, branch_x)
        y = np.array(y)
        assert y.dtype.kind == "i" and y.shape == b.shape
        assert np.all(A.T @ y <= c)
        assert abs(b @ y - 2.0 * delta) <= IDENTITY_TOL
    # Branch 0's chain-pair joints, read back from the table, pass the check.
    table = result.argmin.table
    x = np.array([table[a, b] for a, b, _ in chain_pairs(n)]).ravel()
    c, A, b = _chain_pair_lp(n, delta, 0)
    y = np.array(result.dual_certificate[0])
    assert _certified_value(c, A, b, np.append(x, 0.0), y) == 2.0 * delta
    argmin = result.argmin
    assert assert_nonsignaling(argmin, 1e-12).passed
    assert table[0, 0, 0, :].sum() - 0.5 >= delta - 1e-12
    assert evaluate_chain(argmin, n).value == pytest.approx(result.min_value, abs=1e-12)


class TestClosedFormOptimum:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 100), st.floats(0.0, 0.5))
    def test_certified_at_any_size_and_bias(self, n, delta):
        check_closed_form_optimum(n, delta)

    @pytest.mark.parametrize("n", [2, 3, 50, 100])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_bias_at_the_ends(self, n, delta):
        check_closed_form_optimum(n, delta)


class TestNoiseScan:
    def test_closed_form_matches_direct_evaluation(self):
        for v in (1.0, 0.9, 0.4):
            for n in (2, 5):
                direct = evaluate_chain(mix_with_noise(qm_chained_distribution(n), v), n).value
                assert noisy_chain_closed_form(n, v) == pytest.approx(direct, abs=1e-9)
