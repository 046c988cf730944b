"""Born-rule tables against their closed forms."""

import math

import numpy as np
import pytest

from chainedbell import (
    assert_nonsignaling,
    evaluate_chain,
    qm_chained_distribution,
)
from chainedbell.quantum import _chained_angles, _outcome_states

# (|00> + |11>)/sqrt(2) as complex amplitudes indexed [alice_bit, bob_bit].
MAX_CORRELATED = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / math.sqrt(2.0)


def outcome_states(angle):
    """Rows: the states cos(t/2)|0> + sin(t/2)|1> and sin(t/2)|0> - cos(t/2)|1>
    the two outcomes of an x-z-plane measurement at angle t project onto."""
    h = 0.5 * angle
    return np.array([[math.cos(h), math.sin(h)], [math.sin(h), -math.cos(h)]])


def born_joint(ta, tb):
    """Oracle P(x, y) for one measurement pair on the maximally correlated
    state: contract both outcome states with the complex amplitudes and
    take squared moduli."""
    amps = np.einsum("xi,yj,ij->xy", outcome_states(ta), outcome_states(tb), MAX_CORRELATED)
    return np.abs(amps) ** 2


class TestChainedAngles:
    def test_chained_angles(self):
        alice, bob = _chained_angles(3)
        step = math.pi / 6
        assert alice == pytest.approx([0.0, 2 * step, 4 * step])
        assert bob == pytest.approx([step, 3 * step, 5 * step])

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="at least 2"):
            _chained_angles(1)

    def test_projector_completeness(self):
        rng = np.random.default_rng(0)
        for states in _outcome_states(rng.uniform(0, 2 * math.pi, size=50)):
            total = sum(np.outer(s, s) for s in states)
            assert np.abs(total - np.eye(2)).max() < 1e-12


class TestBornOracle:
    def test_equal_angles_never_differ(self):
        for angle in (0.0, 0.3, 2.0):
            p = born_joint(angle, angle)
            assert p[0, 1] + p[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_mismatch_closed_form_random_angles(self):
        # P[X != Y] = sin^2((ta - tb)/2) on the maximally correlated state.
        rng = np.random.default_rng(1)
        for _ in range(100):
            ta, tb = rng.uniform(0, 2 * math.pi, size=2)
            p = born_joint(ta, tb)
            expected = math.sin((ta - tb) / 2) ** 2
            assert p[0, 1] + p[1, 0] == pytest.approx(expected, abs=1e-12)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestChainedDistribution:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_adjacent_pair_mismatch_probability(self, n):
        p = qm_chained_distribution(n).table[0, 0]
        expected = math.sin(math.pi / (4 * n)) ** 2
        assert p[0, 1] + p[1, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_wrap_pair_match_probability(self, n):
        p = qm_chained_distribution(n).table[0, n - 1]
        expected = math.sin(math.pi / (4 * n)) ** 2
        assert p[0, 0] + p[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_matches_born_joint_entrywise(self):
        n = 5
        dist = qm_chained_distribution(n)
        alice, bob = _chained_angles(n)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.integers(0, n, size=2)
            direct = born_joint(alice[a], bob[b])
            assert np.abs(dist.table[a, b] - direct).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_bit_equal_to_the_complex_contraction(self, n):
        # The table the library built from complex amplitudes and |amp|^2,
        # contracted over all setting pairs at once.
        alice, bob = _chained_angles(n)
        av = np.stack([outcome_states(t) for t in alice])
        bv = np.stack([outcome_states(t) for t in bob])
        amps = np.einsum("axi,byj,ij->abxy", av, bv, MAX_CORRELATED)
        assert qm_chained_distribution(n).table.tobytes() == (np.abs(amps) ** 2).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_nonsignaling(self, n):
        rep = assert_nonsignaling(qm_chained_distribution(n), 1e-12)
        assert rep.passed
        assert rep.max_violation < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_local_marginals_uniform(self, n):
        dist = qm_chained_distribution(n)
        x_marg = dist.table.sum(axis=3)
        y_marg = dist.table.sum(axis=2)
        assert np.abs(x_marg - 0.5).max() < 1e-12
        assert np.abs(y_marg - 0.5).max() < 1e-12

    def test_chsh_instance(self):
        score = evaluate_chain(qm_chained_distribution(2))
        assert score.value == pytest.approx(2 - math.sqrt(2), abs=1e-9)

    def test_three_setting_instance(self):
        score = evaluate_chain(qm_chained_distribution(3))
        assert score.value == pytest.approx(6 * math.sin(math.pi / 12) ** 2, abs=1e-9)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            qm_chained_distribution(1)


class TestNoise:
    def test_full_visibility_is_the_ideal_table(self):
        assert qm_chained_distribution(2, 1.0) == qm_chained_distribution(2)

    def test_zero_visibility_is_uniform(self):
        p = qm_chained_distribution(2, 0.0)
        assert np.abs(p.table - 0.25).max() < 1e-15

    @pytest.mark.parametrize("v", [float("nan"), -0.1, 1.5])
    def test_visibility_off_the_unit_interval(self, v):
        with pytest.raises(ValueError, match=r"^visibility must lie in \[0, 1\]$"):
            qm_chained_distribution(2, v)

    def test_chain_length_is_checked_before_visibility(self):
        with pytest.raises(ValueError, match="chain parameter must be at least 2"):
            qm_chained_distribution(1, 2.0)

    def test_chain_value_is_affine_in_the_table(self):
        # Direct evaluation is the oracle for the mixing arithmetic: the
        # uniform table's chain value is N, so the mix lands at
        # v*value + (1-v)*N.
        n = 2
        ideal = evaluate_chain(qm_chained_distribution(n)).value
        uniform_value = evaluate_chain(qm_chained_distribution(n, 0.0)).value
        assert uniform_value == pytest.approx(float(n), abs=1e-12)
        for v in (0.9, 0.5, 0.25):
            mixed = evaluate_chain(qm_chained_distribution(n, v)).value
            expected = v * ideal + (1 - v) * uniform_value
            assert mixed == pytest.approx(expected, abs=1e-12)

    def test_preserves_nonsignaling(self):
        p = qm_chained_distribution(3, 0.7)
        assert assert_nonsignaling(p, 1e-12).passed
