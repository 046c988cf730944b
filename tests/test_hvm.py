"""Hidden-variable models, locality measurement, and the locality bound."""

import itertools
import json
import math
import re
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chainedbell import (
    ConditionalDistribution,
    HiddenVariableModel,
    assert_nonsignaling,
    chain_table,
    evaluate_chain,
    inplane_grid,
    leggett_model,
    local_deterministic_model,
    locality_bound_check,
    locality_measure,
    model_from_dict,
    model_from_json_file,
    noisy_chain_closed_form,
    nonlocal_qm_model,
    qm_chained_distribution,
    sampled_xu_table,
    xu_table,
)
from chainedbell import hvm
from chainedbell.distributions import IDENTITY_TOL
from chainedbell.hvm import NORM_TOL, _malus_responses
from chainedbell.quantum import _chained_angles
from lemmas import (
    falsify_leggett,
    hidden_joint_form,
    induced_distribution,
    leggett_xu_table,
    per_setting_locality_bound,
    reference_locality_distances,
    xu_conditional,
)

# The two unit vectors orthogonal to the measurement (x-z) plane.
ORTHOGONAL = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
# The classical chain value, whose cap (1/2) every local model meets;
# tests that read only distances measure against it.
CLASSICAL = 1.0


def bloch(angle):
    """Outcome-0 Bloch direction of the x-z-plane measurement at ``angle``."""
    return np.array([math.sin(angle), 0.0, math.cos(angle)])


def _malus_p0(angles, vectors):
    """P(outcome 0) of the library's Malus responses, (len(angles), len(vectors))."""
    return _malus_responses(angles, np.asarray(vectors, dtype=float))[..., 0]


def leggett_marginal(angle, u_vec):
    """Scalar oracle for the squared-overlap rule: (P(0), P(1)) with
    P(0) = (1 + a.u)/2, ``a`` the measurement's Bloch direction."""
    p0 = 0.5 * (1.0 + float(bloch(angle) @ np.asarray(u_vec, dtype=float)))
    p0 = min(max(p0, 0.0), 1.0)
    return [p0, 1.0 - p0]


class TestLeggettMarginal:
    def test_aligned_vector_is_deterministic(self):
        p0 = _malus_p0([0.7], bloch(0.7)[None, :])
        assert p0[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vector_is_uniform(self):
        assert _malus_p0([1.3], ORTHOGONAL).tolist() == [[0.5, 0.5]]

    def test_antipodal_vector_flips(self):
        p0 = _malus_p0([0.7], -bloch(0.7)[None, :])
        assert p0[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(20, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        p_plus, p_minus = _malus_p0([2.2], u), _malus_p0([2.2], -u)
        assert p_plus + p_minus == pytest.approx(np.ones((1, 20)), abs=1e-12)

    def test_matches_the_scalar_oracle(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(0, 2 * math.pi, size=5)
        u = rng.normal(size=(7, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        p0 = _malus_p0(angles, u)
        for i, t in enumerate(angles):
            for k in range(7):
                assert p0[i, k] == pytest.approx(leggett_marginal(t, u[k])[0], abs=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            leggett_model(2, [[1.0, 1.0, 0.0]])


class TestModelConstruction:
    def test_local_deterministic_by_construction(self):
        m = local_deterministic_model(2, [[0, 1], [1, 1]], [[0, 0]])
        assert m.n_u == 2 and m.n_v == 1
        p4 = induced_distribution(m)
        assert assert_nonsignaling(p4, 1e-12).passed

    def test_signaling_table_rejected(self):
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                table[a, b, b, 0] = 1.0  # Alice's outcome copies Bob's setting
        dist = ConditionalDistribution(table)
        with pytest.raises(ValueError, match="leak"):
            HiddenVariableModel(table=dist)

    def test_nonsignaling_table_accepted(self):
        # The model holds the distribution it was built from, unwrapped.
        dist = qm_chained_distribution(3)
        m = HiddenVariableModel(table=dist)
        assert m.n_settings == 3 and m.table is dist

    def test_leggett_bob_is_built_with_the_model(self):
        # A plain read-only array from the start, by the Malus rule at
        # Bob's angles, not a function run on first read.
        m = leggett_model(3, inplane_grid(5), inplane_grid(4))
        assert type(m.bob) is np.ndarray and not m.bob.flags.writeable
        expected = _malus_responses(_chained_angles(3)[1], inplane_grid(4))
        assert m.bob.tobytes() == expected.tobytes()
        with pytest.raises(AttributeError, match="immutable"):
            m.bob = expected

    def test_non_finite_responses_and_weights_rejected(self):
        # NaN compares false against every bound, so it needs its own check.
        table = np.full((2, 2, 2, 2), 0.25)
        bad = table.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HiddenVariableModel(table=ConditionalDistribution(bad))
        responses = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValueError, match="finite"):
            HiddenVariableModel(alice=bad[0], bob=responses)
        with pytest.raises(ValueError, match="finite"):
            HiddenVariableModel(table=ConditionalDistribution(table),
                                p_u=[np.nan])
        with pytest.raises(ValueError, match="finite"):
            local_deterministic_model(2, [[0, 1], [1, 1]], [[0, 0]], [[np.nan], [1.0]])

    def test_non_finite_vectors_and_weights_rejected(self):
        with pytest.raises(ValueError, match="u_vectors must be finite"):
            leggett_model(2, [[np.nan, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="vectors must be finite"):
            model_from_dict({"type": "leggett", "n": 2, "vectors": [[0, 0, np.inf], [0, 0, 1]]})
        with pytest.raises(ValueError, match="weights must be finite"):
            model_from_dict({"type": "leggett", "n": 2, "vectors": [[1, 0, 0], [0, 0, 1]],
                             "weights": [np.nan, 1.0]})
        with pytest.raises(ValueError, match="uv_weights must be finite"):
            HiddenVariableModel(alice=np.full((2, 2, 2), 0.5), bob=np.full((2, 1, 2), 0.5),
                                p_uv=[[np.nan], [1.0]])

    @pytest.mark.parametrize("visibility", [float("nan"), 1.5])
    def test_visibility_off_the_unit_interval_rejected(self, visibility):
        with pytest.raises(ValueError, match="visibility"):
            nonlocal_qm_model(2, visibility)

    def test_one_response_form(self):
        responses = np.full((2, 1, 2), 0.5)
        table = ConditionalDistribution(np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError, match="alice and bob, or one table"):
            HiddenVariableModel(alice=responses)
        with pytest.raises(ValueError, match="alice and bob, or one table"):
            HiddenVariableModel(alice=responses, bob=responses, table=table)
        for weights in ({"p_u": [1.0]}, {"p_v": [1.0]}):
            with pytest.raises(ValueError, match="joint weights p_uv go with per-side"):
                HiddenVariableModel(alice=responses, bob=responses, p_uv=[[1.0]], **weights)
        with pytest.raises(ValueError, match="joint weights p_uv go with per-side"):
            HiddenVariableModel(table=table, p_uv=[[1.0]])
        with pytest.raises(ValueError, match=re.escape("(N, k, 2)")):
            HiddenVariableModel(alice=responses, bob=np.full((3, 1, 2), 0.5))

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_a_table_with_one_stray_response_is_rejected(self, side):
        # A table model keeps None for both responses; a stray one is an
        # error, not an attribute kept unchecked.
        table = qm_chained_distribution(2)
        with pytest.raises(ValueError, match="alice and bob, or one table"):
            HiddenVariableModel(table=table, **{side: [[1, 2, 3]]})


def random_vector_grid(rng, k):
    vecs = rng.normal(size=(k, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def product_fixtures():
    """Models of every kind: Leggett grids with uniform, per-side and joint
    weights, strategy mixtures, noisy tables with weighted dummies."""
    rng = np.random.default_rng(5)
    return {
        "leggett_360": leggett_model(2, inplane_grid(360)),
        "leggett_12_n5": leggett_model(5, inplane_grid(12)),
        "leggett_random": leggett_model(3, random_vector_grid(rng, 7), random_vector_grid(rng, 5)),
        "leggett_weights": leggett_model(3, random_vector_grid(rng, 4),
                                         u_weights=[0.1, 0.0, 0.3, 0.6], v_weights=[0.25] * 4),
        "leggett_uv": leggett_model(3, random_vector_grid(rng, 2),
                                    uv_weights=[[0.3, 0.2], [0.1, 0.4]]),
        "deterministic": local_deterministic_model(3, [[0, 1, 1], [1, 0, 0]], [[0, 0, 1]]),
        "deterministic_weights": local_deterministic_model(
            3, [[0, 1, 1], [1, 0, 0]], [[0, 0, 1], [1, 1, 0]],
            u_weights=[0.25, 0.75], v_weights=[0.5, 0.5]),
        "deterministic_uv": local_deterministic_model(
            2, [[0, 1], [1, 1], [0, 0]], [[1, 0]], uv_weights=[[0.2], [0.3], [0.5]]),
        "nonlocal": nonlocal_qm_model(4, 0.8, n_u=2, n_v=3),
        "nonlocal_weighted": HiddenVariableModel(
            table=nonlocal_qm_model(3, 0.9).table, p_u=[0.3, 0.7], p_v=[0.1, 0.5, 0.4]),
        "custom": HiddenVariableModel(table=qm_chained_distribution(3)),
    }


LEGGETT_GRIDS = [(2, inplane_grid(360), None), (50, inplane_grid(3600), None),
                 (7, np.concatenate([inplane_grid(97), [[0.0, 1.0, 0.0]]]), None),
                 (4, inplane_grid(5), [0.1, 0.2, 0.3, 0.0, 0.4]),
                 (3, [[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]], [0.5, 0.5])]


class TestPerSideTable:
    @pytest.mark.parametrize("n, vectors, weights", LEGGETT_GRIDS,
                             ids=["grid_360", "grid_3600_n50", "grid_97_tilted",
                                  "weighted", "two_vectors"])
    def test_leggett_table_is_the_malus_rule_bit_for_bit(self, n, vectors, weights):
        # The table the direct Leggett test measured, w * p0 and w * (1 - p0).
        model = leggett_model(n, vectors, u_weights=weights)
        got = xu_table(model)
        assert got.table.tobytes() == leggett_xu_table(n, vectors, weights).table.tobytes()
        lm = falsify_leggett(n, vectors, weights)
        assert locality_measure(got, CLASSICAL).per_setting == lm.per_setting

    @pytest.mark.parametrize("name", list(product_fixtures()))
    def test_matches_the_kernel_route(self, name):
        # The dense route summed P(x, y, u, v | a, b) over (y, v); the per-
        # side table is within 1e-15 of it, and equal at every b.
        model = product_fixtures()[name]
        got = xu_table(model).table
        p4 = induced_distribution(model)
        assert np.abs(got - xu_conditional(p4).table).max() <= 1e-15
        assert np.abs(got - xu_conditional(p4, average_b=True).table).max() <= 1e-15

    @pytest.mark.parametrize("name", list(product_fixtures()))
    def test_chain_table_matches_the_kernel_route(self, name):
        model = product_fixtures()[name]
        n = model.n_settings
        xy = induced_distribution(model).table.sum(axis=(6, 7))[:, :, 0, 0]
        got = chain_table(model)
        assert got.input_sizes == (n, n) and got.output_sizes == (2, 2)
        assert np.abs(got.table - xy).max() <= 1e-15
        if model.table is not None:
            assert got is model.table

    def test_nonlocal_model_ignores_hidden_variables(self):
        # Dummy local variables: the (x, u) joint factorizes exactly into
        # uniform times the hidden marginal.
        m = HiddenVariableModel(table=nonlocal_qm_model(2).table, p_u=[0.2, 0.3, 0.5])
        p_xu = xu_table(m)
        lm = locality_measure(p_xu, CLASSICAL)
        assert lm.max_distance < 1e-12

    @pytest.mark.parametrize("name", [*product_fixtures(), "nonlocal_dummies"])
    def test_hidden_marginal_is_p_u_at_every_setting(self, name):
        # The cap's hypothesis, held by construction: one p_u weighs every
        # setting of Alice's table, so no setting moves the hidden marginal.
        model = (HiddenVariableModel(table=nonlocal_qm_model(2).table, p_u=[0.2, 0.3, 0.5])
                 if name == "nonlocal_dummies" else product_fixtures()[name])
        t = xu_table(model).table[:, 0]
        assert np.abs(t[:, 0] + t[:, 1] - model.p_u).max() <= IDENTITY_TOL

    def test_leggett_marginals_match_closed_form(self):
        # Per-(setting, vector) oracle: the conditional marginal of the
        # per-side table must equal the squared-overlap rule.
        n = 3
        vectors = inplane_grid(8)
        x_given_au = xu_table(leggett_model(n, vectors)).table[:, 0]  # (a, x, u)
        alice, _ = _chained_angles(n)
        for a in range(n):
            for u in range(8):
                cond = x_given_au[a, :, u] / x_given_au[a, :, u].sum()
                assert cond == pytest.approx(leggett_marginal(alice[a], vectors[u]), abs=1e-12)

    def test_builds_no_array_of_n_squared_hidden_pairs(self):
        # N = 100 on a grid of 360: the dense kernel would be 41 GB.
        model = leggett_model(100, inplane_grid(360))
        p_xu = xu_table(model)
        assert p_xu.table.shape == (100, 1, 2, 360)
        lm = locality_measure(p_xu, CLASSICAL)
        assert lm.max_distance == pytest.approx(1 / math.pi, abs=1e-4)
        assert evaluate_chain(chain_table(model)).value == pytest.approx(100.0, abs=1e-9)


class TestSampledXuTable:
    def test_seeded(self):
        p_xu = xu_table(leggett_model(2, inplane_grid(4)))
        first = sampled_xu_table(p_xu, 500, 3)
        assert first == sampled_xu_table(p_xu, 500, 3)
        assert first != sampled_xu_table(p_xu, 500, 4)

    def test_counts_are_whole_and_total_the_samples(self):
        p_xu = xu_table(product_fixtures()["leggett_weights"])
        counts = sampled_xu_table(p_xu, 7919, 1).table * 7919
        assert np.array_equal(counts, np.round(counts))
        assert (counts.sum(axis=(1, 2, 3)) == 7919).all()
        # A cell of weight 0 is never drawn.
        assert (counts[:, 0, :, 1] == 0).all()

    @pytest.mark.parametrize("name", ["leggett_random", "leggett_weights", "deterministic_uv",
                                      "nonlocal_weighted"])
    def test_counts_follow_the_table_in_distribution(self, name):
        # Pearson's chi-square of each setting's counts against
        # P(x, u | a), over 40 fixed seeds: every p-value above 1e-6, and
        # their mean near 1/2 (the p-values of a right model are uniform).
        from scipy.stats import chi2

        p_xu = xu_table(product_fixtures()[name])
        n = p_xu.input_sizes[0]
        p = p_xu.table.reshape(n, -1)
        live = p > 0
        samples = 5000
        pvalues = []
        for seed in range(40):
            counts = sampled_xu_table(p_xu, samples, seed).table.reshape(n, -1) * samples
            for a in range(n):
                expected = samples * p[a, live[a]]
                stat = float((((counts[a, live[a]] - expected) ** 2) / expected).sum())
                pvalues.append(chi2.sf(stat, live[a].sum() - 1))
        assert min(pvalues) > 1e-6
        assert abs(np.mean(pvalues) - 0.5) < 5 * math.sqrt(1 / 12 / len(pvalues))

    def test_pooled_pair_counts_have_the_same_mean_and_spread(self):
        # Drawing shots per setting pair and summing over Bob's settings
        # gives a multinomial with the pooled count and the same cells.
        p_xu = xu_table(leggett_model(3, inplane_grid(6)))
        n, shots = 3, 2000
        p = p_xu.table.reshape(n, -1)
        rng = np.random.default_rng(17)
        pooled = np.array([sum(rng.multinomial(shots, p[a]) for _ in range(n))
                           for _ in range(400) for a in range(n)]).reshape(400, n, -1)
        direct = np.array([sampled_xu_table(p_xu, shots * n, s).table.reshape(n, -1)
                           for s in range(400)]) * shots * n
        sigma = np.sqrt(shots * n * p * (1 - p))
        for draws in (pooled, direct):
            assert np.abs(draws.mean(axis=0) - shots * n * p).max() < 5 * sigma.max() / 20
            assert draws.std(axis=0) == pytest.approx(sigma, rel=0.25, abs=1e-3)

    def test_converges_to_exact(self):
        p_xu = xu_table(leggett_model(2, inplane_grid(4)))
        samples = 80000
        sampled = sampled_xu_table(p_xu, samples, 11)
        envelope = 3 * math.sqrt(math.log(2 / 1e-3) / (2 * samples))
        assert np.abs(p_xu.table - sampled.table).max() < envelope


class TestLocalityMeasure:
    def test_uniform_outcomes_have_zero_locality(self):
        table = np.full((3, 1, 2, 4), 1.0 / 8)
        p = ConditionalDistribution(table)
        lm = locality_measure(p, CLASSICAL)
        assert lm.max_distance == 0.0

    def test_outcome_copies_hidden_bit(self):
        # X = U with U a fair bit: every conditional is a point mass, so
        # each setting's distance is 1/2.
        table = np.zeros((2, 1, 2, 2))
        for u in (0, 1):
            table[:, 0, u, u] = 0.5
        p = ConditionalDistribution(table)
        lm = locality_measure(p, CLASSICAL)
        assert lm.per_setting == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_leggett_uniform_inplane_quadrature(self):
        # Independent oracle: numerical quadrature of the circle average
        # of |cos(t - phi)| / 2, which equals 1/pi for every t.
        n = 2
        report = locality_measure(xu_table(leggett_model(n, inplane_grid(360))), CLASSICAL)
        alice, _ = _chained_angles(n)
        for a, measured in enumerate(report.per_setting):
            theta = alice[a]
            oracle, err = quad(
                lambda phi: abs(math.cos(theta - phi)) / 2 / (2 * math.pi),
                0.0,
                2 * math.pi,
            )
            assert err < 1e-9
            assert measured == pytest.approx(oracle, abs=1e-4)
        assert 1 / math.pi == pytest.approx(report.max_distance, abs=1e-4)

    @staticmethod
    def _loop_per_setting(p_xu):
        """Reference for the one-pass locality_measure: a loop over settings
        and hidden values that skips hidden values of weight 0 and adds the
        rest with fsum."""
        t = p_xu.table
        ox, nu = p_xu.output_sizes
        pu = t.sum(axis=2)[:, 0, :]
        out = []
        for a in range(p_xu.input_sizes[0]):
            joint, w = t[a, 0], pu[a]
            terms = []
            for u in range(nu):
                if w[u] <= 0.0:
                    continue
                cond = joint[:, u] / w[u]
                terms.append(w[u] * 0.5 * float(np.abs(cond - 1.0 / ox).sum()))
            out.append(math.fsum(terms))
        return tuple(out)

    @pytest.mark.parametrize("n, grid", [(2, 360), (7, 97), (50, 3600)])
    def test_matches_the_loop_on_leggett_grids(self, n, grid):
        vectors = np.concatenate([inplane_grid(grid), ORTHOGONAL])
        weights = np.random.default_rng(n).random(len(vectors))
        weights[::5] = 0.0  # zero-weight hidden values are skipped
        weights /= weights.sum()
        directions = np.array([bloch(t) for t in _chained_angles(n)[0]])
        p0 = np.clip(0.5 * (1.0 + directions @ vectors.T), 0.0, 1.0)  # (N, k)
        table = np.stack([weights * p0, weights * (1.0 - p0)], axis=1)
        p_xu = ConditionalDistribution(table[:, None])
        lm = locality_measure(p_xu, CLASSICAL)
        assert lm.per_setting == self._loop_per_setting(p_xu)

    def test_matches_the_loop_on_a_model_table(self):
        m = leggett_model(3, inplane_grid(12), u_weights=np.arange(12) / 66.0)
        p_xu = xu_table(m)
        assert locality_measure(p_xu, CLASSICAL).per_setting == self._loop_per_setting(p_xu)

    def test_each_setting_is_measured_against_its_own_hidden_marginal(self):
        # u pinned to 0 under setting 0 and to 1 under setting 1, the
        # outcome uniform under both: each setting's (x, u) joint is
        # uniform outcome times its own hidden marginal, distance 0.
        table = np.zeros((2, 1, 2, 2))
        table[0, 0, :, 0] = 0.5
        table[1, 0, :, 1] = 0.5
        p = ConditionalDistribution(table)
        assert locality_measure(p, CLASSICAL).per_setting == (0.0, 0.0)

    def test_non_binary_outcomes_rejected(self):
        p = ConditionalDistribution(np.full((2, 1, 3, 2), 1.0 / 6))
        with pytest.raises(ValueError, match="binary outcome"):
            locality_measure(p, CLASSICAL)

    @pytest.mark.parametrize("shifted", [0, 2, 4])
    def test_cross_check_runs_on_every_setting(self, monkeypatch, shifted):
        n = 5
        p_xu = xu_table(leggett_model(n, inplane_grid(12)))
        fsum, calls = math.fsum, []

        def shifting_fsum(values):
            calls.append(None)
            return fsum(values) + (1e-6 if len(calls) - 1 == shifted else 0.0)

        monkeypatch.setattr(hvm.math, "fsum", shifting_fsum)
        with pytest.raises(AssertionError, match="average-form distance .* disagrees"):
            locality_measure(p_xu, CLASSICAL)
        assert len(calls) == n


# The in-plane Leggett grids (N, grid) of the benchmark's exact falsify
# jobs: kernels of 36 000 to 180 000 entries, every one above the size from
# which rows are summed in long double.
LEGGETT_SHAPES = [(50, 3600), (50, 720), (30, 1200), (20, 1800), (15, 2400), (12, 3000),
                  (10, 3600)]
# Row widths around powers of two, where the halving tree changes depth.
ROW_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024,
              1025, 4095, 4096, 4097]


def hexes(values):
    return [float(v).hex() for v in values]


def fsum_rows(rows):
    return hexes(math.fsum(row) for row in rows)


def tie_row(rng, k, nudge):
    """1.0 and k - 1 exact multiples of 2^-73 that sum to 2^-53, so the row
    sums to the midpoint 1 + 2^-53 between 1 and its upper neighbour, or to
    one ulp of 2^-53 above (nudge 1) or below (nudge -1) it."""
    counts = rng.multinomial(2 ** 20, np.full(k - 1, 1.0 / (k - 1)))
    pieces = counts * 2.0 ** -73
    big = int(np.argmax(counts))
    pieces[big] += {0: 0.0, 1: 2.0 ** -105, -1: -(2.0 ** -106)}[nudge]
    return np.concatenate([[1.0], pieces])


@st.composite
def sum_rows(draw):
    """(rows, k) float64 arrays: non-negative rows with magnitudes from
    1e-300 to 1, exact zeros and subnormals, and now and then a NaN, an
    infinity or a negative entry (-0.0 among them)."""
    k = draw(st.sampled_from(ROW_WIDTHS))
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.sampled_from([-997, -60, -1]))  # binary exponent floor
    arr = rng.random((rows, k)) * np.exp2(rng.integers(low, 1, (rows, k)))
    arr[rng.random((rows, k)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    small = rng.random((rows, k)) < draw(st.sampled_from([0.0, 0.05]))
    arr[small] = rng.integers(1, 2 ** 52, small.sum()) * 5e-324  # subnormals
    for row in range(rows):
        special = draw(st.sampled_from([None, None, np.nan, np.inf, -np.inf, -1e-3, -0.0]))
        if special is not None:
            arr[row, draw(st.integers(0, k - 1))] = special
    return arr


class TestRowSums:
    """``hvm._row_sums`` returns ``math.fsum`` of every row, bit for bit,
    whether the long-double certificate settles a row or it falls back."""

    @settings(max_examples=150, deadline=None)
    @given(arr=sum_rows())
    @example(arr=np.array([[-0.0]]))  # zero sums: their sign is fsum's
    @example(arr=np.array([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]]))
    @example(arr=np.array([[1e20, -1e20, 5.0, 0.25]]))  # the tree reads 8.0 here
    def test_bit_identical_to_fsum(self, arr):
        expected = fsum_rows(arr)
        with mock.patch.object(hvm, "_TREE_MIN_ENTRIES", 0):
            assert hexes(hvm._row_sums(arr)) == expected
            with mock.patch.object(hvm, "_LONG_DOUBLE_SUMS", False):
                assert hexes(hvm._row_sums(arr)) == expected
        assert hexes(hvm._row_sums(arr)) == expected  # at the real threshold

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([w for w in ROW_WIDTHS if w > 1]),
           nudge=st.sampled_from([0, 1, -1]), seed=st.integers(0, 2 ** 32 - 1))
    def test_ties_and_their_neighbours_reach_fsum(self, k, nudge, seed):
        rng = np.random.default_rng(seed)
        arr = np.stack([tie_row(rng, k, nudge) for _ in range(3)])
        assert math.fsum(arr[0]) == (1.0 if nudge < 1 else 1.0 + 2.0 ** -52)
        calls = []

        def counted(values):
            calls.append(None)
            return math.fsum(values)

        own_math = SimpleNamespace(**{**vars(math), "fsum": counted})
        with mock.patch.object(hvm, "math", own_math), \
                mock.patch.object(hvm, "_TREE_MIN_ENTRIES", 0):
            assert hexes(hvm._row_sums(arr)) == fsum_rows(arr)
        assert len(calls) == 3

    def test_the_margin_grows_with_the_tree_depth(self):
        # One row of 4096: 1.0 meets, in turn, q and then eleven terms just
        # under half a long-double ulp, each of which its add drops.  The
        # tree reads 5 long-double ulps below the midpoint 1 + 2^-53; the
        # exact sum is 2^-105 above it, so fsum rounds up.  A margin without
        # the depth term would certify the tree's 1.0.
        k, small = 4096, 2.0 ** -64 - 2.0 ** -74
        row = np.zeros(k)
        row[0] = 1.0
        row[k // 2] = 2.0 ** -53 - 11 * small + 2.0 ** -105  # exact in float64
        row[[k >> j for j in range(2, 13)]] = small
        assert math.fsum(row) == 1.0 + 2.0 ** -52
        calls = []

        def counted(values):
            calls.append(None)
            return math.fsum(values)

        own_math = SimpleNamespace(**{**vars(math), "fsum": counted})
        with mock.patch.object(hvm, "math", own_math), \
                mock.patch.object(hvm, "_TREE_MIN_ENTRIES", 0):
            assert hexes(hvm._row_sums(row[None])) == fsum_rows(row[None])
        assert len(calls) == 1

    def test_a_sum_past_the_largest_float_overflows_as_in_fsum(self):
        # The same row scaled to the largest float64: the tree reads just
        # below the midpoint to the next power of two, whose float64
        # neighbour is infinite; the exact sum lies above it, where fsum
        # raises OverflowError.
        k, small = 4096, 2.0 ** 959 - 2.0 ** 949
        row = np.zeros(k)
        row[0] = sys.float_info.max
        row[k // 2] = 2.0 ** 970 - 11 * small + 2.0 ** 918  # exact in float64
        row[[k >> j for j in range(2, 13)]] = small
        with mock.patch.object(hvm, "_TREE_MIN_ENTRIES", 0):
            for sums in (math.fsum, lambda r: hvm._row_sums(r[None])):
                with pytest.raises(OverflowError):
                    sums(row)

    def test_the_tree_settles_most_rows_of_a_leggett_kernel(self):
        p_xu = xu_table(leggett_model(12, inplane_grid(3000)))
        calls = []

        def counted(values):
            calls.append(None)
            return math.fsum(values)

        with mock.patch.object(hvm, "math", SimpleNamespace(**{**vars(math), "fsum": counted})):
            locality_measure(p_xu, CLASSICAL)
        assert len(calls) <= 2  # of 12 rows

    @pytest.mark.parametrize("n, grid", LEGGETT_SHAPES)
    def test_kernel_matches_the_one_pass_fsum_kernel(self, n, grid):
        t = xu_table(leggett_model(n, inplane_grid(grid))).table[:, 0]
        pu = t[:, 0] + t[:, 1]
        assert hexes(hvm._locality_distances(t, pu)) == hexes(
            reference_locality_distances(t, pu))

    def test_kernel_matches_with_zero_weights_across_blocks(self):
        # Hidden values of weight 0 take the masked divide, block after block.
        weights = np.random.default_rng(3).random(3000)
        weights[::7] = 0.0
        t = xu_table(leggett_model(12, inplane_grid(3000), u_weights=weights / weights.sum()))
        t = t.table[:, 0]
        expected = hexes(reference_locality_distances(t))
        assert hexes(hvm._locality_distances(t, t[:, 0] + t[:, 1])) == expected

    @pytest.mark.parametrize("shifted", [0, 6, 11])
    def test_cross_check_fails_on_any_row_above_the_threshold(self, shifted):
        # 12 rows of 3000 in blocks of 5, 5 and 2 rows: the first, a middle
        # and the last row's sum pushed 1e-6 off through the helper.
        p_xu = xu_table(leggett_model(12, inplane_grid(3000)))
        row_sums, seen = hvm._row_sums, []

        def shifting(terms):
            assert terms.size >= hvm._TREE_MIN_ENTRIES
            sums = row_sums(terms)
            rows = range(len(seen), len(seen) + len(sums))
            seen.extend(rows)
            return [v + (1e-6 if r == shifted else 0.0) for r, v in zip(rows, sums)]

        with mock.patch.object(hvm, "_row_sums", shifting), \
                pytest.raises(AssertionError, match="average-form distance .* disagrees"):
            locality_measure(p_xu, CLASSICAL)
        assert seen == list(range(12))
        locality_measure(p_xu, CLASSICAL)  # and passes unshifted


@st.composite
def local_three_party_tables(draw):
    """Non-signaling three-party tables P(x, y, z | a, b, c) of local
    models: a shared variable picks each party's response, some responses
    deterministic (exact zeros and ties).  The hidden output z takes up to
    70 values, so that per-setting sums run past NumPy's 8- and 128-term
    pairwise blocks."""
    n = draw(st.integers(2, 5))
    n_c = draw(st.integers(1, 3))
    oz = draw(st.sampled_from([1, 2, 3, 5, 9, 70]))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def responses(settings, outcomes):
        r = rng.random((settings, k, outcomes))
        if draw(st.booleans()):
            r = np.eye(outcomes)[rng.integers(0, outcomes, (settings, k))]
        return r / r.sum(axis=-1, keepdims=True)

    w = rng.random(k)
    table = np.einsum("l,alx,bly,clz->abcxyz", w / w.sum(), responses(n, 2),
                      responses(n, 2), responses(n_c, oz))
    return ConditionalDistribution(table)


@st.composite
def two_party_chain_tables(draw):
    """Non-signaling (N, N, 2, 2) tables: quantum ones with noise, products
    of random or of (p, 1 - p) rows, and mixtures of deterministic local
    strategies."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["quantum", "product", "rows", "deterministic"]))
    if form == "quantum":
        return qm_chained_distribution(n, draw(st.sampled_from([1.0, 0.9, 0.3])))
    if form == "deterministic":
        k = draw(st.integers(1, 4))
        return chain_table(local_deterministic_model(
            n, rng.integers(0, 2, (k, n)), rng.integers(0, 2, (k, n))))
    if form == "rows":
        pa, pb = rng.random(n), rng.random(n)
        ma, mb = np.stack([pa, 1 - pa], axis=1), np.stack([pb, 1 - pb], axis=1)
    else:
        ma, mb = rng.random((n, 2)), rng.random((n, 2))
        ma /= ma.sum(axis=1, keepdims=True)
        mb /= mb.sum(axis=1, keepdims=True)
    return ConditionalDistribution(ma[:, None, :, None] * mb[None, :, None, :])


def side_measurements(p3):
    """``locality_measure`` of each side of a three-party table: Alice's
    (x, (c, z)) rows at Bob's first setting, then Bob's (y, (c, z)) rows at
    Alice's first, each with C weighed uniformly."""
    t = p3.table  # (N, N, n_c, 2, 2, oz)
    n, n_c, oz = p3.input_sizes[0], p3.input_sizes[2], p3.output_sizes[2]
    sides = (t[:, 0].sum(axis=3), t[0].sum(axis=2))  # (N, n_c, outcome, oz)
    return tuple(
        locality_measure(ConditionalDistribution(
            np.moveaxis(side * (1.0 / n_c), 2, 1).reshape(n, 1, 2, n_c * oz)), CLASSICAL)
        for side in sides
    )


class TestLocalityBound:
    @settings(max_examples=200, deadline=None)
    @given(local_three_party_tables())
    def test_equals_the_per_setting_distances_bit_for_bit(self, p3):
        # Both sides are measured as locality_measure measures one, against
        # each setting's own hidden marginal; the per-setting reference
        # against the common (a, b) = (0, 0) marginal stays within
        # IDENTITY_TOL.
        ns, rep = locality_bound_check(p3)
        assert ns.passed and rep.passed
        alice, bob = side_measurements(p3)
        assert rep.per_setting == alice.per_setting + bob.per_setting
        ref_x, ref_y = per_setting_locality_bound(p3)
        gap = np.abs(np.subtract(rep.per_setting, ref_x + ref_y))
        assert gap.max() <= IDENTITY_TOL

    @pytest.mark.parametrize("row", [0, 2, 3, 5])
    @pytest.mark.parametrize("check", ["average", "identity"])
    def test_cross_check_fails_on_any_setting(self, check, row):
        # Either cross-check of the kernel pushed off on one of the six rows
        # (Alice's three settings, then Bob's) must fail: the average form
        # 1e-6 off its joint form, or the excess sum 1e-9 off the half-L1.
        p = qm_chained_distribution(3)
        p3 = ConditionalDistribution(p.table.reshape(3, 3, 1, 2, 2, 1))
        calls = []
        if check == "average":
            def shifted(values):
                calls.append(None)
                return math.fsum(values) + (1e-6 if len(calls) - 1 == row else 0.0)

            # hvm's own fsum only: the chain value sums with fsum too.
            own_math = SimpleNamespace(**{**vars(math), "fsum": shifted})
            patch = mock.patch.object(hvm, "math", own_math)
            match = "average-form distance .* disagrees"
        else:
            minimum = np.minimum

            def shifted(a, b, out=None):
                calls.append(None)
                out = minimum(a, b, out=out)
                out[row] -= 1e-9
                return out

            patch = mock.patch.object(np, "minimum", shifted)
            match = "distance identity violated"
        with patch, pytest.raises(AssertionError, match=match):
            locality_bound_check(p3)
        assert len(calls) == (6 if check == "average" else 2)  # rows, or outcome planes
        locality_bound_check(p3)  # and passes unshifted

    def test_quantum_with_trivial_hidden_parties(self):
        p = qm_chained_distribution(3)
        table = p.table.reshape(3, 3, 1, 2, 2, 1)
        p3 = ConditionalDistribution(table)
        ns, rep = locality_bound_check(p3)
        assert ns.passed and rep.passed
        assert rep.max_distance < 1e-12

    def test_all_deterministic_strategies_at_n2(self):
        # Exhaustive: every single-strategy local model saturates locality
        # 1/2 on each side and pays chain value >= 1, so the bound holds.
        for f in itertools.product((0, 1), repeat=2):
            for g in itertools.product((0, 1), repeat=2):
                m = local_deterministic_model(2, [list(f)], [list(g)])
                p3 = hidden_joint_form(induced_distribution(m))
                ns, rep = locality_bound_check(p3)
                assert ns.passed and rep.passed
                assert rep.per_setting[:2] == pytest.approx((0.5, 0.5), abs=1e-12)
                assert rep.cap >= 0.5 - 1e-12

    def test_nontrivial_extra_input(self):
        # Third party outputs a copy of its own input: non-signaling, and
        # the chain outcomes stay independent of it.
        n = 2
        base = qm_chained_distribution(n)
        table = np.zeros((n, n, 2, 2, 2, 2))
        for c in range(2):
            table[:, :, c, :, :, c] = base.table
        p3 = ConditionalDistribution(table)
        ns, rep = locality_bound_check(p3)
        assert ns.passed and rep.passed
        assert rep.max_distance < 1e-12

    def test_signaling_input_flagged_inapplicable(self):
        table = np.zeros((2, 2, 1, 2, 2, 1))
        for a in range(2):
            for b in range(2):
                table[a, b, 0, b, 0, 0] = 1.0
        p3 = ConditionalDistribution(table)
        ns, rep = locality_bound_check(p3)
        assert not ns.passed
        assert rep is None
        assert ns.max_violation == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(two_party_chain_tables())
    def test_two_party_table_reads_as_its_promoted_copy(self, p):
        # A two-party table is read through a view with a one-valued C and
        # Z: the bound gets the bits of the three-party copy that the CLI
        # once built, and its non-signaling check is the table's own.
        n = p.input_sizes[0]
        promoted = ConditionalDistribution(p.table.reshape(n, n, 1, 2, 2, 1))
        (ns, rep), (ref_ns, ref) = locality_bound_check(p), locality_bound_check(promoted)
        assert ns.max_violation == assert_nonsignaling(p).max_violation
        assert ns.passed is ref_ns.passed is True
        assert rep.passed is ref.passed

        def bits(report):
            return [v.hex() for v in (*report.per_setting, report.cap)]

        assert bits(rep) == bits(ref)

    def test_random_models_never_violate(self):
        # Non-signaling models of all three families must satisfy the
        # bound; smaller version of the acceptance sweep.
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(2, 4))
            family = trial % 3
            if family == 0:
                nu, nv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                at = rng.integers(0, 2, size=(nu, n))
                bt = rng.integers(0, 2, size=(nv, n))
                w = rng.random((nu, nv))
                m = local_deterministic_model(n, at, bt, w / w.sum())
            elif family == 1:
                k = int(rng.integers(2, 6))
                phis = rng.uniform(0, 2 * math.pi, size=k)
                vecs = np.stack([np.sin(phis), np.zeros(k), np.cos(phis)], axis=1)
                m = leggett_model(n, vecs)
            else:
                m = nonlocal_qm_model(n, visibility=float(rng.uniform(0.5, 1.0)))
            p4 = induced_distribution(m)
            assert assert_nonsignaling(p4, 1e-9).passed
            ns, rep = locality_bound_check(hidden_joint_form(p4))
            assert ns.passed and rep.passed


# The exact ``falsify`` tolerance: a model is falsified when its worst
# setting exceeds the cap by more than this.
EXACT_TOL = 1e-9


def leggett_verdict(n, vectors):
    """The exact ``falsify`` record of a Leggett model: Alice's per-side
    table against half the quantum chain value."""
    return locality_measure(xu_table(leggett_model(n, vectors)), noisy_chain_closed_form(n, 1.0))


class TestFalsifyLeggett:
    def test_uniform_inplane_is_falsified_at_n2(self):
        rec = leggett_verdict(2, inplane_grid(360))
        assert not rec.passed and rec.tolerance == EXACT_TOL
        assert rec.max_distance > rec.cap + EXACT_TOL
        assert rec.max_distance == pytest.approx(1 / math.pi, abs=1e-4)
        assert rec.cap == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_orthogonal_vectors_never_falsified(self, n):
        rec = leggett_verdict(n, ORTHOGONAL)
        assert rec.passed
        assert rec.max_distance < 1e-9

    def test_near_orthogonal_vector_continuity(self):
        # A single vector tilted by eps into the plane contributes at most
        # sin(eps)/2 and vanishes as eps -> 0.
        for eps in (1e-2, 1e-4, 1e-6):
            rec = leggett_verdict(2, np.array([[math.sin(eps), math.cos(eps), 0.0]]))
            assert rec.passed
            assert rec.max_distance <= math.sin(eps) / 2 + 1e-12
        assert leggett_verdict(2, np.array([[0.0, 1.0, 0.0]])).max_distance == 0.0

    def test_uniform_inplane_beats_bound_for_all_small_n(self):
        # 1/pi exceeds half the quantum chain value for every N >= 2.
        for n in range(2, 8):
            rec = leggett_verdict(n, inplane_grid(180))
            assert not rec.passed
            assert rec.cap == pytest.approx(noisy_chain_closed_form(n, 1.0) / 2)


class TestModelJson:
    def test_leggett_document(self, tmp_path):
        doc = {"type": "leggett", "n": 2, "grid": 12}
        m = model_from_dict(doc)
        assert m.n_u == 12
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        m2 = model_from_json_file(path)
        assert np.array_equal(m2.alice, m.alice) and np.array_equal(m2.bob, m.bob)

    def test_local_deterministic_document(self):
        m = model_from_dict(
            {
                "type": "local_deterministic",
                "n": 2,
                "alice_tables": [[0, 1], [1, 0]],
                "bob_tables": [[0, 0]],
                "u_weights": [0.5, 0.5],
                "v_weights": [1.0],
            }
        )
        assert m.n_u == 2 and m.n_v == 1

    def test_nonlocal_qm_document(self):
        m = model_from_dict({"type": "nonlocal_qm", "n": 3, "visibility": 0.8})
        p = chain_table(m)
        expected = 0.8 * noisy_chain_closed_form(3, 1.0) + 0.2 * 3
        assert evaluate_chain(p).value == pytest.approx(expected, abs=1e-9)

    def test_leggett_uv_weights_are_divided_once(self):
        # A total 5e-10 off 1 is within NORM_TOL and divided out exactly
        # once, by the model; the document reader only checks the entries.
        uv = np.array([[0.3, 0.2], [0.1, 0.4 + 5e-10]])
        doc = {"type": "leggett", "n": 2, "vectors": [[0, 0, 1], [1, 0, 0]],
               "uv_weights": uv.tolist()}
        m = model_from_dict(doc)
        assert np.array_equal(m.p_uv, uv / uv.sum())

    def test_model_weights_default_and_shape(self):
        # Per-side weights, uniform by default, keep their bits when they
        # sum to 1 within 1e-12 (1/3 three times does), as table slices do;
        # no joint n_u x n_v array is formed.
        alice, bob = np.full((2, 2, 2), 0.5), np.full((2, 3, 2), 0.5)
        m = HiddenVariableModel(alice=alice, bob=bob)
        assert np.array_equal(m.p_u, np.full(2, 0.5))
        assert np.array_equal(m.p_v, np.full(3, 1.0 / 3.0))
        assert m.p_uv is None
        with pytest.raises(ValueError, match=re.escape("uv_weights must have shape (2, 3)")):
            HiddenVariableModel(alice=alice, bob=bob, p_uv=np.full((3, 2), 1.0 / 6.0))
        with pytest.raises(ValueError, match=re.escape("v_weights must have shape (3,)")):
            HiddenVariableModel(alice=alice, bob=bob, p_v=[0.5, 0.5])
        # A Leggett model's weights meet the same check.
        with pytest.raises(ValueError, match=re.escape("v_weights must have shape (3,)")):
            leggett_model(2, inplane_grid(3), v_weights=[0.5, 0.5])

    def test_weights_follow_the_per_slice_rule(self):
        # Off 1 by 1e-13: kept bit for bit.  Off by 5e-10: divided once.
        alice = np.full((2, 2, 2), 0.5)
        kept = np.array([0.25, 0.75 + 1e-13])
        m = HiddenVariableModel(alice=alice, bob=alice, p_u=kept, p_v=[0.5, 0.5])
        assert m.p_u.tobytes() == kept.tobytes()
        drift = np.array([0.25, 0.75 + 5e-10])
        m = HiddenVariableModel(alice=alice, bob=alice, p_u=drift, p_v=[0.5, 0.5])
        assert np.array_equal(m.p_u, drift / drift.sum())

    def test_custom_table_document(self):
        doc = {"type": "custom_table", "distribution": qm_chained_distribution(2).to_dict()}
        m = model_from_dict(doc)
        assert m.n_settings == 2 and (m.n_u, m.n_v) == (1, 1)

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "nonlocal_qm", "n": 1e400},
            {"type": "nonlocal_qm", "n": 2, "n_u": -1e400},
            {"type": "leggett", "n": 2, "grid": 1e400},
            {"type": "local_deterministic", "n": 1e400,
             "alice_tables": [[0, 0]], "bob_tables": [[0, 0]]},
        ],
        ids=["n", "n_u", "grid", "local_deterministic_n"],
    )
    def test_infinite_integer_field_is_value_error(self, doc):
        # 1e400 parses as infinity; int() raises OverflowError on it.
        with pytest.raises(ValueError, match="finite integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"type": "leggett", "grid": "4", "n": "2"}, "n"),
            ({"type": "local_deterministic", "bob_tables": [[True]], "n": 1,
              "alice_tables": [["0"]]}, "alice_tables"),
        ],
        ids=["n_before_grid", "alice_before_bob"],
    )
    def test_first_bad_numeric_field_in_field_order_is_named(self, doc, field):
        # Two bad fields in the document's order: the one named is the
        # first in the fixed field order, not the first the document lists.
        with pytest.raises(ValueError, match=f"^{field} must be numeric, got "):
            model_from_dict(doc)

    def test_deeply_nested_file_is_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            model_from_json_file(path)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown model type"):
            model_from_dict({"type": "telepathy"})
        with pytest.raises(ValueError, match="type"):
            model_from_dict({})


# Reference forms of the model responses and tables, written with NumPy
# reductions over the size-2 outcome axes; the library must agree with them
# bit for bit.


def reference_rule(raw, n_out):
    """The table rule on each slice over the last ``n_out`` axes: negative
    dust clamped, a slice whose sum is off 1 by more than 1e-12 divided by
    its sum, and every other slice left with its bits."""
    k = np.clip(np.asarray(raw, dtype=float), 0.0, None)
    sums = k.sum(axis=tuple(range(-n_out, 0)), keepdims=True)
    return np.where(np.abs(sums - 1.0) > 1e-12, k / sums, k)


def reference_local_deviation(table):
    xm = table.sum(axis=3)
    dev_x = float((0.5 * np.abs(xm - xm[:, :1, :]).sum(axis=-1)).max())
    ym = table.sum(axis=2)
    dev_y = float((0.5 * np.abs(ym - ym[:1, :, :]).sum(axis=-1)).max())
    return max(dev_x, dev_y)


def random_responses(rng, n, k, jitter=0.0):
    """Responses (p, 1 - p) of k hidden values at n settings, each entry
    scaled by up to ``jitter`` so the sums miss 1 by a few ulps or more."""
    p = rng.random((n, k, 1))
    raw = np.concatenate([p, 1.0 - p], axis=-1)
    return raw * (1.0 + jitter * rng.uniform(-1.0, 1.0, raw.shape))


def product_table(rng, n):
    """A non-signaling (N, N, 2, 2) table: the product of random marginals."""
    pa = random_responses(rng, n, 1)[:, 0]
    pb = random_responses(rng, n, 1)[:, 0]
    return np.einsum("ax,by->abxy", pa, pb)


class TestResponseReferences:
    def raw_response_cases(self):
        rng = np.random.default_rng(41)
        for n, vectors in ((2, inplane_grid(360)), (5, inplane_grid(12)),
                           (3, random_vector_grid(rng, 7))):
            yield _malus_responses(_chained_angles(n)[0], vectors)
        yield np.eye(2)[np.array([[0, 1, 1], [1, 0, 0]]).T]
        # At 3e-12 some responses drift above 1e-12 and are divided, the rest not.
        for jitter in (0.0, 1e-16, 1e-13, 3e-12, 0.9 * NORM_TOL / 2):
            yield random_responses(rng, 3, 4, jitter)

    def test_normalised_responses_are_bit_equal(self):
        for raw in self.raw_response_cases():
            n = raw.shape[0]
            bob = np.full((n, 1, 2), 0.5)
            model = HiddenVariableModel(alice=raw, bob=bob)
            assert model.alice.tobytes() == reference_rule(raw, 1).tobytes()
            model = HiddenVariableModel(alice=bob, bob=raw)
            assert model.bob.tobytes() == reference_rule(raw, 1).tobytes()

    def test_normalised_tables_are_bit_equal(self):
        rng = np.random.default_rng(42)
        for raw in (qm_chained_distribution(7).table,
                    nonlocal_qm_model(4, 0.8).table.table,
                    product_table(rng, 5) * (1.0 + 3e-12 * rng.uniform(-1, 1, (5, 5, 2, 2)))):
            n = raw.shape[0]
            model = HiddenVariableModel(table=ConditionalDistribution(raw))
            assert model.table.table.tobytes() == reference_rule(raw, 2).tobytes()

    @pytest.mark.parametrize("leak", [0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 1e-3])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_local_part_check_rejects_the_same_tables(self, leak, side):
        rng = np.random.default_rng(43)
        table = reference_rule(product_table(rng, 3), 2)
        # Move weight between outcome cells of one context so that one
        # side's marginal there depends on the other side's setting.
        cells = ((0, 0), (1, 0)) if side == "x" else ((0, 0), (0, 1))
        table[1, 2][cells[0]] += leak
        table[1, 2][cells[1]] -= leak
        deviation = reference_local_deviation(table)
        if deviation > NORM_TOL:
            with pytest.raises(ValueError, match=re.escape(f"(deviation {deviation})")):
                HiddenVariableModel._check_local_parts(table)
            with pytest.raises(ValueError, match="leak"):
                HiddenVariableModel(table=ConditionalDistribution(table))
        else:
            HiddenVariableModel._check_local_parts(table)

    def test_local_part_deviation_matches_on_leaking_tables(self):
        rng = np.random.default_rng(47)
        for shape in ((2, 2), (3, 4), (5, 5)):
            table = rng.random(shape + (2, 2))
            table /= table.sum(axis=(2, 3))[..., None, None]
            deviation = reference_local_deviation(table)
            with pytest.raises(ValueError, match=re.escape(f"(deviation {deviation})")):
                HiddenVariableModel._check_local_parts(table)
