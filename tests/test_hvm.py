"""Hidden-variable models, locality measurement, and the locality bound."""

import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chainedbell import (
    ConditionalDistribution,
    HiddenVariableModel,
    assert_nonsignaling,
    evaluate_chain,
    falsify_leggett,
    hidden_joint_form,
    induced_distribution,
    inplane_grid,
    leggett_model,
    local_deterministic_model,
    locality_bound_check,
    locality_measure,
    model_from_dict,
    model_from_json_file,
    nonlocal_qm_model,
    qm_chained_distribution,
    quantum_chain_closed_form,
    table_model,
    xu_conditional,
)
from chainedbell import hvm
from chainedbell.distributions import _l1_upper_bounds, _max_pairwise_tv
from chainedbell.hvm import LOCAL_PART_TOL, NORM_TOL, _inverse_cdf, _malus_p0
from chainedbell.quantum import _chained_angles
from lemmas import per_setting_locality_bound

# The two unit vectors orthogonal to the measurement (x-z) plane.
ORTHOGONAL = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])


def bloch(angle):
    """Outcome-0 Bloch direction of the x-z-plane measurement at ``angle``."""
    return np.array([math.sin(angle), 0.0, math.cos(angle)])


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
        dist = ConditionalDistribution((2, 2), (2, 2), table)
        with pytest.raises(ValueError, match="leak"):
            table_model(dist)

    def test_nonsignaling_table_accepted(self):
        m = table_model(qm_chained_distribution(3))
        assert m.n_settings == 3

    def test_non_finite_kernels_and_weights_rejected(self):
        # NaN compares false against every bound, so it needs its own check.
        kernels = np.full((2, 2, 1, 1, 2, 2), 0.25)
        bad = kernels.copy()
        bad[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HiddenVariableModel(2, p_uv=np.ones((1, 1)), kernels=bad)
        with pytest.raises(ValueError, match="finite"):
            HiddenVariableModel(2, p_uv=np.full((1, 1), np.nan), kernels=kernels)
        with pytest.raises(ValueError, match="finite"):
            local_deterministic_model(2, [[0, 1], [1, 1]], [[0, 0]], [[np.nan], [1.0]])

    def test_non_finite_vectors_and_weights_rejected(self):
        with pytest.raises(ValueError, match="u_vectors must be finite"):
            leggett_model(2, [[np.nan, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="vectors must be finite"):
            falsify_leggett(2, [[0, 0, np.inf], [0, 0, 1]])
        with pytest.raises(ValueError, match="weights must be finite"):
            falsify_leggett(2, [[1, 0, 0], [0, 0, 1]], [np.nan, 1.0])
        with pytest.raises(ValueError, match="uv_weights must be finite"):
            HiddenVariableModel(
                2, p_uv=[[np.nan], [1.0]], kernels=nonlocal_qm_model(2, n_u=2).kernels
            )

    @pytest.mark.parametrize("visibility", [float("nan"), 1.5])
    def test_visibility_off_the_unit_interval_rejected(self, visibility):
        with pytest.raises(ValueError, match="visibility"):
            nonlocal_qm_model(2, visibility)


class TestInducedDistribution:
    def test_nonlocal_model_ignores_hidden_variables(self):
        # Dummy local variables: the (x, u) joint factorizes exactly into
        # uniform times the hidden marginal.
        kernels = nonlocal_qm_model(2, n_u=3).kernels
        m = HiddenVariableModel(2, p_uv=[[0.2], [0.3], [0.5]], kernels=kernels)
        p_xu = xu_conditional(induced_distribution(m))
        lm = locality_measure(p_xu)
        assert lm.max_distance < 1e-12
        pu = p_xu.table.sum(axis=2)[0, 0]
        assert pu == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)

    def test_leggett_marginals_match_closed_form(self):
        # Per-(setting, vector) oracle: the induced conditional marginal
        # must equal the squared-overlap rule.
        n = 3
        vectors = inplane_grid(8)
        m = leggett_model(n, vectors)
        p4 = induced_distribution(m)
        alice, _ = _chained_angles(n)
        x_given_au = p4.table.sum(axis=(5, 7))[:, 0, 0, 0]  # (a, x, u)
        for a in range(n):
            for u in range(8):
                cond = x_given_au[a, :, u] / x_given_au[a, :, u].sum()
                assert cond == pytest.approx(leggett_marginal(alice[a], vectors[u]), abs=1e-12)

    def test_sampled_mode_is_seeded(self):
        m = leggett_model(2, inplane_grid(4))
        p1 = induced_distribution(m, mode="sampled", shots=500, seed=3)
        p2 = induced_distribution(m, mode="sampled", shots=500, seed=3)
        assert p1 == p2

    def test_sampled_converges_to_exact(self):
        m = leggett_model(2, inplane_grid(4))
        exact = induced_distribution(m)
        shots = 40000
        sampled = induced_distribution(m, mode="sampled", shots=shots, seed=11)
        envelope = 3 * math.sqrt(math.log(2 / 1e-3) / (2 * shots))
        assert np.abs(exact.table - sampled.table).max() < envelope

    def test_sampled_needs_shots_and_seed(self):
        m = nonlocal_qm_model(2)
        with pytest.raises(ValueError, match="shots"):
            induced_distribution(m, mode="sampled")

    def test_xu_conditional_b_average_matches_slice_on_exact_tables(self):
        m = leggett_model(3, inplane_grid(6))
        p4 = induced_distribution(m)
        sliced = xu_conditional(p4)
        pooled = xu_conditional(p4, average_b=True)
        assert np.abs(sliced.table - pooled.table).max() < 1e-15

    def test_xu_conditional_b_average_reduces_sampling_noise(self):
        m = leggett_model(3, inplane_grid(6))
        exact = xu_conditional(induced_distribution(m)).table
        sampled = induced_distribution(m, mode="sampled", shots=4000, seed=21)
        pooled = xu_conditional(sampled, tol=1.0, average_b=True).table
        sliced = xu_conditional(sampled, tol=1.0).table
        assert np.abs(pooled - exact).sum() < np.abs(sliced - exact).sum()


class TestLocalityMeasure:
    def test_uniform_outcomes_have_zero_locality(self):
        table = np.full((3, 1, 2, 4), 1.0 / 8)
        p = ConditionalDistribution((3, 1), (2, 4), table)
        lm = locality_measure(p)
        assert lm.max_distance == 0.0

    def test_outcome_copies_hidden_bit(self):
        # X = U with U a fair bit: every conditional is a point mass, so
        # each setting's distance is 1/2.
        table = np.zeros((2, 1, 2, 2))
        for u in (0, 1):
            table[:, 0, u, u] = 0.5
        p = ConditionalDistribution((2, 1), (2, 2), table)
        lm = locality_measure(p)
        assert lm.per_setting == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_leggett_uniform_inplane_quadrature(self):
        # Independent oracle: numerical quadrature of the circle average
        # of |cos(t - phi)| / 2, which equals 1/pi for every t.
        n = 2
        report = falsify_leggett(n, inplane_grid(360))
        alice, _ = _chained_angles(n)
        for a, measured in report.per_setting_distance:
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
        p_xu = ConditionalDistribution((n, 1), (2, len(vectors)), table[:, None])
        lm = locality_measure(p_xu)
        assert lm.per_setting == self._loop_per_setting(p_xu)

    def test_matches_the_loop_on_a_model_table(self):
        m = leggett_model(3, inplane_grid(12))
        p_xu = xu_conditional(induced_distribution(m))
        assert locality_measure(p_xu).per_setting == self._loop_per_setting(p_xu)

    def test_setting_dependent_hidden_marginal_rejected(self):
        table = np.zeros((2, 1, 2, 2))
        table[0, 0, :, 0] = 0.5  # u pinned to 0 under setting 0
        table[1, 0, :, 1] = 0.5  # u pinned to 1 under setting 1
        p = ConditionalDistribution((2, 1), (2, 2), table)
        with pytest.raises(ValueError, match="marginal depends"):
            locality_measure(p)

    def test_non_binary_outcomes_rejected(self):
        p = ConditionalDistribution((2, 1), (3, 2), np.full((2, 1, 3, 2), 1.0 / 6))
        with pytest.raises(ValueError, match="binary outcome"):
            locality_measure(p)

    @pytest.mark.parametrize("shifted", [0, 2, 4])
    def test_cross_check_runs_on_every_setting(self, monkeypatch, shifted):
        n = 5
        p_xu = xu_conditional(induced_distribution(leggett_model(n, inplane_grid(12))))
        fsum, calls = math.fsum, []

        def shifting_fsum(values):
            calls.append(None)
            return fsum(values) + (1e-6 if len(calls) - 1 == shifted else 0.0)

        monkeypatch.setattr(hvm.math, "fsum", shifting_fsum)
        with pytest.raises(AssertionError, match="average-form distance .* disagrees"):
            locality_measure(p_xu)
        assert len(calls) == n


def envelope_tv(arr):
    """Distance between the entrywise max and min rows of a (c, s, o) array,
    from the pairwise kernel's per-slice bound: the bound the hidden-marginal
    gate checks before it runs the all-pairs max."""
    return 0.5 * float(_l1_upper_bounds(arr).max())


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


class TestMarginalGate:
    @settings(max_examples=300, deadline=None)
    @given(marginal_rows())
    def test_envelope_bounds_every_pair(self, arr):
        assert envelope_tv(arr) >= _max_pairwise_tv(arr)

    @settings(max_examples=300, deadline=None)
    @given(marginal_rows(), st.data())
    def test_gate_decides_as_the_all_pairs_max(self, arr, data):
        # Split each hidden weight over the two outcomes; the gate sees the
        # planes' sum, as the reference below does.
        split = np.random.default_rng(arr.shape[0]).random(arr.shape)
        table = np.stack([arr * split, arr * (1.0 - split)], axis=2)  # (c, 1, 2, o)
        p_xu = ConditionalDistribution((arr.shape[0], 1), (2, arr.shape[2]), table)
        pu = p_xu.table[:, 0, 0] + p_xu.table[:, 0, 1]
        dev = _max_pairwise_tv(pu[:, None, :])
        bound = envelope_tv(pu[:, None, :])
        tol = data.draw(st.sampled_from([
            dev, np.nextafter(dev, 0.0), np.nextafter(dev, 1.0), 0.5 * (dev + bound),
            bound, np.nextafter(bound, 0.0), 0.999 * dev, 1.001 * bound, 0.0,
        ]))
        if dev > tol:
            with pytest.raises(ValueError, match=re.escape(f"(deviation {dev})")):
                locality_measure(p_xu, marginal_tol=tol)
        else:
            locality_measure(p_xu, marginal_tol=tol)


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
    return ConditionalDistribution((n, n, n_c), (2, 2, oz), table)


class TestLocalityBound:
    @settings(max_examples=200, deadline=None)
    @given(local_three_party_tables())
    def test_equals_the_per_setting_distances_bit_for_bit(self, p3):
        rep = locality_bound_check(p3)
        assert rep.applicable and rep.passed
        assert (rep.lhs_x, rep.lhs_y) == per_setting_locality_bound(p3)

    @pytest.mark.parametrize("setting", [0, 2, 5])
    def test_cross_check_fails_on_any_setting(self, setting):
        # An excess sum pushed 1e-9 off on one of the six settings (Alice's
        # three, then Bob's) must fail the identity cross-check.
        p = qm_chained_distribution(3)
        p3 = ConditionalDistribution((3, 3, 1), (2, 2, 1), p.table.reshape(3, 3, 1, 2, 2, 1))
        maximum = np.maximum

        def shifted(a, b):
            out = maximum(a, b)
            if out.ndim == 2 and out.shape[0] == 6:
                out[setting, 0] += 1e-9
            return out

        with mock.patch.object(np, "maximum", shifted):
            with pytest.raises(AssertionError, match="distance identity violated"):
                locality_bound_check(p3)
        locality_bound_check(p3)  # and passes unshifted

    def test_quantum_with_trivial_hidden_parties(self):
        p = qm_chained_distribution(3)
        table = p.table.reshape(3, 3, 1, 2, 2, 1)
        p3 = ConditionalDistribution((3, 3, 1), (2, 2, 1), table)
        rep = locality_bound_check(p3)
        assert rep.applicable and rep.passed
        assert max(rep.lhs_x + rep.lhs_y) < 1e-12

    def test_all_deterministic_strategies_at_n2(self):
        # Exhaustive: every single-strategy local model saturates locality
        # 1/2 on each side and pays chain value >= 1, so the bound holds.
        for f in itertools.product((0, 1), repeat=2):
            for g in itertools.product((0, 1), repeat=2):
                m = local_deterministic_model(2, [list(f)], [list(g)])
                p3 = hidden_joint_form(induced_distribution(m))
                rep = locality_bound_check(p3)
                assert rep.applicable and rep.passed
                assert rep.lhs_x == pytest.approx((0.5, 0.5), abs=1e-12)
                assert rep.bound >= 0.5 - 1e-12

    def test_nontrivial_extra_input(self):
        # Third party outputs a copy of its own input: non-signaling, and
        # the chain outcomes stay independent of it.
        n = 2
        base = qm_chained_distribution(n)
        table = np.zeros((n, n, 2, 2, 2, 2))
        for c in range(2):
            table[:, :, c, :, :, c] = base.table
        p3 = ConditionalDistribution((n, n, 2), (2, 2, 2), table)
        rep = locality_bound_check(p3)
        assert rep.applicable and rep.passed
        assert max(rep.lhs_x + rep.lhs_y) < 1e-12

    def test_signaling_input_flagged_inapplicable(self):
        table = np.zeros((2, 2, 1, 2, 2, 1))
        for a in range(2):
            for b in range(2):
                table[a, b, 0, b, 0, 0] = 1.0
        p3 = ConditionalDistribution((2, 2, 1), (2, 2, 1), table)
        rep = locality_bound_check(p3)
        assert not rep.applicable
        assert rep.passed is None
        assert rep.ns_violation == pytest.approx(1.0, abs=1e-12)

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
            rep = locality_bound_check(hidden_joint_form(p4))
            assert rep.applicable and rep.passed


class TestFalsifyLeggett:
    def test_uniform_inplane_is_falsified_at_n2(self):
        report = falsify_leggett(2, inplane_grid(360))
        assert report.falsified
        assert report.max_distance == pytest.approx(1 / math.pi, abs=1e-4)
        assert report.bound == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-12)
        assert report.max_distance > report.bound

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_orthogonal_vectors_never_falsified(self, n):
        report = falsify_leggett(n, ORTHOGONAL)
        assert not report.falsified
        assert report.max_distance < 1e-9

    def test_near_orthogonal_vector_continuity(self):
        # A single vector tilted by eps into the plane contributes at most
        # sin(eps)/2 and vanishes as eps -> 0.
        for eps in (1e-2, 1e-4, 1e-6):
            vec = np.array([[math.sin(eps), math.cos(eps), 0.0]])
            report = falsify_leggett(2, vec)
            assert not report.falsified
            assert report.max_distance <= math.sin(eps) / 2 + 1e-12
        assert falsify_leggett(2, np.array([[0.0, 1.0, 0.0]])).max_distance == 0.0

    def test_uniform_inplane_beats_bound_for_all_small_n(self):
        # 1/pi exceeds half the quantum chain value for every N >= 2.
        for n in range(2, 8):
            report = falsify_leggett(n, inplane_grid(180))
            assert report.falsified
            assert report.bound == pytest.approx(quantum_chain_closed_form(n) / 2)


class TestModelJson:
    def test_leggett_document(self, tmp_path):
        doc = {"type": "leggett", "n": 2, "grid": 12}
        m = model_from_dict(doc)
        assert m.n_u == 12
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        m2 = model_from_json_file(path)
        assert np.array_equal(m2.kernels, m.kernels)

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
        p4 = induced_distribution(m)
        xy = hidden_joint_form(p4)
        table = xy.table.sum(axis=-1)[:, :, 0]
        p = ConditionalDistribution((3, 3), (2, 2), table)
        expected = 0.8 * quantum_chain_closed_form(3) + 0.2 * 3
        assert evaluate_chain(p, 3).value == pytest.approx(expected, abs=1e-9)

    def test_leggett_uv_weights_are_divided_once(self):
        # A total 5e-10 off 1 is within NORM_TOL and divided out exactly
        # once, by the model; the document reader only checks the entries.
        uv = np.array([[0.3, 0.2], [0.1, 0.4 + 5e-10]])
        doc = {"type": "leggett", "n": 2, "vectors": [[0, 0, 1], [1, 0, 0]],
               "uv_weights": uv.tolist()}
        m = model_from_dict(doc)
        assert np.array_equal(m.p_uv, uv / uv.sum())

    def test_model_weights_default_and_shape(self):
        kernels = nonlocal_qm_model(2, n_u=2, n_v=3).kernels
        m = HiddenVariableModel(2, kernels=kernels)
        uniform = np.full((2, 3), 1.0 / 6.0)  # sums to 1 only within rounding
        assert np.array_equal(m.p_uv, uniform / uniform.sum())
        with pytest.raises(ValueError, match=re.escape("uv_weights must have shape (2, 3)")):
            HiddenVariableModel(2, p_uv=np.full((3, 2), 1.0 / 6.0), kernels=kernels)

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


# Reference forms of the model kernels and the sampled table, written with
# NumPy reductions over the size-2 outcome axes and an unravel/ravel round
# trip; the library must agree with them bit for bit.


def reference_kernels(raw):
    """The table rule on each kernel: negative dust clamped, a kernel whose
    sum is off 1 by more than 1e-12 divided by its sum, and every other
    kernel left with its bits."""
    k = np.clip(np.asarray(raw, dtype=float), 0.0, None)
    sums = k.sum(axis=(4, 5))[..., None, None]
    return np.where(np.abs(sums - 1.0) > 1e-12, k / sums, k)


def reference_local_deviation(kernels):
    xm = kernels.sum(axis=5)
    dev_x = float((0.5 * np.abs(xm - xm[:, :1, :, :1, :]).sum(axis=-1)).max())
    ym = kernels.sum(axis=4)
    dev_y = float((0.5 * np.abs(ym - ym[:1, :, :1, :, :]).sum(axis=-1)).max())
    return max(dev_x, dev_y)


def reference_sampled(model, shots, seed):
    n, nu, nv = model.n_settings, model.n_u, model.n_v
    rng = np.random.default_rng(seed)
    shape = (2, 2, nu, nv)
    table = np.zeros((n, n) + shape)
    for a in range(n):
        for b in range(n):
            joint = np.moveaxis(model.p_uv[:, :, None, None] * model.kernels[a, b], (0, 1), (2, 3))
            idx = _inverse_cdf(np.cumsum(joint.reshape(-1)), rng.random(shots))
            cells = np.ravel_multi_index(np.unravel_index(idx, joint.shape), shape)
            table[a, b] = np.bincount(cells, minlength=table[a, b].size).reshape(shape)
    return table / float(shots)


def product_kernels(rng, n, nu, nv, jitter=0.0):
    """Local kernels from random per-side marginals, each entry scaled by
    up to ``jitter`` so the sums miss 1 by a few ulps or more."""
    ma = rng.random((n, nu, 1))
    mb = rng.random((n, nv, 1))
    ma = np.concatenate([ma, 1.0 - ma], axis=-1)
    mb = np.concatenate([mb, 1.0 - mb], axis=-1)
    raw = np.einsum("aux,bvy->abuvxy", ma, mb)
    return raw * (1.0 + jitter * rng.uniform(-1.0, 1.0, raw.shape))


def random_vector_grid(rng, k):
    vecs = rng.normal(size=(k, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class TestKernelReferences:
    def raw_kernel_cases(self):
        rng = np.random.default_rng(41)
        yield leggett_model(2, inplane_grid(360)).kernels
        yield leggett_model(5, inplane_grid(12)).kernels
        yield leggett_model(3, random_vector_grid(rng, 7), random_vector_grid(rng, 5)).kernels
        yield nonlocal_qm_model(4, 0.8, n_u=2, n_v=3).kernels
        yield local_deterministic_model(3, [[0, 1, 1], [1, 0, 0]], [[0, 0, 1]]).kernels
        yield qm_chained_distribution(7).table[:, :, None, None, :, :]
        # At 3e-12 some kernels drift above 1e-12 and are divided, the rest not.
        for jitter in (0.0, 1e-16, 1e-13, 3e-12, 0.9 * NORM_TOL / 4):
            yield product_kernels(rng, 3, 4, 2, jitter)

    def test_normalised_kernels_are_bit_equal(self):
        for raw in self.raw_kernel_cases():
            n, _, nu, nv = raw.shape[:4]
            model = HiddenVariableModel(n, p_uv=np.full((nu, nv), 1.0 / (nu * nv)), kernels=raw)
            ref = reference_kernels(raw)
            assert model.kernels.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("leak", [0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 1e-3])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_local_part_check_rejects_the_same_kernels(self, leak, side):
        rng = np.random.default_rng(43)
        kernels = reference_kernels(product_kernels(rng, 3, 2, 2))
        # Move weight between outcome cells of one context so that one
        # side's marginal there depends on the other side's setting.
        cells = ((0, 0), (1, 0)) if side == "x" else ((0, 0), (0, 1))
        kernels[1, 2, 1, 0][cells[0]] += leak
        kernels[1, 2, 1, 0][cells[1]] -= leak
        deviation = reference_local_deviation(kernels)
        if deviation > LOCAL_PART_TOL:
            with pytest.raises(ValueError, match=re.escape(f"(deviation {deviation})")):
                HiddenVariableModel._check_local_parts(kernels)
        else:
            HiddenVariableModel._check_local_parts(kernels)

    def test_local_part_deviation_matches_on_leaking_kernels(self):
        rng = np.random.default_rng(47)
        for shape in ((2, 2, 1, 1), (3, 4, 2, 3), (5, 5, 3, 1)):
            kernels = rng.random(shape + (2, 2))
            kernels /= kernels.sum(axis=(4, 5))[..., None, None]
            deviation = reference_local_deviation(kernels)
            with pytest.raises(ValueError, match=re.escape(f"(deviation {deviation})")):
                HiddenVariableModel._check_local_parts(kernels)

    @pytest.mark.parametrize(
        "model, shots",
        [
            (leggett_model(2, inplane_grid(6), inplane_grid(4)), 3000),
            (nonlocal_qm_model(3, 0.9, n_u=2, n_v=3), 2000),
            (local_deterministic_model(2, [[0, 1], [1, 1], [0, 0]], [[1, 0]]), 500),
        ],
        ids=["leggett_6x4", "nonlocal_qm", "local_deterministic"],
    )
    def test_sampled_table_is_bit_equal(self, model, shots):
        got = induced_distribution(model, mode="sampled", shots=shots, seed=53)
        ref = reference_sampled(model, shots, seed=53)
        assert got.table.tobytes() == ref.reshape(got.table.shape).tobytes()
