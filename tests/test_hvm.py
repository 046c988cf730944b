"""Hidden-variable models, locality measurement, and the locality bound."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from chainedbell import (
    ConditionalDistribution,
    Distribution,
    HiddenVariableModel,
    MeasurementSetup,
    PlanarMeasurement,
    assert_nonsignaling,
    evaluate_chain,
    falsify_leggett,
    hidden_joint_form,
    induced_distribution,
    inplane_grid,
    leggett_marginal,
    leggett_model,
    local_deterministic_model,
    locality_bound_check,
    locality_measure,
    model_from_dict,
    model_from_json_file,
    model_from_responses,
    nonlocal_qm_model,
    orthogonal_grid,
    qm_chained_distribution,
    quantum_chain_closed_form,
    table_model,
    xu_conditional,
)


class TestLeggettMarginal:
    def test_aligned_vector_is_deterministic(self):
        m = PlanarMeasurement(0.7)
        p = leggett_marginal(m, np.array(m.bloch_vector()))
        assert p.probs == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_orthogonal_vector_is_uniform(self):
        m = PlanarMeasurement(1.3)
        p = leggett_marginal(m, np.array([0.0, 1.0, 0.0]))
        assert p.probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_antipodal_vector_flips(self):
        m = PlanarMeasurement(0.7)
        p = leggett_marginal(m, -np.array(m.bloch_vector()))
        assert p.probs == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(0)
        m = PlanarMeasurement(2.2)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            p_plus = leggett_marginal(m, u)
            p_minus = leggett_marginal(m, -u)
            assert p_plus.probs[0] + p_minus.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            leggett_marginal(PlanarMeasurement(0.0), np.array([1.0, 1.0, 0.0]))


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
        assert m.kind == "custom_table"

    def test_response_function_construction(self):
        # Local deterministic responses written in the response-function
        # form: x = u XOR (a parity), y = v, with a fair shared coin for w
        # that the responses ignore.
        support = [
            (u, v, w, 0.25 * 0.5)
            for u in (0, 1)
            for v in (0, 1)
            for w in ("heads", "tails")
        ]
        m = model_from_responses(
            2,
            support,
            response_x=lambda a, b, u, v, w: (u + a) % 2,
            response_y=lambda a, b, u, v, w: v,
        )
        assert m.n_u == 2 and m.n_v == 2
        p4 = induced_distribution(m)
        assert assert_nonsignaling(p4, 1e-12).passed

    def test_response_functions_must_be_local_on_average(self):
        # x copies b: no valid local/non-local split exists.
        support = [(0, 0, None, 1.0)]
        with pytest.raises(ValueError, match="leak"):
            model_from_responses(
                2, support,
                response_x=lambda a, b, u, v, w: b % 2,
                response_y=lambda a, b, u, v, w: 0,
            )

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
        with pytest.raises(ValueError, match="u_weights must be finite"):
            nonlocal_qm_model(2, n_u=2, u_weights=[np.nan, 1.0])

    @pytest.mark.parametrize("visibility", [float("nan"), 1.5])
    def test_visibility_off_the_unit_interval_rejected(self, visibility):
        with pytest.raises(ValueError, match="visibility"):
            nonlocal_qm_model(2, visibility)

    def test_nonbit_responses_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            model_from_responses(
                2, [(0, 0, None, 1.0)],
                response_x=lambda a, b, u, v, w: 2,
                response_y=lambda a, b, u, v, w: 0,
            )


class TestInducedDistribution:
    def test_nonlocal_model_ignores_hidden_variables(self):
        # Dummy local variables: the (x, u) joint factorizes exactly into
        # uniform times the hidden marginal.
        m = nonlocal_qm_model(2, n_u=3, u_weights=[0.2, 0.3, 0.5])
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
        setup = MeasurementSetup.chained(n)
        x_given_au = p4.table.sum(axis=(5, 7))[:, 0, 0, 0]  # (a, x, u)
        for a in range(n):
            for u in range(8):
                cond = x_given_au[a, :, u] / x_given_au[a, :, u].sum()
                oracle = leggett_marginal(setup.alice[a], vectors[u]).probs
                assert cond == pytest.approx(list(oracle), abs=1e-12)

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
        setup = MeasurementSetup.chained(n)
        for a, measured in report.per_setting_distance:
            theta = setup.alice_angles[a]
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
        """The per-hidden-value loop that locality_measure vectorised."""
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
        vectors = np.concatenate([inplane_grid(grid), orthogonal_grid()])
        weights = np.random.default_rng(n).random(len(vectors))
        weights[::5] = 0.0  # zero-weight hidden values are skipped
        weights /= weights.sum()
        bloch = np.array([m.bloch_vector() for m in MeasurementSetup.chained(n).alice])
        p0 = np.clip(0.5 * (1.0 + bloch @ vectors.T), 0.0, 1.0)  # (N, k)
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


class TestLocalityBound:
    def test_quantum_with_trivial_hidden_parties(self):
        p = qm_chained_distribution(3)
        table = p.table.reshape(3, 3, 1, 2, 2, 1)
        p3 = ConditionalDistribution((3, 3, 1), (2, 2, 1), table)
        rep = locality_bound_check(p3, Distribution([1.0]))
        assert rep.applicable and rep.passed
        assert max(rep.lhs_x + rep.lhs_y) < 1e-12

    def test_all_deterministic_strategies_at_n2(self):
        # Exhaustive: every single-strategy local model saturates locality
        # 1/2 on each side and pays chain value >= 1, so the bound holds.
        for f in itertools.product((0, 1), repeat=2):
            for g in itertools.product((0, 1), repeat=2):
                m = local_deterministic_model(2, [list(f)], [list(g)])
                p3 = hidden_joint_form(induced_distribution(m))
                rep = locality_bound_check(p3, Distribution([1.0]))
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
        rep = locality_bound_check(p3, Distribution([0.5, 0.5]))
        assert rep.applicable and rep.passed
        assert max(rep.lhs_x + rep.lhs_y) < 1e-12

    def test_signaling_input_flagged_inapplicable(self):
        table = np.zeros((2, 2, 1, 2, 2, 1))
        for a in range(2):
            for b in range(2):
                table[a, b, 0, b, 0, 0] = 1.0
        p3 = ConditionalDistribution((2, 2, 1), (2, 2, 1), table)
        rep = locality_bound_check(p3, Distribution([1.0]))
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
            rep = locality_bound_check(hidden_joint_form(p4), Distribution([1.0]))
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
        report = falsify_leggett(n, orthogonal_grid())
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
        assert m.kind == "leggett" and m.n_u == 12
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

    def test_custom_table_document(self):
        doc = {"type": "custom_table", "distribution": qm_chained_distribution(2).to_dict()}
        m = model_from_dict(doc)
        assert m.kind == "custom_table"

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
