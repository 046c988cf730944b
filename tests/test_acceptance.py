"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a PASS line with its runtime; run with ``pytest -s`` to
see them.  Budgets are asserted after the work itself succeeds.
"""

import math
import time

import numpy as np
import pytest

from chainedbell import (
    ConditionalDistribution,
    EstimateReport,
    assert_nonsignaling,
    classical_min_chain_value,
    estimate_chain_value,
    evaluate_chain,
    inplane_grid,
    leggett_model,
    local_deterministic_model,
    locality_bound_check,
    locality_cap,
    locality_measure,
    lp_min_chain_given_bias,
    noisy_chain_closed_form,
    nonlocal_qm_model,
    qm_chained_distribution,
    simulate_shots,
    xu_table,
)
from lemmas import (
    Distribution,
    average_conditional_distance,
    coupling_distance_bound,
    hidden_joint_form,
    induced_distribution,
    marginalize,
    stat_distance,
    strategy_distribution,
)

CHSH_VALUE = 2 - math.sqrt(2)


def timed(name, limit_s, fn):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    print(f"PASS {name}: {elapsed:.2f}s (limit {limit_s}s)")
    assert elapsed < limit_s, f"{name} took {elapsed:.1f}s, limit {limit_s}s"


def test_01_chsh_value():
    def run():
        score = evaluate_chain(qm_chained_distribution(2))
        assert abs(score.value - CHSH_VALUE) < 1e-9

    timed("chsh value", 1.0, run)


def test_02_closed_form_and_asymptote():
    def run():
        limit = math.pi**2 / 8
        for n in range(2, 201):
            value = evaluate_chain(qm_chained_distribution(n)).value
            assert abs(value - noisy_chain_closed_form(n, 1.0)) < 1e-9
            if n >= 100:
                assert abs(n * value - limit) < 0.01 * limit

    timed("closed form sweep N=2..200", 10.0, run)


def test_03_classical_bound():
    def run():
        for n in (2, 3, 4, 5):
            result = classical_min_chain_value(n)
            assert result.min_value == 1.0
            assert evaluate_chain(strategy_distribution(result.witness)).value == 1.0

    timed("classical minimum N=2..5", 30.0, run)


def test_04_nonsignaling():
    def run():
        for n in range(2, 11):
            rep = assert_nonsignaling(qm_chained_distribution(n), 1e-12)
            assert rep.passed and rep.max_violation < 1e-12
        table = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                table[a, b, b, 0] = 1.0
        rep = assert_nonsignaling(ConditionalDistribution(table))
        assert not rep.passed
        assert abs(rep.max_violation - 1.0) < 1e-12

    timed("non-signaling N=2..10 plus signaling witness", 5.0, run)


def test_05_locality_bound_model_sweep():
    def run():
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 4))
            family = trial % 3
            if family == 0:
                nu = int(rng.integers(1, 5))
                nv = int(rng.integers(1, 5))
                at = rng.integers(0, 2, size=(nu, n))
                bt = rng.integers(0, 2, size=(nv, n))
                w = rng.random((nu, nv)) + 1e-3
                model = local_deterministic_model(n, at, bt, w / w.sum())
            elif family == 1:
                k = int(rng.integers(2, 7))
                phis = rng.uniform(0, 2 * math.pi, size=k)
                vecs = np.stack([np.sin(phis), np.zeros(k), np.cos(phis)], axis=1)
                w = rng.random(k) + 1e-3
                wu = w / w.sum()
                model = leggett_model(n, vecs, uv_weights=np.outer(wu, wu))
            else:
                model = nonlocal_qm_model(
                    n,
                    visibility=float(rng.uniform(0.3, 1.0)),
                    n_u=int(rng.integers(1, 3)),
                )
            p4 = induced_distribution(model)
            assert assert_nonsignaling(p4, 1e-9).passed
            ns, rep = locality_bound_check(hidden_joint_form(p4))
            assert ns.passed
            assert rep.passed, f"bound violated on trial {trial}: {rep}"

    timed("locality bound over 200 random models", 60.0, run)


def test_06_maximum_locality_figure():
    def run():
        report = EstimateReport(
            n_settings=2,
            point_estimate=CHSH_VALUE,
            upper_bound=CHSH_VALUE,
            confidence_level=0.99,
            shots_per_pair=1,
        )
        cap = locality_cap(report.upper_bound)
        assert abs(cap - (1 - 1 / math.sqrt(2))) < 1e-12
        assert abs(cap - 0.3) < 0.01

    timed("maximum locality at the chsh value", 1.0, run)


def test_07_leggett_falsification():
    def run():
        # Alice's (outcome, hidden) table is all the locality cap constrains.
        chain_value = noisy_chain_closed_form(2, 1.0)
        report = locality_measure(xu_table(leggett_model(2, inplane_grid(360))), chain_value)
        assert report.cap == pytest.approx(CHSH_VALUE / 2, abs=1e-12)
        assert abs(report.max_distance - 1 / math.pi) < 1e-4
        assert report.max_distance > report.cap + 1e-9  # falsified
        assert not report.passed
        ortho = locality_measure(
            xu_table(leggett_model(2, [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])), chain_value)
        assert ortho.max_distance < 1e-9 and ortho.passed

    timed("leggett falsification at N=2", 5.0, run)


def test_08_lp_tightness():
    def run():
        for delta in (0.0, 0.1, 0.25, 0.4, 0.5):
            result = lp_min_chain_given_bias(2, delta)
            assert result.min_value >= 2 * delta - 1e-9
            print(f"  lp delta={delta}: min={result.min_value:.9f} gap={result.gap:+.2e}")

    timed("lp bias probe N=2", 30.0, run)


def test_09_finite_statistics():
    def run():
        n = 2
        table = qm_chained_distribution(n)
        shots = 10**6
        report = estimate_chain_value(
            simulate_shots(table, shots, seed=20240), n, 0.99
        )
        # Binomial error of the point estimate: each of the 2N terms is a
        # frequency over about shots / N^2 samples.
        per_pair = shots / n**2
        p = math.sin(math.pi / (4 * n)) ** 2
        sigma = math.sqrt(2 * n * p * (1 - p) / per_pair)
        assert abs(report.point_estimate - CHSH_VALUE) < 3 * sigma

        hits = 0
        reps = 1000
        for i in range(reps):
            rep_i = estimate_chain_value(
                simulate_shots(table, 10**4, seed=31_000 + i), n, 0.99
            )
            hits += rep_i.upper_bound >= CHSH_VALUE
        assert hits >= 0.99 * reps, f"coverage {hits}/{reps}"

    timed("finite statistics and coverage", 300.0, run)


def test_10_distance_property_suites():
    def run():
        rng = np.random.default_rng(9)

        def random_dist(shape):
            t = rng.random(shape)
            return Distribution(t / t.sum())

        for _ in range(1000):  # disagreement probability bounds marginal distance
            rep = coupling_distance_bound(random_dist((4, 4)))
            assert rep.passed
        for _ in range(1000):  # half-L1 equals the one-sided excess
            p, q = random_dist((6,)), random_dist((6,))
            d = stat_distance(p, q)
            assert abs(d - float(np.maximum(q.probs - p.probs, 0).sum())) < 1e-12
        for _ in range(1000):  # marginals never increase distance
            p, q = random_dist((3, 4)), random_dist((3, 4))
            assert stat_distance(marginalize(p, [0]), marginalize(q, [0])) <= (
                stat_distance(p, q) + 1e-12
            )
        for _ in range(1000):  # conditional average equals the joint distance
            pz = rng.random(3)
            pz /= pz.sum()
            pxz = rng.random((4, 3))
            pxz /= pxz.sum(axis=0, keepdims=True)
            qxz = rng.random((4, 3))
            qxz /= qxz.sum(axis=0, keepdims=True)
            p, q = Distribution(pxz * pz), Distribution(qxz * pz)
            assert abs(average_conditional_distance(p, q) - stat_distance(p, q)) < 1e-9

    timed("distance property suites", 10.0, run)
