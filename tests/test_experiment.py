"""Shot simulation, the chain-value estimator, and its confidence bound."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chainedbell import (
    DeterministicStrategy,
    EstimateReport,
    MissingSettingPairError,
    chain_pairs,
    estimate_chain_value,
    estimate_from_counts,
    evaluate_chain,
    local_deterministic_model,
    max_locality_bound,
    qm_chained_distribution,
    read_shots_csv,
    simulate_shots,
    write_shots_csv,
)
from chainedbell.experiment import _fold_counts


def concat(blocks, width=4):
    """All shots of a block stream as one (k, width) array."""
    return np.concatenate([np.empty((0, width), dtype=np.int64), *blocks])


class TestChainPairs:
    def test_counts_and_kinds(self):
        for n in (2, 3, 7):
            pairs = chain_pairs(n)
            assert len(pairs) == 2 * n
            assert len({(a, b) for a, b, _ in pairs}) == 2 * n
            assert sum(kind == "match" for _, _, kind in pairs) == 1


class TestSimulateShots:
    def test_deterministic_table_gives_constant_records(self):
        table = DeterministicStrategy((0, 0), (0, 0)).distribution()
        for block in simulate_shots(table, 2, 500, seed=0):
            assert block.dtype == np.int64
            assert (block[:, 2] == 0).all() and (block[:, 3] == 0).all()
            assert block.shape[1] == 4  # no hidden-variable columns

    def test_fixed_seed_reproduces_the_stream(self):
        table = qm_chained_distribution(2)
        first = concat(simulate_shots(table, 2, 2000, seed=42))
        second = concat(simulate_shots(table, 2, 2000, seed=42))
        assert np.array_equal(first, second)

    def test_settings_uniform_within_sampling_error(self):
        table = qm_chained_distribution(2)
        counts = np.zeros((2, 2))
        shots = 40000
        for block in simulate_shots(table, 2, shots, seed=1):
            np.add.at(counts, (block[:, 0], block[:, 1]), 1)
        # 5 sigma on a fair four-way split.
        sigma = math.sqrt(shots * 0.25 * 0.75)
        assert np.abs(counts - shots / 4).max() < 5 * sigma

    def test_adjacent_mismatch_frequency_matches_born_rule(self):
        n = 2
        table = qm_chained_distribution(n)
        shots = 10**5
        seen = np.zeros((n, n))
        mism = np.zeros((n, n))
        for block in simulate_shots(table, n, shots, seed=2):
            a, b, x, y = block.T
            np.add.at(seen, (a, b), 1)
            np.add.at(mism, (a, b), x != y)
        p = math.sin(math.pi / (4 * n)) ** 2
        for a, b, kind in chain_pairs(n):
            if kind != "differ":
                continue
            m = seen[a, b]
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(mism[a, b] / m - p) < 3 * sigma

    def test_model_records_carry_hidden_indices(self):
        m = local_deterministic_model(2, [[0, 1], [1, 0]], [[0, 0], [1, 1]])
        a, b, x, y, u, v = concat(simulate_shots(m, 2, 200, seed=3), 6).T
        assert np.isin(u, (0, 1)).all() and np.isin(v, (0, 1)).all()
        # Outcomes must follow the sampled strategies exactly:
        # alice table u gives x = u XOR a, bob table v gives y = v.
        assert np.array_equal(x, (u + a) % 2)
        assert np.array_equal(y, v)

    def test_invalid_sources_rejected(self):
        with pytest.raises(TypeError):
            list(simulate_shots(object(), 2, 10, seed=0))
        with pytest.raises(ValueError, match="settings"):
            list(simulate_shots(qm_chained_distribution(3), 2, 10, seed=0))
        with pytest.raises(ValueError, match="shots"):
            list(simulate_shots(qm_chained_distribution(2), 2, 0, seed=0))


class TestEstimator:
    def test_exact_frequencies_reproduce_the_chain_value(self):
        # Plugging the true per-pair probabilities in as frequencies must
        # return the table's chain value exactly.
        n = 3
        table = qm_chained_distribution(n)
        counts = np.ones((n, n))
        mism = table.table[:, :, 0, 1] + table.table[:, :, 1, 0]
        report = estimate_from_counts(counts, mism, n, 0.95)
        assert report.point_estimate == pytest.approx(
            evaluate_chain(table, n).value, abs=1e-12
        )

    def test_upper_bound_arithmetic(self):
        # Recompute the union-bounded Hoeffding radii by hand.
        n = 2
        counts = np.full((n, n), 250_000)
        mism = np.full((n, n), 36_612)
        confidence = 0.99
        report = estimate_from_counts(counts, mism, n, confidence)
        radius = math.sqrt(math.log(2 * 2 * n / (1 - confidence)) / (2 * 250_000))
        expected_point = 3 * (36_612 / 250_000) + (1 - 36_612 / 250_000)
        assert report.point_estimate == pytest.approx(expected_point, abs=1e-12)
        assert report.upper_bound == pytest.approx(
            expected_point + 2 * n * radius, abs=1e-12
        )
        assert report.shots_per_pair == 250_000
        assert report.method == "hoeffding-union"

    def test_point_estimate_converges(self):
        n = 2
        table = qm_chained_distribution(n)
        truth = evaluate_chain(table, n).value
        errors = []
        for shots in (10**4, 10**5, 10**6):
            records = simulate_shots(table, n, shots, seed=17)
            report = estimate_chain_value(records, n, 0.99)
            errors.append(abs(report.point_estimate - truth))
            assert report.upper_bound >= report.point_estimate
        assert errors[2] < errors[0]
        assert errors[2] < 5e-3

    def test_missing_pair_raises(self):
        with pytest.raises(MissingSettingPairError):
            estimate_chain_value(
                simulate_shots(qm_chained_distribution(5), 5, 3, seed=0), 5, 0.9
            )

    def test_confidence_domain(self):
        counts = np.ones((2, 2))
        with pytest.raises(ValueError, match="confidence"):
            estimate_from_counts(counts, counts * 0, 2, 1.0)

    def test_coverage_over_replications(self):
        # The union-bounded construction is conservative, so coverage at
        # 99% nominal should be essentially total.
        n = 2
        table = qm_chained_distribution(n)
        truth = evaluate_chain(table, n).value
        hits = 0
        reps = 120
        for i in range(reps):
            records = simulate_shots(table, n, 5000, seed=1000 + i)
            report = estimate_chain_value(records, n, 0.99)
            hits += report.upper_bound >= truth
        assert hits / reps >= 0.99


class TestLocalityCap:
    def test_cap_values(self):
        base = dict(n_settings=2, confidence_level=0.99, shots_per_pair=1, method="x")
        chsh = EstimateReport(point_estimate=0.5, upper_bound=2 - math.sqrt(2), **base)
        assert max_locality_bound(chsh) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        zero = EstimateReport(point_estimate=0.0, upper_bound=0.0, **base)
        assert max_locality_bound(zero) == 0.0
        one = EstimateReport(point_estimate=0.9, upper_bound=1.0, **base)
        assert max_locality_bound(one) == 0.5


class TestShotCsv:
    def test_round_trip_plain(self, tmp_path):
        table = qm_chained_distribution(2)
        records = concat(simulate_shots(table, 2, 300, seed=5))
        path = tmp_path / "shots.csv"
        assert write_shots_csv([records], path) == 300
        assert path.read_text().splitlines()[0] == "a,b,x,y"
        assert np.array_equal(concat(read_shots_csv(path)), records)

    def test_round_trip_annotated(self, tmp_path):
        m = local_deterministic_model(2, [[0, 1]], [[1, 0]])
        records = concat(simulate_shots(m, 2, 100, seed=6), 6)
        path = tmp_path / "shots.csv"
        write_shots_csv([records], path)
        assert path.read_text().splitlines()[0] == "a,b,x,y,u,v"
        assert np.array_equal(concat(read_shots_csv(path), 6), records)

    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            write_shots_csv([], tmp_path / "shots.csv")

    @pytest.mark.parametrize("shots", [70_000, 2 * 65536])
    def test_round_trip_spans_several_chunks(self, tmp_path, shots):
        # 2 * 65536 rows end exactly on a reader chunk boundary.
        n = 3
        table = qm_chained_distribution(n)
        path = tmp_path / "shots.csv"
        assert write_shots_csv(simulate_shots(table, n, shots, seed=8), path) == shots
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = list(read_shots_csv(path))
        assert len(blocks) == 2
        in_memory = _fold_counts(simulate_shots(table, n, shots, seed=8), n)
        read_back = _fold_counts(blocks, n)
        assert np.array_equal(read_back[0], in_memory[0])
        assert np.array_equal(read_back[1], in_memory[1])
        assert read_back[0].sum() == shots


class TestFoldChecks:
    @pytest.mark.parametrize(
        "row",
        [(3, 0, 0, 0), (-1, 0, 0, 0), (0, 3, 1, 1), (0, -1, 1, 1), (0, 0, 2, 0), (0, 0, 0, -1)],
    )
    def test_out_of_range_shot_rejected(self, row):
        block = np.array([[0, 0, 0, 1], row], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            estimate_chain_value([block], 3, 0.99)

    def test_non_shot_blocks_rejected(self, tmp_path):
        for block in (np.zeros((2, 5), dtype=np.int64), np.zeros(4, dtype=np.int64),
                      np.zeros((2, 4))):
            with pytest.raises(ValueError, match="shot block"):
                estimate_chain_value([block], 2, 0.99)
            with pytest.raises(ValueError, match="shot block"):
                write_shots_csv([block], tmp_path / "shots.csv")
            assert not (tmp_path / "shots.csv").exists()

    def test_mixed_widths_rejected(self, tmp_path):
        blocks = [np.zeros((1, 4), dtype=np.int64), np.zeros((1, 6), dtype=np.int64)]
        with pytest.raises(ValueError, match="share their columns"):
            write_shots_csv(blocks, tmp_path / "shots.csv")


def cut(draw, block):
    """The block split at up to five random row indices."""
    cuts = sorted(draw(st.lists(st.integers(0, len(block)), max_size=5)))
    return np.split(block, cuts)


def int64_blocks(width):
    return st.integers(0, 200).flatmap(
        lambda k: hnp.arrays(np.int64, (k, width), elements=st.integers(-(2**63), 2**63 - 1))
    )


def report_or_error(blocks, n):
    try:
        return estimate_chain_value(blocks, n, 0.95)
    except MissingSettingPairError as exc:
        return type(exc)


class TestBlockProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(2, 6), int64_blocks(6))
    def test_fold_is_independent_of_block_cuts(self, data, n, raw):
        # Map raw integers into range: settings mod n, outcomes mod 2.
        whole = raw % np.array([n, n, 2, 2, 1 << 62, 1 << 62])
        pieces = cut(data.draw, whole)
        counts, mism = _fold_counts([whole], n)
        cut_counts, cut_mism = _fold_counts(pieces, n)
        assert np.array_equal(cut_counts, counts)
        assert np.array_equal(cut_mism, mism)
        assert report_or_error(pieces, n) == report_or_error([whole], n)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.one_of(int64_blocks(4), int64_blocks(6)))
    def test_csv_round_trip_returns_the_concatenated_block(self, data, whole):
        width = whole.shape[1]
        pieces = cut(data.draw, whole)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shots.csv"
            assert write_shots_csv(pieces, path) == len(whole)
            back = concat(read_shots_csv(path), width)
        assert back.dtype == np.int64
        assert np.array_equal(back, whole)
