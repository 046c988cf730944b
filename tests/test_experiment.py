"""Shot simulation, the chain-value estimator, and its confidence bound."""

import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chainedbell import (
    ConditionalDistribution,
    DeterministicStrategy,
    EstimateReport,
    HiddenVariableModel,
    MissingSettingPairError,
    chain_pairs,
    chain_table,
    estimate_chain_value,
    estimate_from_counts,
    evaluate_chain,
    inplane_grid,
    leggett_model,
    local_deterministic_model,
    max_locality_bound,
    mix_with_noise,
    nonlocal_qm_model,
    qm_chained_distribution,
    read_shots_csv,
    sample_counts,
    simulate_shots,
    simulate_shots_csv,
    write_shots_csv,
)
from chainedbell import experiment
from chainedbell.experiment import _fold_counts, _inverse_cdf, _without_replacement
from lemmas import induced_distribution, plain_write_shots_csv, strategy_distribution


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
        table = strategy_distribution(DeterministicStrategy((0, 0), (0, 0)))
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
        with pytest.raises(ValueError, match="settings"):
            list(simulate_shots(nonlocal_qm_model(3), 2, 10, seed=0))
        with pytest.raises(ValueError, match="two-party"):  # a model enters as itself
            list(simulate_shots(induced_distribution(nonlocal_qm_model(2)), 2, 10, seed=0))
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

    @pytest.mark.parametrize("n", [2, 5, 12, 100])
    def test_integer_counts_give_the_float_counts_report(self, n):
        counts, mism = sample_counts(mix_with_noise(qm_chained_distribution(n), 0.9),
                                     n, 40 * n * n, seed=n)
        assert estimate_from_counts(counts, mism, n, 0.99) == \
            estimate_from_counts(counts.astype(float), mism.astype(float), n, 0.99)

    def test_peak_memory_is_of_the_chain_pairs(self):
        # The 2N chain pairs are read in place; two float copies of the
        # N×N counts would take 1.4 MB at N = 300.
        n = 300
        counts, mism = sample_counts(qm_chained_distribution(n), n, 10**7, seed=3)
        estimate_from_counts(counts, mism, n, 0.99)
        assert peak_bytes(lambda: estimate_from_counts(counts, mism, n, 0.99)) < 256 * 1024

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


# Pieces of shot CSV text, well-formed and not: digits, signs, separators,
# the three line ends, a blank, a NUL, an invalid UTF-8 byte, an int64
# overflow and a fraction.
CSV_PIECES = [b"0", b"1", b"7", b"-1", b",", b"\r\n", b"\n", b"\r", b" ", b"\x00", b"\xff",
              b"99999999999999999999", b"1.5", b"0,1,0,1", b"1,0,1,1,2,3"]


class TestShotCsvFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([b"a,b,x,y", b"a,b,x,y,u,v", b"a,b,x", b""]),
        st.sampled_from([b"\r\n", b"\n"]),
        st.one_of(st.binary(max_size=300),
                  st.lists(st.sampled_from(CSV_PIECES), max_size=60).map(b"".join)),
    )
    def test_raw_bytes_give_blocks_or_value_error(self, header, eol, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shots.csv"
            path.write_bytes(header + eol + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    blocks = list(read_shots_csv(path))
                except ValueError:
                    return
        width = header.count(b",") + 1
        for block in blocks:
            assert block.dtype == np.int64
            assert block.ndim == 2 and block.shape[1] == width and len(block) >= 1

    @pytest.mark.parametrize(
        "body, rows",
        [(b"", []), (b"\r\n", []), (b"0,1,0,1\r\n\r\n1,1,0,0\r\n", [[0, 1, 0, 1], [1, 1, 0, 0]]),
         (b"\r\n\r\n0,0,1,1", [[0, 0, 1, 1]])],
        ids=["header_only", "blank_line", "blank_inside", "blank_first"],
    )
    def test_empty_lines_are_skipped_without_a_warning(self, tmp_path, body, rows):
        # A header and one empty line once raised "rows must have 4 columns,
        # got 1" with two UserWarnings, and an empty line inside warned.
        path = tmp_path / "shots.csv"
        path.write_bytes(b"a,b,x,y\r\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = list(read_shots_csv(path))
        assert [row for block in blocks for row in block.tolist()] == rows


class TestFoldChecks:
    @pytest.mark.parametrize(
        "row",
        [(3, 0, 0, 0), (-1, 0, 0, 0), (0, 3, 1, 1), (0, -1, 1, 1), (0, 0, 2, 0), (0, 0, 0, -1)],
    )
    def test_out_of_range_shot_rejected(self, row):
        block = np.array([[0, 0, 0, 1], row], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            estimate_chain_value([block], 3, 0.99)

    @pytest.mark.parametrize(
        "rows",
        ["2,0,0,1\r\n", "0,0,1,1\r\n-1,1,0,1\r\n", "0,1,0,1\r\n0,0.5,0,1\r\n"],
        ids=["a_equals_n", "negative_a", "non_integer_cell"],
    )
    def test_malformed_csv_row_rejected(self, tmp_path, rows):
        # The reader rejects a non-integer cell, the fold a setting
        # outside [0, N).
        path = tmp_path / "shots.csv"
        path.write_text("a,b,x,y\r\n" + rows, newline="")
        with pytest.raises(ValueError):
            estimate_chain_value(read_shots_csv(path), 2, 0.99)

    def test_non_shot_blocks_rejected(self, tmp_path):
        for block in (np.zeros((2, 5), dtype=np.int64), np.zeros(4, dtype=np.int64),
                      np.zeros((2, 4))):
            with pytest.raises(ValueError, match="shot block"):
                estimate_chain_value([block], 2, 0.99)
            with pytest.raises(ValueError, match="shot block"):
                write_shots_csv([block], tmp_path / "shots.csv")
            assert not (tmp_path / "shots.csv").exists()

    def test_each_block_is_checked_once(self, tmp_path, monkeypatch):
        # A malformed first block raises before the file is created, a
        # malformed later block as the stream reaches it.
        good = np.zeros((2, 4), dtype=np.int64)
        bad = np.zeros((2, 5), dtype=np.int64)
        path = tmp_path / "shots.csv"
        with pytest.raises(ValueError, match="shot block"):
            write_shots_csv([bad, good], path)
        assert not path.exists()
        with pytest.raises(ValueError, match="shot block"):
            write_shots_csv([good, good, bad], path)
        assert path.read_bytes() == b"a,b,x,y\r\n" + b"0,0,0,0\r\n" * 4
        checked = []

        def counted(block):
            checked.append(block)
            return check_block(block)

        check_block = experiment._check_block
        monkeypatch.setattr(experiment, "_check_block", counted)
        assert write_shots_csv([good, good, good], path) == 6
        assert len(checked) == 3

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
            path, ref = Path(tmp) / "shots.csv", Path(tmp) / "reference.csv"
            assert write_shots_csv(pieces, path) == len(whole)
            plain_write_shots_csv(pieces, ref)
            assert path.read_bytes() == ref.read_bytes()
            back = concat(read_shots_csv(path), width)
        assert back.dtype == np.int64
        assert np.array_equal(back, whole)


# Row counts around the writer's line chunks, and cut points at and
# beside their ends.
WRITE_ROWS = experiment._WRITE_ROWS
CHUNK_EDGES = [WRITE_ROWS * m + d for m in (1, 2, 3) for d in (-1, 0, 1)]


@st.composite
def small_range_streams(draw):
    """A stream of shot blocks, 4 or 6 columns of uint8, int16 or int64,
    whose columns span 1 to 3 values above a low end anywhere in the
    dtype's range, negative ones too.  The whole has up to 40 rows or a
    row count about a chunk end; it is cut at random rows, at chunk ends
    or at single rows, which gives empty and 1-row blocks."""
    width = draw(st.sampled_from([4, 6]))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64]))
    info = np.iinfo(dtype)
    spans = draw(st.lists(st.integers(1, 3), min_size=width, max_size=width))
    lows = [draw(st.integers(int(info.min), int(info.max) - span + 1)) for span in spans]
    rows = draw(st.one_of(st.integers(0, 40), st.sampled_from(CHUNK_EDGES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    whole = (rng.integers(0, spans, size=(rows, width)) + lows).astype(dtype)
    points = st.one_of(st.integers(0, rows), st.sampled_from([0, 1, rows - 1, *CHUNK_EDGES]))
    cuts = sorted(c for c in draw(st.lists(points, max_size=5)) if 0 <= c <= rows)
    return np.split(whole, cuts)


class TestRowByRowWriter:
    """``write_shots_csv`` writes the bytes of the row-by-row reference
    ``plain_write_shots_csv`` (full-range int64 blocks:
    ``test_csv_round_trip_returns_the_concatenated_block``)."""

    @staticmethod
    def both_bytes(blocks):
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "shots.csv", Path(tmp) / "reference.csv"
            assert write_shots_csv(blocks, path) == plain_write_shots_csv(blocks, ref)
            return path.read_bytes(), ref.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(small_range_streams())
    def test_small_ranges_write_the_reference_bytes(self, blocks):
        got, ref = self.both_bytes(blocks)
        assert got == ref

    @pytest.mark.parametrize("n", [2, 50, 200])
    def test_peak_memory_grows_with_the_block(self, tmp_path, n):
        # One 65 536-row qm block, of key space 4N² (16, 10 000 and
        # 160 000).  The writer formats 4096 rows at a time, as the
        # reference does, so its peak stays within 8 times the reference's.
        block = next(simulate_shots(qm_chained_distribution(n), n, 65536, seed=5))
        peaks = []
        for writer in (plain_write_shots_csv, write_shots_csv):
            tracemalloc.start()
            writer([block], tmp_path / "shots.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 8 * peaks[0]


# Reference forms of the shot kernels, written with loops, row sums and
# fancy indexing; the library must agree with them exactly.


def reference_inverse_cdf(cdf, r):
    """Row-sum inverse CDF: the count of cumulative entries at or below each
    draw, capped at the last outcome."""
    return np.minimum((r[:, None] >= cdf).sum(axis=1), cdf.shape[-1] - 1)


def reference_posterior(rng, groups, weights_of):
    """One index per row: one uniform per row drawn at once, then, group
    by group in increasing order of the group tuple, the group's rows in
    row order take the next uniforms against the group's weights."""
    r = rng.random(len(groups))
    out = np.zeros(len(groups), dtype=np.int64)
    used = 0
    for group in sorted(set(groups)):
        rows = [i for i, g in enumerate(groups) if g == group]
        cdf = np.cumsum(weights_of(*group))
        cdf = cdf / cdf[-1]
        out[rows] = reference_inverse_cdf(cdf, r[used:used + len(rows)])
        used += len(rows)
    return out


def reference_hidden_pair(rng, model, a, b, x, y):
    """P(u, v | a, b, x, y): the prior for a table; p_u·A[a, :, x] and
    p_v·B[b, :, y] for product weights; for joint weights u from
    A[a, :, x]·(p_uv @ B[b, :, y]), then v from p_uv[u, :]·B[b, :, y]."""
    rows = list(zip(a.tolist(), b.tolist(), x.tolist(), y.tolist()))
    if model.table is not None:
        return [reference_posterior(rng, [()] * len(rows), lambda: w) for w in (model.p_u, model.p_v)]
    A, B = model.alice, model.bob
    if model.p_uv is None:
        u = reference_posterior(rng, [(a_, x_) for a_, _, x_, _ in rows],
                                lambda a_, x_: model.p_u * A[a_, :, x_])
        v = reference_posterior(rng, [(b_, y_) for _, b_, _, y_ in rows],
                                lambda b_, y_: model.p_v * B[b_, :, y_])
        return [u, v]
    u = reference_posterior(rng, rows, lambda a_, b_, x_, y_:
                            A[a_, :, x_] * (model.p_uv @ B[b_, :, y_]))
    v = reference_posterior(rng, [(b_, y_, u_) for (_, b_, _, y_), u_ in zip(rows, u.tolist())],
                            lambda b_, y_, u_: model.p_uv[u_] * B[b_, :, y_])
    return [u, v]


def reference_stream(source, n, shots, seed, chunk=65536):
    """The shot stream, written out: the setting-pair counts as one
    multinomial and each pair's (x, y) counts as one multinomial of its
    own; then per block its make-up drawn without replacement from the
    counts left (the last block takes them all), its rows laid out cell
    by cell and shuffled, the settings and outcomes read off each row's
    cell (a, b, x, y), and for a model each row's hidden pair."""
    model = source if isinstance(source, HiddenVariableModel) else None
    rows = (source.table if model is None else chain_table(model).table).reshape(n * n, 4)
    rng = np.random.default_rng(seed)
    per_pair = rng.multinomial(shots, [1.0 / (n * n)] * (n * n))
    remaining = np.concatenate([rng.multinomial(m, row) for m, row in zip(per_pair, rows)])
    cells = [(a, b, x, y) for a in range(n) for b in range(n) for x in (0, 1) for y in (0, 1)]
    left = shots
    while left > 0:
        k = min(chunk, left)
        part = remaining.copy() if k == left else rng.multivariate_hypergeometric(remaining, k)
        remaining -= part
        left -= k
        order = np.array([c for c, m in enumerate(part) for _ in range(m)], dtype=np.int64)
        rng.shuffle(order)
        a, b, x, y = np.array([cells[c] for c in order]).T
        columns = [a, b, x, y]
        if model is not None:
            columns += reference_hidden_pair(rng, model, a, b, x, y)
        yield np.column_stack(columns)


def reference_fold(blocks, n):
    """Two ``bincount`` calls per block after axis-0 min/max validation, in
    the block's own dtype."""
    cells = n * n
    counts = np.zeros(cells, dtype=np.int64)
    mism = np.zeros(cells, dtype=np.int64)
    for block in blocks:
        if not len(block):
            continue
        lo = block[:, :4].min(axis=0)
        hi = block[:, :4].max(axis=0)
        if lo[:2].min() < 0 or hi[:2].max() >= n:
            raise ValueError(f"shot setting outside [0, {n})")
        if lo[2:].min() < 0 or hi[2:].max() > 1:
            raise ValueError("shot outcome outside {0, 1}")
        pair = block[:, 0] * n + block[:, 1]
        counts += np.bincount(pair, minlength=cells)
        mism += np.bincount(pair[block[:, 2] != block[:, 3]], minlength=cells)
    return counts.reshape(n, n), mism.reshape(n, n)


@st.composite
def cdf_rows_and_draws(draw):
    """Cumulative rows of width 1 to 64 with flat steps (zero-probability
    outcomes) and a final value at or just under 1, and draws that include
    0.0, cumulative entries themselves and their neighbours."""
    m = draw(st.integers(1, 64))
    k = draw(st.integers(1, 12))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    w = draw(hnp.arrays(np.float64, (k, m), elements=weight))
    w[w.sum(axis=1) == 0.0, -1] = 1.0
    shrink = draw(st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-6]))
    cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1) * shrink
    r = np.empty(k)
    for i in range(k):
        entry = float(cdf[i, draw(st.integers(0, m - 1))])
        r[i] = draw(st.one_of(
            st.just(0.0),
            st.just(entry),
            st.just(float(np.nextafter(entry, 0.0))),
            st.just(float(np.nextafter(entry, 1.0))),
            st.floats(0.0, 1.0, exclude_max=True),
        ))
    return cdf, r


# A flat step, and a final cumulative value just under 1 with draws on and
# above it: these must land on the last outcome.
FINAL_UNDER_ONE = (
    np.array([[0.25, 0.25, 1.0 - 2.0**-53]] * 4),
    np.array([0.0, 0.25, 1.0 - 2.0**-53, np.nextafter(1.0, 0.0)]),
)


class TestInverseCdf:
    @settings(max_examples=100, deadline=None)
    @given(cdf_rows_and_draws())
    @example(FINAL_UNDER_ONE)
    def test_shared_row_matches_the_row_sum(self, case):
        cdf, r = case
        shared = cdf[0]
        expected = reference_inverse_cdf(np.broadcast_to(shared, cdf.shape), r)
        assert np.array_equal(_inverse_cdf(shared, r), expected)


MODEL_SOURCES = {
    "nonlocal_qm": (nonlocal_qm_model(2, 0.9, n_u=3, n_v=2), 9_000, 4096),
    "local_deterministic": (
        local_deterministic_model(3, [[0, 1, 1], [1, 0, 0]], [[0, 0, 1]]), 5_000, 65536),
    "leggett_24": (leggett_model(2, inplane_grid(24)), 5_000, 1736),
    "leggett_weighted": (
        leggett_model(3, inplane_grid(6), inplane_grid(4),
                      u_weights=[0.1, 0.0, 0.2, 0.3, 0.15, 0.25], v_weights=[0.4, 0.1, 0.2, 0.3]),
        20_000, 65536),
    "leggett_uv": (
        leggett_model(2, inplane_grid(3), uv_weights=[[0.1, 0.2, 0.0], [0.3, 0.0, 0.1],
                                                      [0.05, 0.05, 0.2]]),
        20_000, 7000),
    "deterministic_uv": (
        local_deterministic_model(2, [[0, 1], [1, 1], [0, 0]], [[1, 0], [0, 0]],
                                  uv_weights=[[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]]),
        20_000, 65536),
    "table_weighted": (
        HiddenVariableModel(3, table=mix_with_noise(qm_chained_distribution(3), 0.8),
                            p_u=[0.3, 0.7], p_v=[0.1, 0.5, 0.4]),
        30_000, 65536),
}


SOURCES = {
    "qm": (qm_chained_distribution(3), 20_000, 65536),
    "noisy_qm_small_chunks": (mix_with_noise(qm_chained_distribution(5), 0.9), 7_000, 1000),
    **MODEL_SOURCES,
}


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_stream_is_identical(self, name, monkeypatch):
        source, shots, chunk = SOURCES[name]
        n = source.input_sizes[0] if isinstance(source, ConditionalDistribution) \
            else source.n_settings
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", chunk)
        got = list(simulate_shots(source, n, shots, seed=31))
        ref = list(reference_stream(source, n, shots, seed=31, chunk=chunk))
        assert [len(block) for block in got] == [len(block) for block in ref]
        for mine, theirs in zip(got, ref):
            assert mine.dtype == np.int64 and mine.flags.c_contiguous
            assert mine.shape[1] == (4 if isinstance(source, ConditionalDistribution) else 6)
            assert np.array_equal(mine, theirs)


def settings_of(source) -> int:
    """Settings per side of a table or model source."""
    return source.input_sizes[0] if isinstance(source, ConditionalDistribution) \
        else source.n_settings


def peak_bytes(write) -> int:
    """The tracemalloc peak of one call of ``write``."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One source of each kind the direct writer keys apart: tables, table-form
# models, product-weight models and joint-weight (uv_weights) models.
CSV_SOURCES = ["qm", "noisy_qm_small_chunks", "nonlocal_qm", "table_weighted",
               "local_deterministic", "leggett_weighted", "leggett_uv", "deterministic_uv"]


class TestSimulatedCsv:
    """``simulate_shots_csv`` writes the bytes of the row-by-row reference
    ``plain_write_shots_csv`` of ``simulate_shots``'s stream, whether it
    keeps one line per key for the stream or writes built blocks."""

    @staticmethod
    def both_bytes(source, n, shots, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "shots.csv", Path(tmp) / "reference.csv"
            assert simulate_shots_csv(source, n, shots, seed, path) == shots
            assert plain_write_shots_csv(simulate_shots(source, n, shots, seed), ref) == shots
            return path.read_bytes(), ref.read_bytes()

    @pytest.mark.parametrize("name", CSV_SOURCES)
    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([65_535, 65_536, 65_537, 131_073]), st.integers(0, 2**32 - 1),
           st.booleans())
    @example(131_073, 0, False)
    @example(65_537, 1, True)
    def test_writes_the_reference_bytes(self, name, shots, seed, blocks):
        # One row short of a full block, a full block, one row more, and
        # two full blocks and a row; with ``blocks`` a key-space limit of 0
        # sends the stream through the block routes.
        source = SOURCES[name][0]
        limit = 0 if blocks else experiment._KEY_SPACE_BLOCKS
        with mock.patch.object(experiment, "_KEY_SPACE_BLOCKS", limit):
            got, ref = self.both_bytes(source, settings_of(source), shots, seed)
        assert got == ref

    @pytest.mark.parametrize("source, n, table_route", [
        (qm_chained_distribution(65), 65, True),
        (qm_chained_distribution(100), 100, True),
        (leggett_model(2, inplane_grid(360)), 2, False),
    ], ids=["qm_65", "qm_100", "leggett_grid_360"])
    def test_large_alphabets(self, source, n, table_route):
        # qm at N = 65 and 100 keeps a line per cell for the stream (16 900
        # and 40 000 keys); a grid-360 Leggett model has 16·360² keys and
        # writes its built blocks.
        space = 4 * n * n * getattr(source, "n_u", 1) * getattr(source, "n_v", 1)
        assert (space <= experiment._KEY_SPACE_BLOCKS * experiment._CHUNK_ROWS) == table_route
        got, ref = self.both_bytes(source, n, 140_000, seed=53)
        assert got == ref

    @pytest.mark.parametrize("source, n, wide", [
        (leggett_model(2, inplane_grid(360)), 2, True),
        (qm_chained_distribution(3), 3, False),
        (leggett_model(3, inplane_grid(6), inplane_grid(4)), 3, False),
    ], ids=["leggett_grid_360", "qm_3", "leggett_6x4"])
    def test_only_a_wide_stream_builds_blocks(self, source, n, wide):
        # A stream wider than _KEY_SPACE_BLOCKS full blocks of keys is
        # written as write_shots_csv(simulate_shots(...)); a narrower one
        # never builds a block.
        built = mock.Mock(wraps=experiment.simulate_shots)
        with mock.patch.object(experiment, "simulate_shots", built):
            got, ref = self.both_bytes(source, n, 70_000, seed=19)
        assert got == ref
        assert built.call_args_list == ([mock.call(source, n, 70_000, 19)] if wide else [])

    def test_checks_come_before_the_file(self, tmp_path):
        path = tmp_path / "shots.csv"
        with pytest.raises(ValueError, match="shots"):
            simulate_shots_csv(qm_chained_distribution(2), 2, 0, 1, path)
        with pytest.raises(ValueError, match="settings per side"):
            simulate_shots_csv(nonlocal_qm_model(2), 3, 10, 1, path)
        with pytest.raises(TypeError):
            simulate_shots_csv(np.ones((2, 2, 2, 2)) / 4, 2, 10, 1, path)
        assert not path.exists()

    @pytest.mark.parametrize("n, factor", [(10, 1.0), (200, 2.0)])
    def test_peak_memory_of_the_line_table(self, tmp_path, n, factor):
        # At N = 10 a stream's 400 lines cost less than the block writer's
        # block; at N = 200 its 160 000 lines stay within twice that.  The
        # block writer's memory is O(block), so its peak over two full
        # blocks is its peak over any longer stream.  The line table is
        # bounded by the key space: doubling the stream adds under 10 %.
        table, path = qm_chained_distribution(n), tmp_path / "shots.csv"
        simulate_shots_csv(table, n, 1000, 1, path)  # first-call allocations
        base = peak_bytes(lambda: write_shots_csv(simulate_shots(table, n, 2 * 65536, 1), path))
        one, two = (peak_bytes(lambda: simulate_shots_csv(table, n, shots, 1, path))
                    for shots in (10**6, 2 * 10**6))
        assert one <= factor * base
        assert two <= 1.1 * one

    def test_peak_memory_of_the_block_route(self, tmp_path):
        # A grid-360 Leggett stream writes built blocks, one at a time,
        # with no more memory than the block writer; two full blocks show
        # each one's peak.  Repeated calls of either writer spread their
        # peaks (about 10 MB) by a few hundred bytes of interpreter objects,
        # hence the one-page allowance.
        model, path = leggett_model(2, inplane_grid(360)), tmp_path / "shots.csv"
        simulate_shots_csv(model, 2, 1000, 1, path)
        base = peak_bytes(lambda: write_shots_csv(simulate_shots(model, 2, 2 * 65536, 1), path))
        assert peak_bytes(lambda: simulate_shots_csv(model, 2, 2 * 65536, 1, path)) <= base + 4096


class TestStreamCarriesTheCounts:
    """The stream orders the counts that ``sample_counts`` draws from the
    same seed: its fold equals them exactly, block sizes and the route of
    the without-replacement draw notwithstanding."""

    @pytest.mark.parametrize("name", list(SOURCES))
    @pytest.mark.parametrize("chunk", [65536, 777])
    def test_fold_equals_the_drawn_counts(self, name, chunk, monkeypatch):
        source, shots, _ = SOURCES[name]
        table = source if isinstance(source, ConditionalDistribution) else chain_table(source)
        n = table.input_sizes[0]
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", chunk)
        blocks = list(simulate_shots(source, n, shots, seed=37))
        assert [len(block) for block in blocks[:-1]] == [chunk] * (len(blocks) - 1)
        for got, drawn in zip(_fold_counts(blocks, n), sample_counts(table, n, shots, seed=37)):
            assert drawn.dtype == np.int64
            assert np.array_equal(got, drawn)

    def test_thinned_draws_keep_the_counts(self, monkeypatch):
        # Above NumPy's item limit each block is drawn from a thinned
        # population; a lowered limit sends every block of this run there.
        monkeypatch.setattr(experiment, "_HYPERGEOMETRIC_ITEMS", 1000)
        monkeypatch.setattr(experiment, "_CHUNK_ROWS", 50)
        model, shots, _ = MODEL_SOURCES["leggett_uv"]
        blocks = list(simulate_shots(model, 2, shots, seed=41))
        counts, mism = sample_counts(chain_table(model), 2, shots, seed=41)
        got_counts, got_mism = _fold_counts(blocks, 2)
        assert np.array_equal(got_counts, counts) and np.array_equal(got_mism, mism)

    def test_thinned_draw_is_hypergeometric(self, monkeypatch):
        # The first colour's count among 50 items drawn without replacement
        # from (1000, 2500, 0, 1500), through thinning, against the exact
        # hypergeometric CDF: Dvoretzky-Kiefer-Wolfowitz radius at failure
        # 1e-9 (fixed seed).
        from scipy.stats import hypergeom

        monkeypatch.setattr(experiment, "_HYPERGEOMETRIC_ITEMS", 1000)
        counts = np.array([1000, 2500, 0, 1500])
        rng = np.random.default_rng(43)
        reps = 4000
        parts = np.array([_without_replacement(rng, counts, 5000, 50) for _ in range(reps)])
        assert (parts.sum(axis=1) == 50).all() and (parts[:, 2] == 0).all()
        assert (parts <= counts).all()
        support = np.arange(51)
        ecdf = (parts[:, :1] <= support).mean(axis=0)
        radius = math.sqrt(math.log(2 / 1e-9) / (2 * reps))
        assert np.abs(ecdf - hypergeom(5000, 1000, 50).cdf(support)).max() <= radius

    @pytest.mark.parametrize("shots", [10**15, 2**63 - 1])
    def test_counts_at_any_shot_count(self, shots):
        # O(N²) whatever the shot count, up to the int64 limit.
        counts, mism = sample_counts(qm_chained_distribution(3), 3, shots, seed=47)
        assert counts.sum() == shots and (mism <= counts).all()

    def test_bad_runs_rejected(self):
        table = qm_chained_distribution(2)
        with pytest.raises(ValueError, match="shots"):
            sample_counts(table, 2, 0, seed=0)
        with pytest.raises(ValueError, match="settings"):
            sample_counts(table, 3, 10, seed=0)


class TestModelSamplerMatchesTheTable:
    @pytest.mark.parametrize("name", list(MODEL_SOURCES))
    @pytest.mark.parametrize("seed", [3, 4])
    def test_fold_matches_the_exact_table(self, name, seed):
        # Per setting pair, the folded (x, y, u, v) frequencies against the
        # four-party table of the dense route, within a Hoeffding radius at
        # failure 1e-9 per cell (fixed seeds); zero cells are never drawn.
        model, shots, _ = MODEL_SOURCES[name]
        n, nu, nv = model.n_settings, model.n_u, model.n_v
        p4 = induced_distribution(model).table.reshape(n * n, 4 * nu * nv)
        cells = np.zeros((n * n, 4 * nu * nv), dtype=np.int64)
        for block in simulate_shots(model, n, shots, seed=seed):
            a, b, x, y, u, v = block.T
            cell = ((x * 2 + y) * nu + u) * nv + v
            np.add.at(cells, (a * n + b, cell), 1)
        m = cells.sum(axis=1, keepdims=True)
        assert m.min() > 0
        radius = np.sqrt(math.log(2 / 1e-9) / (2.0 * m))
        assert (np.abs(cells / m - p4) <= radius).all()
        assert (cells[p4 == 0.0] == 0).all()

    @pytest.mark.parametrize("name", list(MODEL_SOURCES))
    def test_reference_chain_value_is_the_table_chain_value(self, name):
        model = MODEL_SOURCES[name][0]
        n = model.n_settings
        xy = induced_distribution(model).table.sum(axis=(6, 7))[:, :, 0, 0]
        dense = evaluate_chain(ConditionalDistribution((n, n), (2, 2), xy), n).value
        assert evaluate_chain(chain_table(model), n).value == pytest.approx(dense, abs=1e-14)


def shot_blocks(n):
    """Valid (k, 4) or (k, 6) int64 shot blocks for N settings."""
    return st.integers(0, 300).flatmap(lambda k: st.tuples(
        hnp.arrays(np.int64, (k, 2), elements=st.integers(0, n - 1)),
        hnp.arrays(np.int64, (k, 2), elements=st.integers(0, 1)),
        st.sampled_from([4, 6]),
    )).map(lambda parts: np.concatenate(
        [parts[0], parts[1], np.zeros((len(parts[0]), parts[2] - 4), dtype=np.int64)], axis=1
    ))


class TestFoldMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(shot_blocks(n), max_size=4),
        st.sampled_from(["C", "F", "strided", "int32", "uint16"]),
    )))
    def test_counts_match(self, case):
        n, blocks, layout = case
        if layout == "F":
            blocks = [np.asfortranarray(block) for block in blocks]
        elif layout == "strided":
            blocks = [block[::2] for block in blocks]
        elif layout != "C":
            blocks = [block.astype(layout) for block in blocks]
        counts, mism = _fold_counts(blocks, n)
        ref_counts, ref_mism = reference_fold(blocks, n)
        assert counts.dtype == np.int64 and mism.dtype == np.int64
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(mism, ref_mism)

    def test_empty_blocks_count_nothing(self):
        blocks = [np.empty((0, 4), dtype=np.int64), np.empty((0, 6), dtype=np.int32)]
        for got, ref in zip(_fold_counts(blocks, 3), reference_fold(blocks, 3)):
            assert np.array_equal(got, ref) and not got.any()

    @pytest.mark.parametrize(
        "column, bad",
        [(c, v) for c in (0, 1) for v in (-1, 4, 9)] + [(c, v) for c in (2, 3) for v in (-1, 2, 5)],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("both_kinds", [False, True], ids=["one_fault", "both_kinds"])
    def test_bad_value_in_each_column_gives_the_same_error(self, column, bad, dtype, both_kinds):
        block = np.array([[0, 1, 0, 1], [2, 3, 1, 1], [1, 0, 1, 0]], dtype=dtype)
        block[1, column] = bad
        if both_kinds:  # a fault of the other kind in a later row: settings are checked first
            block[2, 3 - column] = -1
        with pytest.raises(ValueError) as expected:
            reference_fold([block], 4)
        with pytest.raises(ValueError) as got:
            _fold_counts([block], 4)
        assert str(got.value) == str(expected.value)

    def test_uint16_bad_values_give_the_same_error(self):
        for column in range(4):
            block = np.array([[0, 1, 0, 1], [1, 1, 1, 1]], dtype=np.uint16)
            block[0, column] = 7
            with pytest.raises(ValueError) as expected:
                reference_fold([block], 3)
            with pytest.raises(ValueError) as got:
                _fold_counts([block], 3)
            assert str(got.value) == str(expected.value)


class TestNarrowIntegerBlocks:
    """Settings index arithmetic runs in int64 whatever the block's dtype."""

    def test_int8_block_keeps_the_last_pair(self):
        # 16 * 17 + 16 = 288 wraps to 32 = 1 * 17 + 15 in int8.
        block = np.tile(np.array([[16, 16, 0, 1]], dtype=np.int8), (5, 1))
        counts, mism = _fold_counts([block], 17)
        assert counts[16, 16] == 5 and counts.sum() == 5
        assert mism[16, 16] == 5 and mism.sum() == 5

    def test_int16_block_at_n_201(self):
        # 200 * 201 + 200 = 40 400 wraps negative in int16.
        block = np.array([[200, 200, 1, 1], [200, 199, 0, 1], [3, 4, 0, 0]], dtype=np.int16)
        counts, mism = _fold_counts([block], 201)
        assert counts[200, 200] == 1 and counts[200, 199] == 1 and counts[3, 4] == 1
        assert mism[200, 199] == 1 and mism.sum() == 1

    def test_uint64_beyond_int64_is_rejected(self, tmp_path):
        block = np.array([[0, 0, 0, 1], [2**64 - 1, 0, 0, 0]], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64"):
            _fold_counts([block], 2)
        with pytest.raises(ValueError, match="int64"):
            write_shots_csv([block], tmp_path / "shots.csv")
        ok = np.array([[1, 0, 0, 1]], dtype=np.uint64)
        assert _fold_counts([ok], 2)[0][1, 0] == 1

    def test_narrow_blocks_write_the_same_csv(self, tmp_path):
        block = np.array([[1, 2, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
        write_shots_csv([block], tmp_path / "wide.csv")
        write_shots_csv([block.astype(np.uint8)], tmp_path / "narrow.csv")
        assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "narrow.csv").read_bytes()
