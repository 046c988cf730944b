"""Finite-statistics front end: draw the counts of a simulated run, stream
them as shots, and estimate the chain value with an upper confidence
bound, whose :func:`~chainedbell.hvm.locality_cap` is the certified cap.
N is read from the table, model or counts given; blocks do not carry it.

Shots travel between stages as blocks: int64 arrays of shape ``(k, 4)`` or
``(k, 6)`` whose columns are ``a, b, x, y`` (settings, then outcome bits)
plus ``u, v`` (hidden-variable indices) for a model source, in the order
of the shot CSV header.  Underneath, one generator draws every stream:
each block's shuffled cells ``((a*N + b)*2 + x)*2 + y`` and, for a model,
its hidden pair.  :func:`simulate_shots` builds blocks from those draws;
:func:`simulate_shots_csv` writes a stream's rows as CSV, formatting each
cell (with its hidden pair) once per stream while its key space is small,
and row by row from :func:`simulate_shots`'s blocks when it is wide."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .chained import chain_pairs
from .distributions import ConditionalDistribution
from .hvm import HiddenVariableModel, chain_table

__all__ = [
    "MissingSettingPairError",
    "EstimateReport",
    "sample_counts",
    "simulate_shots",
    "simulate_shots_csv",
    "estimate_chain_value",
    "estimate_from_counts",
    "read_shots_csv",
]


_COLUMNS = ("a", "b", "x", "y", "u", "v")
# Rows per shot block, streamed and read back alike.
_CHUNK_ROWS = 65536
# Lines per CSV write, so that no string written at once outgrows a few
# thousand lines.
_WRITE_ROWS = 4096
# Widest key space, in full blocks, for which simulate_shots_csv keeps one
# line per key for the whole stream: 4N² cells of qm tables up to N = 256.
_KEY_SPACE_BLOCKS = 4
# NumPy's multivariate hypergeometric draw takes fewer than 1e9 items in
# all.  A block's rows are far fewer, so the thinned population a block
# is drawn from (see _without_replacement) stays below that.
_HYPERGEOMETRIC_ITEMS = 10**9


class MissingSettingPairError(RuntimeError):
    """A chain-relevant setting pair never occurred in the shot stream."""


@dataclass(frozen=True)
class EstimateReport:
    """Chain-value estimate from finite statistics.

    ``upper_bound`` exceeds the true chain value with probability at least
    ``confidence_level``; ``shots_per_pair`` is the smallest sample count
    among the 2N chain-relevant setting pairs.
    """

    n_settings: int
    point_estimate: float
    upper_bound: float
    confidence_level: float
    shots_per_pair: int
    method: str = "hoeffding-union"


def _inverse_cdf(cdf: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Outcome index for each uniform draw ``r`` against one cumulative
    table ``cdf`` shared by every draw: the number of entries at or below
    the draw, capped at the last outcome (rounding can leave the final
    cumulative value just under 1)."""
    return np.minimum(np.searchsorted(cdf, r, side="right"), len(cdf) - 1)


def _check_run(table: ConditionalDistribution, shots: int) -> None:
    """Reject a run of no shots, or of a table that is not two-party binary
    with N settings per side."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = table.input_sizes[0]
    if table.input_sizes != (n, n) or table.output_sizes != (2, 2):
        raise ValueError("expected a two-party binary table with N settings per side")


def _draw_cells(rng, table: ConditionalDistribution, shots: int) -> np.ndarray:
    """Counts of the 4N² cells ``((a*N + b)*2 + x)*2 + y`` of ``shots``
    shots with uniform settings, flat: the setting-pair counts as one
    multinomial, then every pair's (x, y) counts as one multinomial over
    its table row, all pairs in one broadcast call."""
    pairs = table.input_sizes[0] ** 2
    per_pair = rng.multinomial(shots, np.full(pairs, 1.0 / pairs))
    return rng.multinomial(per_pair, table.table.reshape(pairs, 4)).ravel()


def _pair_totals(cells: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair shot and mismatch counts, each (n, n), of flat cell counts."""
    by_pair = cells.reshape(n, n, 4)
    c00, c01, c10, c11 = (by_pair[..., j] for j in range(4))
    return ((c00 + c01) + c10) + c11, c01 + c10


def sample_counts(table: ConditionalDistribution, shots: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair shot and mismatch counts, each of shape (N, N), of
    ``shots`` shots of a two-party binary table with uniform settings.

    These are the counts that :func:`simulate_shots` streams from the same
    seed, for this table or for a model whose :func:`chain_table` it is;
    drawn as counts, they cost O(N²) whatever the shot count.
    """
    _check_run(table, shots)
    cells = _draw_cells(np.random.default_rng(seed), table, shots)
    return _pair_totals(cells, table.input_sizes[0])


def _without_replacement(rng, counts: np.ndarray, total: int, k: int) -> np.ndarray:
    """How many of ``k`` items drawn without replacement from ``counts``
    (``total`` items in all) fall in each cell.

    NumPy draws this directly below 1e9 items.  Above, every item gets an
    independent uniform key, and the items whose key lies below a
    threshold are counted cell by cell, each count binomial.  Given their
    number, they are a uniformly random subset of the items, so once they
    are at least ``k`` and fewer than 1e9, ``k`` of them drawn without
    replacement are a uniformly random ``k``-subset of all the items: the
    same law.  The threshold puts k + 8·sqrt(k) + 8 items below it on
    average, so a try rarely falls short; one that does is drawn again."""
    if total < _HYPERGEOMETRIC_ITEMS:
        return rng.multivariate_hypergeometric(counts, k)
    threshold = (k + 8.0 * math.sqrt(k) + 8.0) / total
    while True:
        below = rng.binomial(counts, threshold)
        if k <= below.sum() < _HYPERGEOMETRIC_ITEMS:
            return rng.multivariate_hypergeometric(below, k)


def _grouped_draws(rng, key: np.ndarray, weights_of) -> np.ndarray:
    """One index per row, drawn from the weights ``weights_of(g)`` of the
    row's group ``g = key[row]``.  One uniform per row is drawn at once;
    group by group, in increasing ``g``, the group's rows (in row order)
    read the next uniforms against the group's one cumulative table."""
    # A stable sort of keys of 16 bits or fewer is a radix sort.
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max()))), kind="stable")
    grouped = key[order]
    r = rng.random(len(key))
    out = np.empty(len(key), dtype=np.int64)
    edges = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
    for start, stop in zip([0, *edges], [*edges, len(key)]):
        cdf = np.cumsum(weights_of(int(grouped[start])))
        cdf /= cdf[-1]
        out[order[start:stop]] = _inverse_cdf(cdf, r[start:stop])
    return out


def _cell_rows(n: int) -> np.ndarray:
    """The (a, b, x, y) row of each of the 4N² cells ``((a*N + b)*2 + x)*2 + y``,
    as a C-ordered int64 (4N², 4) table."""
    return np.indices((n, n, 2, 2), dtype=np.int64).reshape(4, -1).T.copy()


def _hidden_pair(rng, model: HiddenVariableModel, cells: np.ndarray) -> list[np.ndarray]:
    """Each row's hidden pair (u, v), drawn from P(u, v | a, b, x, y) given
    the row's cell 4*(a*N + b) + 2*x + y, read as the side keys Alice's
    ``a*2 + x`` and Bob's ``b*2 + y``.

    A table does not depend on the hidden pair, so its posterior is the
    prior: one cumulative table per side.  Per-side responses A (Alice's)
    and B (Bob's) under product weights give u from p_u·A[a, :, x] and v
    from p_v·B[b, :, y]; under joint weights u comes from
    A[a, :, x]·(p_uv @ B[b, :, y]), then v from p_uv[u, :]·B[b, :, y].
    """
    if model.table is not None:
        return [_inverse_cdf(np.cumsum(w), rng.random(len(cells))) for w in (model.p_u, model.p_v)]
    alice, bob = model.alice, model.bob
    n4 = 4 * model.n_settings
    bob_key = cells % n4 // 4 * 2 + (cells & 1)
    if model.p_uv is None:
        return [
            _grouped_draws(rng, cells // n4 * 2 + (cells >> 1 & 1),
                           lambda g: model.p_u * alice[g >> 1, :, g & 1]),
            _grouped_draws(rng, bob_key, lambda g: model.p_v * bob[g >> 1, :, g & 1]),
        ]
    n, n_u, p_uv = model.n_settings, model.n_u, model.p_uv
    bob_side = bob.transpose(0, 2, 1) @ p_uv.T  # p_uv @ B[b, :, y], (N, 2, n_u)

    def u_weights(g):
        pair, xy = divmod(g, 4)
        return alice[pair // n, :, xy >> 1] * bob_side[pair % n, xy & 1]

    def v_weights(g):
        side, u = divmod(g, n_u)
        return p_uv[u] * bob[side >> 1, :, side & 1]

    u = _grouped_draws(rng, cells, u_weights)
    return [u, _grouped_draws(rng, bob_key * n_u + u, v_weights)]


def _stream_source(source, shots: int) -> tuple[HiddenVariableModel | None,
                                                ConditionalDistribution]:
    """The model (None for a table) and the outcome table of a shot run,
    after the run's checks."""
    model = source if isinstance(source, HiddenVariableModel) else None
    table = source if model is None else chain_table(model)
    if not isinstance(table, ConditionalDistribution):
        raise TypeError("source must be a two-party table or a hidden-variable model")
    _check_run(table, shots)
    return model, table


def _draws(model, table: ConditionalDistribution, shots: int,
           seed: int) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """The draws of a checked run, block by block: each block's cells in
    shuffled order, and for a model its rows' hidden pair (u, v), else no
    column.  The only user of the stream's random generator."""
    rng = np.random.default_rng(seed)
    remaining = _draw_cells(rng, table, shots)
    cells = np.arange(remaining.size)
    left = shots
    while left:
        k = min(_CHUNK_ROWS, left)
        if k < left:
            part = _without_replacement(rng, remaining, left, k)
            remaining -= part
        else:
            part = remaining
        left -= k
        drawn = np.repeat(cells, part)
        rng.shuffle(drawn)
        yield drawn, ([] if model is None else _hidden_pair(rng, model, drawn))


def simulate_shots(source, shots: int, seed: int) -> Iterator[np.ndarray]:
    """Generate a reproducible stream of shot blocks, at most 65 536 shots
    each (``_CHUNK_ROWS``), with settings drawn uniformly and independently
    per shot.

    The source is a two-party binary table or a
    :class:`HiddenVariableModel`, whose :func:`chain_table` gives the
    outcomes.  The counts of every cell (a, b, x, y) are drawn first, as
    :func:`sample_counts` draws them from the same seed.  Each block's
    make-up is then drawn without replacement from the counts not yet
    streamed, and its rows are put in a uniformly random order: counts
    drawn as a multinomial, in a uniformly random order, have the law of
    independent shots.  A model then draws each row's hidden pair, the
    columns ``u, v``, from its posterior given the row's settings and
    outcomes (:func:`_hidden_pair`), which restores the joint law of
    (a, b, x, y, u, v).  The same seed yields the same stream; memory
    grows with the block, not with the shot count.
    """
    model, table = _stream_source(source, shots)
    rows = _cell_rows(table.input_sizes[0])
    for cells, hidden in _draws(model, table, shots, seed):
        block = rows.take(cells, axis=0)
        yield np.column_stack([block, *hidden]) if hidden else block


def _check_block(block) -> np.ndarray:
    """The block as an int64 array with the 4 or 6 shot columns.  Narrower
    integer blocks are widened, so that index arithmetic on them cannot
    wrap; a uint64 entry beyond the int64 range raises ``ValueError``."""
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] not in (4, 6) \
            or not np.issubdtype(block.dtype, np.integer):
        raise ValueError(
            "a shot block must be an integer array of shape (k, 4) or (k, 6), "
            f"got {block.dtype} {block.shape}"
        )
    if not np.can_cast(block.dtype, np.int64) and len(block) \
            and block.max() > np.iinfo(np.int64).max:
        raise ValueError("shot block entries must fit in int64")
    return block.astype(np.int64, copy=False)


def estimate_from_counts(counts, mismatches, confidence: float) -> EstimateReport:
    """Estimator core over per-pair totals.

    ``counts[a, b]`` trials were observed for the pair, ``mismatches[a, b]``
    of them with unequal outcomes; both are (N, N), and other shapes raise
    ``ValueError``.  The point estimate sums the 2N term
    frequencies; the upper bound adds one two-sided Hoeffding radius per
    term with the failure budget split evenly across terms, so it holds
    with probability at least ``confidence``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    counts, mismatches = np.asarray(counts), np.asarray(mismatches)
    n = counts.shape[0] if counts.ndim else 0
    if counts.shape != (n, n) or mismatches.shape != (n, n):
        raise ValueError("counts and mismatches must be (N, N) arrays, "
                         f"got {counts.shape} and {mismatches.shape}")
    pairs = chain_pairs(n)
    alpha = 1.0 - confidence
    log_term = math.log(2.0 * len(pairs) / alpha)
    freqs = []
    radii = []
    per_pair = []
    for a, b, kind in pairs:
        m = float(counts[a, b])
        if m < 1.0:
            raise MissingSettingPairError(
                f"setting pair ({a}, {b}) was never sampled"
            )
        frac = float(mismatches[a, b]) / m
        freqs.append(frac if kind == "differ" else 1.0 - frac)
        radii.append(math.sqrt(log_term / (2.0 * m)))
        per_pair.append(m)
    point = math.fsum(freqs)
    upper = point + math.fsum(radii)
    return EstimateReport(n, point, upper, confidence, int(min(per_pair)))


def _fold_counts(blocks: Iterable[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair shot and mismatch counts, each of shape (n, n), of a block
    stream.  Raises ``ValueError`` for a setting outside ``[0, n)`` or an
    outcome outside ``{0, 1}``.

    One ``bincount`` per block counts the 4n² cells
    ``((a*n + b)*2 + x)*2 + y``; every check and index reads whole columns,
    with no reduction along the short column axis (NumPy would run it one
    4-wide row at a time)."""
    cells = np.zeros(4 * n * n, dtype=np.int64)
    for block in blocks:
        block = _check_block(block)
        if not len(block):
            continue
        a, b, x, y = (block[:, j] for j in range(4))
        if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n:
            raise ValueError(f"shot setting outside [0, {n})")
        if min(x.min(), y.min()) < 0 or max(x.max(), y.max()) > 1:
            raise ValueError("shot outcome outside {0, 1}")
        cells += np.bincount(((a * n + b) * 2 + x) * 2 + y, minlength=cells.size)
    return _pair_totals(cells, n)


def estimate_chain_value(
    blocks: Iterable[np.ndarray], n: int, confidence: float
) -> EstimateReport:
    """Fold a stream of shot blocks into per-pair counts and estimate the
    chain value; single pass, constant memory per setting pair.  A setting
    outside ``[0, n)`` or an outcome outside ``{0, 1}`` raises
    ``ValueError``."""
    counts, mism = _fold_counts(blocks, n)
    return estimate_from_counts(counts, mism, confidence)


def simulate_shots_csv(source, shots: int, seed: int, path: str | Path) -> int:
    """Write the stream that ``simulate_shots(source, shots, seed)``
    yields to CSV: integer columns ``a,b,x,y``, plus ``u,v`` for a model,
    and CRLF line ends.  Returns the row count, ``shots``.

    Each row is keyed by its cell ``((a*N + b)*2 + x)*2 + y``, or for a
    model by ``(cell*n_u + u)*n_v + v``.  While that key space is at most
    ``_KEY_SPACE_BLOCKS`` full blocks (every qm table up to N = 256), a
    key's line is formatted once per stream, when it first occurs, and
    each block is gathered by key, without being built.  A wider stream (a
    model with large hidden alphabets) writes the blocks of
    ``simulate_shots(source, shots, seed)`` row by row.  Either way at
    most ``_WRITE_ROWS`` lines go out per write."""
    model, table = _stream_source(source, shots)
    n = table.input_sizes[0]
    sizes = (4 * n * n,) if model is None else (4 * n * n, model.n_u, model.n_v)
    space = math.prod(sizes)
    width = 4 if model is None else 6
    row = ",".join(["%d"] * width) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_COLUMNS[:width]) + "\r\n")
        if space > _KEY_SPACE_BLOCKS * _CHUNK_ROWS:
            for block in simulate_shots(source, shots, seed):
                for start in range(0, len(block), _WRITE_ROWS):
                    part = block[start:start + _WRITE_ROWS]
                    fh.write(row * len(part) % tuple(part.ravel().tolist()))
            return shots
        rows = _cell_rows(n)
        lines = np.empty(space, dtype=object)
        seen = np.zeros(space, dtype=bool)
        for cells, hidden in _draws(model, table, shots, seed):
            key = cells
            for size, col in zip(sizes[1:], hidden):
                key = key * size + col
            occur = np.zeros(space, dtype=bool)
            occur[key] = True
            new = np.flatnonzero(occur & ~seen)
            seen |= occur
            cell, *pair = np.unravel_index(new, sizes)
            values = np.column_stack([rows[cell], *pair])
            lines[new] = (row * len(new) % tuple(values.ravel().tolist())).splitlines(True)
            for start in range(0, len(key), _WRITE_ROWS):
                fh.write("".join(lines[key[start:start + _WRITE_ROWS]].tolist()))
    return shots


def read_shots_csv(path: str | Path) -> Iterator[np.ndarray]:
    """Stream shot blocks back from a CSV written by
    :func:`simulate_shots_csv` (or any CSV of its header and integer rows),
    at most 65 536 rows at a time.  Empty lines are skipped; a malformed
    row raises ``ValueError``."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) not in (_COLUMNS[:4], _COLUMNS):
            raise ValueError(f"unexpected shot CSV header: {header}")
        # Each block starts at a row the loop takes, so that loadtxt never
        # sees input without data (it would warn); loadtxt reads at most
        # the next _CHUNK_ROWS - 1 lines, skipping empty ones.
        for first in fh:
            if not first.strip("\r\n"):
                continue
            block = np.loadtxt(
                itertools.chain([first], itertools.islice(fh, _CHUNK_ROWS - 1)),
                dtype=np.int64, delimiter=",", comments=None, ndmin=2,
            )
            if block.shape[1] != len(header):
                raise ValueError(
                    f"shot CSV rows must have {len(header)} columns, got {block.shape[1]}"
                )
            yield block
