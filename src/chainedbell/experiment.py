"""Finite-statistics front end: draw the counts of a simulated run, stream
them as shots, estimate the chain value with an upper confidence bound,
and derive the locality cap.

Shots travel between stages as blocks: int64 arrays of shape ``(k, 4)`` or
``(k, 6)`` whose columns are ``a, b, x, y`` (settings, then outcome bits)
plus ``u, v`` (hidden-variable indices) for a model source, in the order
of the shot CSV header.  The CSV writer formats each distinct row of a
block once when the block's key space is small, else row by row."""

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
    "estimate_chain_value",
    "estimate_from_counts",
    "max_locality_bound",
    "write_shots_csv",
    "read_shots_csv",
]


_COLUMNS = ("a", "b", "x", "y", "u", "v")
# Rows per shot block, streamed and read back alike.
_CHUNK_ROWS = 65536
# Lines per CSV write on either route, so that no string written at once
# outgrows a few thousand lines.
_WRITE_ROWS = 4096
_ROWS_PER_KEY = 4  # fewest rows per key for the distinct-row route
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


def _check_run(table: ConditionalDistribution, n: int, shots: int) -> None:
    """Reject a run of no shots, or of a table that is not two-party binary
    with ``n`` settings per side."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if table.input_sizes != (n, n) or table.output_sizes != (2, 2):
        raise ValueError("expected a two-party binary table with n settings per side")


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


def sample_counts(
    table: ConditionalDistribution, n: int, shots: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair shot and mismatch counts, each of shape (n, n), of
    ``shots`` shots of a two-party binary table with uniform settings.

    These are the counts that :func:`simulate_shots` streams from the same
    seed, for this table or for a model whose :func:`chain_table` it is;
    drawn as counts, they cost O(N²) whatever the shot count.
    """
    _check_run(table, n, shots)
    return _pair_totals(_draw_cells(np.random.default_rng(seed), table, shots), n)


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


def _hidden_pair(rng, model: HiddenVariableModel, a, b, x, y) -> list[np.ndarray]:
    """Each row's hidden pair (u, v), drawn from P(u, v | a, b, x, y).

    A table does not depend on the hidden pair, so its posterior is the
    prior: one cumulative table per side.  Per-side responses A (Alice's)
    and B (Bob's) under product weights give u from p_u·A[a, :, x] and v
    from p_v·B[b, :, y]; under joint weights u comes from
    A[a, :, x]·(p_uv @ B[b, :, y]), then v from p_uv[u, :]·B[b, :, y].
    """
    if model.table is not None:
        return [_inverse_cdf(np.cumsum(w), rng.random(len(a))) for w in (model.p_u, model.p_v)]
    alice, bob = model.alice, model.bob
    if model.p_uv is None:
        return [
            _grouped_draws(rng, a * 2 + x, lambda g: model.p_u * alice[g >> 1, :, g & 1]),
            _grouped_draws(rng, b * 2 + y, lambda g: model.p_v * bob[g >> 1, :, g & 1]),
        ]
    n, n_u, p_uv = model.n_settings, model.n_u, model.p_uv
    bob_side = bob.transpose(0, 2, 1) @ p_uv.T  # p_uv @ B[b, :, y], (N, 2, n_u)

    def u_weights(g):
        pair, xy = divmod(g, 4)
        return alice[pair // n, :, xy >> 1] * bob_side[pair % n, xy & 1]

    def v_weights(g):
        side, u = divmod(g, n_u)
        return p_uv[u] * bob[side >> 1, :, side & 1]

    u = _grouped_draws(rng, ((a * n + b) * 2 + x) * 2 + y, u_weights)
    return [u, _grouped_draws(rng, (b * 2 + y) * n_u + u, v_weights)]


def _block(rng, cells: np.ndarray, n: int, model) -> np.ndarray:
    """One shot block from the cell index of each of its rows, which it
    shuffles in place; in a call of its own, so that none of its arrays
    outlives the block."""
    rng.shuffle(cells)
    pair = cells >> 2
    a = pair // n
    cols = [a, pair - a * n, (cells >> 1) & 1, cells & 1]
    if model is not None:
        cols += _hidden_pair(rng, model, *cols)
    block = np.empty((len(cells), len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        block[:, j] = col
    return block


def simulate_shots(source, n: int, shots: int, seed: int) -> Iterator[np.ndarray]:
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
    model = source if isinstance(source, HiddenVariableModel) else None
    if model is not None:
        if model.n_settings != n:
            raise ValueError(f"the model has {model.n_settings} settings per side, not {n}")
        table = chain_table(model)
    elif isinstance(source, ConditionalDistribution):
        table = source
    else:
        raise TypeError("source must be a two-party table or a hidden-variable model")
    _check_run(table, n, shots)
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
        yield _block(rng, np.repeat(cells, part), n, model)


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


def estimate_from_counts(
    counts, mismatches, n: int, confidence: float
) -> EstimateReport:
    """Estimator core over per-pair totals.

    ``counts[a, b]`` trials were observed for the pair, ``mismatches[a, b]``
    of them with unequal outcomes.  The point estimate sums the 2N term
    frequencies; the upper bound adds one two-sided Hoeffding radius per
    term with the failure budget split evenly across terms, so it holds
    with probability at least ``confidence``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    counts = np.asarray(counts, dtype=float)
    mismatches = np.asarray(mismatches, dtype=float)
    pairs = chain_pairs(n)
    alpha = 1.0 - confidence
    log_term = math.log(2.0 * len(pairs) / alpha)
    freqs = []
    radii = []
    per_pair = []
    for a, b, kind in pairs:
        m = float(counts[a][b])
        if m < 1.0:
            raise MissingSettingPairError(
                f"setting pair ({a}, {b}) was never sampled"
            )
        frac = float(mismatches[a][b]) / m
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
    return estimate_from_counts(counts, mism, n, confidence)


def max_locality_bound(report: EstimateReport) -> float:
    """Certified cap on any hidden-variable model's local part: half the
    chain-value upper bound."""
    return 0.5 * report.upper_bound


def write_shots_csv(blocks: Iterable[np.ndarray], path: str | Path) -> int:
    """Stream shot blocks to CSV: integer columns ``a,b,x,y``, plus ``u,v``
    when the blocks carry them, and CRLF line ends.  Returns the row
    count."""
    it = map(_check_block, blocks)
    first = next(it, None)
    if first is None:
        raise ValueError("no records to write")
    width = first.shape[1]
    row = ",".join(["%d"] * width) + "\r\n"
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_COLUMNS[:width]) + "\r\n")
        for block in itertools.chain([first], it):
            if block.shape[1] != width:
                raise ValueError("shot blocks of one stream must share their columns")
            fh.writelines(_block_text(block, row))
            rows += len(block)
    return rows


def _block_text(block: np.ndarray, row: str) -> Iterator[str]:
    """The CSV lines of a checked block, at most ``_WRITE_ROWS`` per string.
    If the key space (the product of the column ranges) is at most a
    quarter of the rows, the rows that occur, found by a mixed-radix key
    that cannot wrap in int64, are formatted once and gathered by key;
    other blocks (empty, short or wide) row by row, to the same text."""
    lows = [int(col.min()) for col in block.T] if len(block) else []
    spans = [int(col.max()) - lo + 1 for lo, col in zip(lows, block.T)]
    space = math.prod(spans)
    cuts = range(_WRITE_ROWS, len(block), _WRITE_ROWS)
    if space * _ROWS_PER_KEY > len(block):
        for part in np.split(block, cuts):
            yield row * len(part) % tuple(part.ravel().tolist())
        return
    key = np.zeros(len(block), dtype=np.int64)
    for lo, span, col in zip(lows, spans, block.T):
        key *= span
        key += col - lo
    present = np.flatnonzero(np.bincount(key, minlength=space))
    distinct = np.stack(np.unravel_index(present, spans), axis=1) + lows
    lines = np.empty(space, dtype=object)
    lines[present] = (row * len(present) % tuple(distinct.ravel().tolist())).splitlines(True)
    for part in np.split(key, cuts):
        yield "".join(lines[part].tolist())


def read_shots_csv(path: str | Path) -> Iterator[np.ndarray]:
    """Stream shot blocks back from a CSV written by :func:`write_shots_csv`,
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
