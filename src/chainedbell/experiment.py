"""Finite-statistics front end: simulate shots, estimate the chain value
with an upper confidence bound, and derive the locality cap.

Shots travel between stages as blocks: int64 arrays of shape ``(k, 4)`` or
``(k, 6)`` whose columns are ``a, b, x, y`` (settings, then outcome bits)
plus ``u, v`` (hidden-variable indices) for a model's induced table, in the
order of the shot CSV header."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .chained import chain_pairs
from .distributions import ConditionalDistribution
from .hvm import _inverse_cdf

__all__ = [
    "MissingSettingPairError",
    "EstimateReport",
    "simulate_shots",
    "estimate_chain_value",
    "estimate_from_counts",
    "max_locality_bound",
    "write_shots_csv",
    "read_shots_csv",
]


_COLUMNS = ("a", "b", "x", "y", "u", "v")
_CHUNK_ROWS = 65536
_WRITE_ROWS = 4096


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


def _source_cdfs(source: ConditionalDistribution, n: int):
    """Per-setting-pair cumulative outcome tables plus decode shape: the
    outcomes ``(x, y)`` of a two-party binary table, or ``(x, y, u, v)`` of
    a model's four-party induced table."""
    if not isinstance(source, ConditionalDistribution):
        raise TypeError("source must be a conditional table")
    shape = source.output_sizes
    if source.input_sizes not in ((n, n), (n, n, 1, 1)) or shape[:2] != (2, 2) \
            or len(shape) != len(source.input_sizes):
        raise ValueError(
            "expected a two-party binary table or a four-party induced table "
            "with n settings per side"
        )
    return source.table.reshape(n, n, -1).cumsum(axis=-1), shape


def simulate_shots(
    source,
    n: int,
    shots: int,
    seed: int,
    chunk: int = _CHUNK_ROWS,
) -> Iterator[np.ndarray]:
    """Generate a reproducible stream of shot blocks.

    Settings are drawn uniformly and independently for each shot; outcomes
    follow the source table.  A model enters as its induced table
    (``induced_distribution(model)``), whose hidden outputs become the
    columns ``u, v``.  Each block holds at most ``chunk`` shots (fewer when
    the outcome alphabet is large).  The same seed always yields the same
    stream.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    cdfs, shape = _source_cdfs(source, n)
    m = cdfs.shape[-1]
    rows = cdfs.reshape(n * n, m)
    chunk = max(1, min(chunk, max(1, 4_000_000 // m)))
    rng = np.random.default_rng(seed)
    remaining = shots
    while remaining > 0:
        k = min(chunk, remaining)
        remaining -= k
        yield _draw_block(rng, rows, n, k, shape)


def _draw_block(rng, rows: np.ndarray, n: int, k: int, shape: tuple) -> np.ndarray:
    """One block of ``k`` shots: settings, then outcome indices drawn
    from ``rows[a*n + b]`` (cumulative tables over ``shape``).  A function
    of its own, so that none of its arrays outlives the block it returns."""
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n, size=k)
    r = rng.random(k)
    idx = _inverse_cdf(rows.take(a * n + b, axis=0), r)
    # Allocated after the search, so that it never coexists with the
    # gathered (k, m) rows.
    block = np.empty((k, 2 + len(shape)), dtype=np.int64)
    block[:, 0] = a
    block[:, 1] = b
    for j, col in enumerate(np.unravel_index(idx, shape), start=2):
        block[:, j] = col
    return block


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
    by_pair = cells.reshape(n, n, 4)
    c00, c01, c10, c11 = (by_pair[..., j] for j in range(4))
    return ((c00 + c01) + c10) + c11, c01 + c10


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
    it = iter(blocks)
    first = next(it, None)
    if first is None:
        raise ValueError("no records to write")
    width = _check_block(first).shape[1]
    row = ",".join(["%d"] * width) + "\r\n"
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_COLUMNS[:width]) + "\r\n")
        for block in itertools.chain([first], it):
            block = _check_block(block)
            if block.shape[1] != width:
                raise ValueError("shot blocks of one stream must share their columns")
            # Format a few thousand rows per write to bound the transient
            # strings and tuples.
            for start in range(0, len(block), _WRITE_ROWS):
                part = block[start:start + _WRITE_ROWS]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))
            rows += len(block)
    return rows


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
