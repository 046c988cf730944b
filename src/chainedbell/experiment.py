"""Finite-statistics front end: simulate shots, estimate the chain value
with an upper confidence bound, and derive the locality cap.

Shots travel between stages as blocks: int64 arrays of shape ``(k, 4)`` or
``(k, 6)`` whose columns are ``a, b, x, y`` (settings, then outcome bits)
plus ``u, v`` (hidden-variable indices) for a model source, in the order
of the shot CSV header."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .chained import chain_pairs
from .distributions import ConditionalDistribution
from .hvm import HiddenVariableModel

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


def _inverse_cdf(cdf: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Outcome index for each uniform draw ``r``: the first outcome whose
    cumulative probability exceeds it, or the last outcome when none does
    (rounding can leave the final cumulative value just under 1).

    ``cdf`` is either one cumulative table of shape (m,) shared by every
    draw, searched with ``searchsorted``, or one row per draw, shape
    (k, m), searched by ``argmax`` over the row's ``cdf > r`` flags with
    the last flag forced true.  A cumulative table never decreases, so both
    equal the number of entries at or below ``r``, capped at m - 1."""
    if cdf.ndim == 1:
        return np.minimum(np.searchsorted(cdf, r, side="right"), cdf.shape[-1] - 1)
    hit = cdf > r[:, None]
    hit[:, -1] = True
    return hit.argmax(axis=1)


def simulate_shots(
    source,
    n: int,
    shots: int,
    seed: int,
    chunk: int = _CHUNK_ROWS,
) -> Iterator[np.ndarray]:
    """Generate a reproducible stream of shot blocks, at most ``chunk``
    shots each, with settings drawn uniformly and independently per shot.

    A two-party binary table gives both outcomes from its row.  A
    :class:`HiddenVariableModel` first draws the hidden pair (u, v), the
    columns ``u, v``, from the cumulative weights of each side or of
    ``p_uv``; an outcome of a per-side response is then 1 exactly when its
    uniform draw reaches P(0 | setting, hidden value), and a model table
    gives both outcomes from its row.  The same seed yields the same stream.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    model = source if isinstance(source, HiddenVariableModel) else None
    if model is not None:
        if model.n_settings != n:
            raise ValueError(f"the model has {model.n_settings} settings per side, not {n}")
        table = model.table
        # One cumulative table per side, or one over p_uv (flat u * n_v + v).
        cdfs = [np.cumsum(w) for w in ((model.p_u, model.p_v) if model.p_uv is None
                                       else (model.p_uv,))]
    elif isinstance(source, ConditionalDistribution):
        if source.input_sizes != (n, n) or source.output_sizes != (2, 2):
            raise ValueError("expected a two-party binary table with n settings per side")
        table = source.table
    else:
        raise TypeError("source must be a two-party table or a hidden-variable model")
    rows = None if table is None else table.reshape(n * n, 4).cumsum(axis=1)

    def draw(rng, k: int) -> np.ndarray:
        """One block of ``k`` shots, in a call of its own, so that none of
        its arrays outlives the block."""
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        cols = [a, b]
        if model is not None:
            hidden = [_inverse_cdf(cdf, rng.random(k)) for cdf in cdfs]
            u, v = hidden if len(hidden) == 2 else np.divmod(hidden[0], model.n_v)
        if rows is None:
            cols += [rng.random(k) >= model.alice[a, u, 0], rng.random(k) >= model.bob[b, v, 0]]
        else:
            idx = _inverse_cdf(rows.take(a * n + b, axis=0), rng.random(k))
            cols += [idx >> 1, idx & 1]
        if model is not None:
            cols += [u, v]
        block = np.empty((k, len(cols)), dtype=np.int64)
        for j, col in enumerate(cols):
            block[:, j] = col
        return block

    rng = np.random.default_rng(seed)
    remaining = shots
    while remaining > 0:
        k = min(chunk, remaining)
        remaining -= k
        yield draw(rng, k)


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
