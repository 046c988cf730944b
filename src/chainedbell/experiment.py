"""Finite-statistics front end: simulate shots, estimate the chain value
with an upper confidence bound, and derive the locality cap.

Shots travel between stages as blocks: int64 arrays of shape ``(k, 4)`` or
``(k, 6)`` whose columns are ``a, b, x, y`` (settings, then outcome bits)
plus ``u, v`` (hidden-variable indices) for simulated models, in the order
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
from .hvm import HiddenVariableModel, _inverse_cdf

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

    def to_dict(self) -> dict:
        return {
            "n_settings": self.n_settings,
            "point_estimate": self.point_estimate,
            "upper_bound": self.upper_bound,
            "confidence_level": self.confidence_level,
            "shots_per_pair": self.shots_per_pair,
            "method": self.method,
        }


def _source_cdfs(source, n: int):
    """Per-setting-pair cumulative outcome tables plus decode shape."""
    if isinstance(source, HiddenVariableModel):
        if source.n_settings != n:
            raise ValueError("model chain length does not match n")
        joint = np.einsum("uv,abuvxy->abxyuv", source.p_uv, source.kernels)
        shape = joint.shape[2:]
        flat = joint.reshape(n, n, -1)
        return flat.cumsum(axis=-1), shape
    if isinstance(source, ConditionalDistribution):
        if source.input_sizes != (n, n) or source.output_sizes != (2, 2):
            raise ValueError(
                "expected a two-party binary table with n settings per side"
            )
        flat = source.table.reshape(n, n, 4)
        return flat.cumsum(axis=-1), (2, 2)
    raise TypeError("source must be a conditional table or a hidden-variable model")


def simulate_shots(
    source,
    n: int,
    shots: int,
    seed: int,
    chunk: int = _CHUNK_ROWS,
) -> Iterator[np.ndarray]:
    """Generate a reproducible stream of shot blocks.

    Settings are drawn uniformly and independently for each shot; outcomes
    follow the source table.  A model source adds the hidden-variable
    columns ``u, v``.  Each block holds at most ``chunk`` shots (fewer when
    the outcome alphabet is large).  The same seed always yields the same
    stream.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    cdfs, shape = _source_cdfs(source, n)
    m = cdfs.shape[-1]
    chunk = max(1, min(chunk, max(1, 4_000_000 // m)))
    rng = np.random.default_rng(seed)
    remaining = shots
    while remaining > 0:
        k = min(chunk, remaining)
        remaining -= k
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        r = rng.random(k)
        idx = _inverse_cdf(cdfs[a, b], r)
        yield np.column_stack((a, b, *np.unravel_index(idx, shape)))


def _check_block(block) -> np.ndarray:
    """The block as an integer array with the 4 or 6 shot columns."""
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] not in (4, 6) \
            or not np.issubdtype(block.dtype, np.integer):
        raise ValueError(
            "a shot block must be an integer array of shape (k, 4) or (k, 6), "
            f"got {block.dtype} {block.shape}"
        )
    return block


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
    outcome outside ``{0, 1}``."""
    cells = n * n
    counts = np.zeros(cells, dtype=np.int64)
    mism = np.zeros(cells, dtype=np.int64)
    for block in blocks:
        block = _check_block(block)
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
    at most 65 536 rows at a time.  A malformed row raises ``ValueError``."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) not in (_COLUMNS[:4], _COLUMNS):
            raise ValueError(f"unexpected shot CSV header: {header}")
        # Each block starts at the line the loop takes; loadtxt reads the
        # rest of the block from the handle, line by line.  Calling loadtxt
        # only when a line is left avoids its warning on empty input.
        for first in fh:
            block = np.loadtxt(
                itertools.chain([first], fh), dtype=np.int64, delimiter=",",
                comments=None, ndmin=2, max_rows=_CHUNK_ROWS,
            )
            if block.shape[1] != len(header):
                raise ValueError(
                    f"shot CSV rows must have {len(header)} columns, got {block.shape[1]}"
                )
            yield block
