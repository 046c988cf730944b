"""Dense conditional probability tables and statistical-distance tools.

The central value type is :class:`ConditionalDistribution`, a table
P(x_1..x_n | a_1..a_n) over finite per-party alphabets.  Values are
immutable after construction and every operation is a pure function, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "NORM_TOL",
    "IDENTITY_TOL",
    "MAX_PARTIES",
    "ConditionalDistribution",
    "NonSignalingReport",
    "assert_nonsignaling",
    "read_json_file",
    "write_json_file",
]

# Tolerance ledger: normalization and marginal matching live at 1e-9,
# algebraic identities between two ways of computing the same number at
# 1e-12.  Double precision over tables of at most ~1e4 entries.
NORM_TOL = 1e-9
IDENTITY_TOL = 1e-12

# Only renormalize conditional slices that stray beyond this, each on its
# own.  Reloading an exported table then leaves every float untouched, which
# is what makes JSON round-trips bit-exact.
_RENORM_TRIGGER = 1e-12

# The non-signaling check enumerates all 2^n - 1 non-empty output subsets;
# bounding the party count keeps that exhaustive check exact and cheap.
MAX_PARTIES = 4

# Scratch budget, in float64 elements, for one block of pairwise slice
# differences in :func:`_max_pairwise_tv` (2 MiB).
_PAIRWISE_BLOCK_ELEMS = 1 << 18
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


class ConditionalDistribution:
    """A table P(x_1 .. x_n | a_1 .. a_n) over finite per-party alphabets.

    ``table`` is indexed ``[a_1, ..., a_n, x_1, ..., x_n]`` in row-major
    order, and the sizes are read from its shape: the party count n is half
    its rank, party i's input is axis i and its output axis n + i (counting
    from 0).  So ``input_sizes`` is the first half of ``table.shape`` (size
    1 means "no input") and ``output_sizes`` the second.  Every conditional
    slice sums to 1 within ``NORM_TOL``.

    Construction checks, clamps and normalises the table by the rule of
    :func:`_normalised`, which model kernels follow too.  A C-ordered float
    table that needs no change is kept, not copied, and made read-only.
    """

    __slots__ = ("input_sizes", "output_sizes", "table")

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        n = table.ndim // 2
        if not n or table.ndim % 2:
            raise ValueError("need one input and one output alphabet per party")
        if not table.size:
            raise ValueError("alphabet sizes must be >= 1")
        table = _normalised(table, n)
        table.setflags(write=False)
        object.__setattr__(self, "input_sizes", table.shape[:n])
        object.__setattr__(self, "output_sizes", table.shape[n:])
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_parties(self) -> int:
        return len(self.input_sizes)

    def _size_fields(self) -> dict:
        return {
            "parties": self.n_parties,
            "outputs": list(self.output_sizes),
            "inputs": list(self.input_sizes),
        }

    def to_dict(self) -> dict:
        """JSON-ready form: sizes plus the flat row-major table."""
        return {**self._size_fields(), "table": self.table.ravel().tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ConditionalDistribution":
        if not isinstance(data, dict):
            raise ValueError("distribution document must be a JSON object")
        _check_numeric_fields(data, ("parties", "outputs", "inputs", "table"))
        try:
            n = _as_int(data["parties"], "parties")
            outputs = [_as_int(s, "outputs") for s in data["outputs"]]
            inputs = [_as_int(s, "inputs") for s in data["inputs"]]
            flat = np.asarray(data["table"], dtype=float)
        except (KeyError, TypeError, OverflowError) as exc:
            # OverflowError: a size of 1e400 parses as infinity.
            raise ValueError(f"malformed distribution document: {exc}") from exc
        if len(outputs) != n or len(inputs) != n:
            raise ValueError("party count does not match the size lists")
        shape = tuple(inputs) + tuple(outputs)
        if flat.size != math.prod(shape):  # np.prod wraps past int64
            raise ValueError("flat table length does not match the sizes")
        return cls(flat.reshape(shape))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConditionalDistribution)
                and np.array_equal(self.table, other.table))

    __hash__ = None


def _slice_sums(flat: np.ndarray) -> np.ndarray:
    """``flat.sum(axis=1)`` of a C-ordered (k, run) array, bit for bit, and
    so a table's ``sum(axis=out_axes)`` over its trailing run of outputs.

    NumPy reduces each row with its pairwise sum, which below 8 terms adds
    them left to right; whole-column adds repeat that without NumPy's
    per-row loop, which costs more than the adds on short rows.  NumPy's
    0.0 start, added first here, only turns a sum of -0.0 terms into 0.0.
    """
    run = flat.shape[1]
    if run >= 8:
        return np.add.reduce(flat, 1)
    sums = flat[:, 0] + 0.0
    for q in range(1, run):
        sums += flat[:, q]
    return sums


def _normalised(table: np.ndarray, n_out: int) -> np.ndarray:
    """The one check-clamp-normalise rule for tables, model kernels,
    per-setting rows and weights, applied to the slices over the last
    ``n_out`` axes of a float array, which is never written.

    Entries must be finite; negative dust down to ``-NORM_TOL`` (as LP
    solvers and float subtraction leave it) is clamped to 0.  A slice off 1
    by more than ``NORM_TOL`` is rejected, and one off by more than
    ``_RENORM_TRIGGER`` is divided by its sum; every other slice keeps its
    bits.  The result is C-ordered: ``table`` itself when nothing changed."""
    # NaN propagates through min and max, and an infinity ends up in one;
    # the ufuncs' own reduce skips ndarray.min's Python wrappers.
    lo, hi = float(_MIN(table, None)), float(_MAX(table, None))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("table entries must be finite")
    if lo < -NORM_TOL:
        raise ValueError(f"negative entry {lo} below -{NORM_TOL}")
    if lo < 0.0:
        table = np.clip(table, 0.0, None)
    table = np.ascontiguousarray(table)
    flat = table.reshape(-1, math.prod(table.shape[table.ndim - n_out:]))
    sums = _slice_sums(flat)
    # The largest |sum - 1| bit for bit (rounding is monotone), unallocated.
    worst = max(float(_MAX(sums)) - 1.0, 1.0 - float(_MIN(sums)))
    if worst > NORM_TOL:
        raise ValueError(f"conditional slices must sum to 1 (off by {worst})")
    if worst > _RENORM_TRIGGER:
        far = np.abs(sums - 1.0) > _RENORM_TRIGGER
        flat = flat.copy()
        flat[far] /= sums[far, None]
        table = flat.reshape(table.shape)
    return table


def _check_numeric_fields(data: dict, fields: Sequence[str]) -> None:
    """Reject a JSON string or boolean in the numeric ``fields`` that a
    document has, walked in that order and naming the first bad one: ``int``,
    ``float`` and NumPy would read ``"2"``, ``" 4 "`` and ``true`` as numbers.
    A ragged field, which NumPy rejects without naming it, is named too:
    the lists at each depth must agree in length, and hold only lists or
    no list at all."""
    for key in filter(data.__contains__, fields):
        pending = [(data[key], 0)]
        shape = {}  # depth -> (length, holds lists) of every list there
        while pending:
            value, depth = pending.pop()
            if type(value) is list:
                # One set of entry types per list: a table row is one pass.
                kinds = set(map(type, value))
                if str in kinds or bool in kinds:
                    value = next(v for v in value if type(v) in (str, bool))
                else:
                    nested = list in kinds
                    sig = (len(value), nested)
                    if nested and len(kinds) > 1 or shape.setdefault(depth, sig) != sig:
                        raise ValueError(f"{key} must be a rectangular array of numbers")
                    if nested:
                        pending += zip(value, itertools.repeat(depth + 1))
            if type(value) in (str, bool):
                raise ValueError(f"{key} must be numeric, got {value!r}")


def _as_int(value, key: str) -> int:
    """``int(value)`` of the integer field ``key``, never truncated: a fraction,
    NaN, null, a list or an object raises ValueError, infinity OverflowError."""
    if not isinstance(value, numbers.Real) or value % 1 and not math.isinf(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class NonSignalingReport:
    """Worst marginal dependence on the other parties' inputs."""

    max_violation: float
    passed: bool
    tol: float


def _pair_l1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_o |x - y|`` over the last axis of two broadcastable arrays:
    NumPy's reduction of the C-ordered difference, the order in which the
    all-pairs broadcast adds it."""
    d = np.subtract(x, y, order="C")
    np.abs(d, out=d)
    return d.sum(axis=-1)


def _l1_upper_bounds(arr: np.ndarray) -> np.ndarray:
    """For each slice s of a (c, s, o) array, a value that no context
    pair's ``sum_o |arr[c, s, o] - arr[c', s, o]|`` exceeds, as NumPy
    computes that sum: the same sum between the slice's entrywise max and
    min rows.

    Rounding is monotone, so each ``|max - min|`` rounds to at least every
    pair's ``|difference|`` at that outcome, and each float add in the same
    order rounds to at least the pair's partial sum."""
    return _pair_l1(arr.max(axis=0), arr.min(axis=0))


def _all_pairs_max_l1(arr: np.ndarray, keep: np.ndarray) -> float:
    """Largest ``sum_o |arr[c, s, o] - arr[c', s, o]|`` over context pairs
    c, c' and over the slices s listed in ``keep``, block by block.

    Scratch memory is one copy of the kept slices plus a block of
    ``_PAIRWISE_BLOCK_ELEMS`` elements (or of one kept (s, o) slice, if that
    is larger); it does not grow with c^2."""
    c, _, o = arr.shape
    if o == 2:
        # Two contiguous column planes; adding the two |differences| is one
        # float add, which rounds exactly like the length-2 ``sum(axis=-1)``.
        x0 = arr[:, keep, 0]
        x1 = arr[:, keep, 1]

        def block_max(rows: slice, cols: slice) -> float:
            d = x0[rows, None] - x0[None, cols]
            np.abs(d, out=d)
            d1 = x1[rows, None] - x1[None, cols]
            np.abs(d1, out=d1)
            d += d1
            return float(d.max())

    else:
        # Keep NumPy's own reduction: for o >= 8 it sums pairwise, so
        # per-column accumulation would round differently.
        kept = arr[:, keep]

        def block_max(rows: slice, cols: slice) -> float:
            return float(_pair_l1(kept[rows, None], kept[None, cols]).max())

    per_block = max(1, _PAIRWISE_BLOCK_ELEMS // (len(keep) * o))  # pairs per block
    worst = 0.0
    i = 0
    while i < c - 1:
        # Rows i .. i+rows-1 against every later context, in column chunks
        # of ``width``.  Pairs j <= row inside a block repeat a pair or are
        # the zero diagonal (|x - y| == |y - x| exactly), so they cannot
        # raise the maximum.
        rows = max(1, per_block // (c - i - 1))
        width = max(1, per_block // rows)
        for j in range(i + 1, c, width):
            worst = max(worst, block_max(slice(i, i + rows), slice(j, j + width)))
        i += rows
    return worst


def _max_pairwise_tv(arr: np.ndarray) -> float:
    """Largest statistical distance between two context slices.

    ``arr`` has shape (c, s, o): c contexts, s fixed input tuples, o
    outcomes.  Returns the max over context pairs c, c' and over s of
    0.5 * sum_o |arr[c, s, o] - arr[c', s, o]|.

    Most slices are settled without visiting any pair.  Each slice's upper
    bound U_s (:func:`_l1_upper_bounds`, the sum between its entrywise max
    and min rows) is at least every pair's sum in that slice, and its lower
    bound L_s is the sum of one real pair: the contexts with the largest
    and the smallest first outcome.  Let best = max_s L_s, a value some
    pair attains.  A slice with U_s <= best holds no pair above best, so
    the blocked all-pairs sweep (:func:`_all_pairs_max_l1`) runs only on
    the slices with U_s > best, and the larger of its result and best is
    the maximum.  For o = 1 the two bounds coincide and no slice is swept;
    on the quantum tables no slice is swept either.

    The work runs on a C-ordered copy of ``arr`` (made only if ``arr`` is
    not one already), where the reductions over contexts are fast.  Both
    bounds and the sweep add each pair's terms as NumPy's reduction does,
    so the result is bit-identical to the all-pairs broadcast
    ``0.5 * np.abs(arr[:, None] - arr[None, :]).sum(axis=-1)`` evaluated on
    that copy, and so on ``arr`` itself whenever its o axis varies fastest
    in memory, as it does for every caller here.  (NumPy sums o >= 8 terms
    in a different order along a slow axis.)  Scratch memory is that copy,
    a few (s, o) rows and what the sweep needs; it does not grow with c^2.
    """
    arr = np.ascontiguousarray(arr)
    c, s, o = arr.shape
    upper = _l1_upper_bounds(arr)
    first = arr[:, :, 0]
    each = np.arange(s)
    lower = _pair_l1(arr[first.argmax(axis=0), each], arr[first.argmin(axis=0), each])
    best = float(lower.max())
    keep = np.flatnonzero(upper > best)
    if len(keep):
        best = max(best, _all_pairs_max_l1(arr, keep))
    return 0.5 * best


def _output_marginal(table: np.ndarray, drop_axes: tuple[int, ...]) -> np.ndarray:
    """``table.sum(axis=drop_axes)`` for a C-ordered table, bit for bit, by
    adding whole output planes.

    NumPy's reduction starts each result at 0.0 and walks the dropped
    indices in C order.  Axes of size 1 drop out, and the dropped axes that
    end the table form one contiguous run, which it reduces per result with
    its pairwise sum; below 8 terms that sum adds them left to right,
    starting from -0.0.  Every other dropped index adds its run's sum to
    the result.  Adding the same planes in the same order gives the same
    bits.  The 0.0 start is added last instead: either way it only turns a
    sum of -0.0 terms into 0.0.  The result may be a strided view.
    """
    axes = [(size, i in drop_axes) for i, size in enumerate(table.shape) if size != 1]
    sizes = [size for size, _ in axes]
    k = len(axes)
    while k and axes[k - 1][1]:
        k -= 1
    run = math.prod(sizes[k:])
    # A leading axis of size 1 keeps every plane an array, not a scalar.
    t = table.reshape([1] + sizes[:k] + [run])
    outer = [j for j in range(k) if axes[j][1]]
    total, fresh = None, False
    for idx in itertools.product(*(range(sizes[j]) for j in outer)):
        at = [slice(None)] * (k + 2)
        for j, v in zip(outer, idx):
            at[j + 1] = v
        block = t[tuple(at)]
        if run == 1:
            part = block[..., 0]
        elif run < 8:
            part = block[..., 0] + block[..., 1]
            for q in range(2, run):
                part += block[..., q]
        else:
            part = block.sum(axis=-1)
        if total is None:
            total, fresh = part, run > 1
        elif fresh:
            total += part
        else:
            # Strided views whose innermost axes are the few kept outputs:
            # moved to the front of a C-ordered sum (the same elementwise sums).
            inner = k - 1 - outer[-1]
            back, front = list(range(-inner, 0)), list(range(inner))
            total = np.moveaxis(np.add(np.moveaxis(total, back, front),
                                       np.moveaxis(part, back, front), order="C"), front, back)
            fresh = True
    total = np.add(total, 0.0, out=total if fresh else None)
    return total.reshape([s for i, s in enumerate(table.shape) if i not in drop_axes])


def assert_nonsignaling(
    p: ConditionalDistribution, tol: float = NORM_TOL
) -> NonSignalingReport:
    """Exhaustive marginal-independence check over all party subsets.

    For every non-empty subset S and every fixed input tuple for S, the
    output marginal on S must not depend on the remaining parties' inputs;
    the report carries the largest statistical distance found across all
    subsets and input pairs.  A subset whose parties all have one output
    is skipped: its marginal is each slice's sum, which the table rule
    (:func:`_normalised`) already holds to 1.
    """
    n = p.n_parties
    if n > MAX_PARTIES:
        raise ValueError(f"non-signaling check supports at most {MAX_PARTIES} parties")
    worst = 0.0
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            comp = tuple(i for i in range(n) if i not in subset)
            if (not comp or all(p.input_sizes[i] == 1 for i in comp)
                    or all(p.output_sizes[i] == 1 for i in subset)):
                continue
            marg = _output_marginal(p.table, tuple(n + i for i in comp))
            # Remaining axes: all n inputs, then the kept outputs in
            # ascending party order.
            perm = comp + subset + tuple(range(n, n + len(subset)))
            arr = marg.transpose(perm)
            c_size = math.prod([p.input_sizes[i] for i in comp])
            s_size = math.prod([p.input_sizes[i] for i in subset])
            o_size = math.prod([p.output_sizes[i] for i in subset])
            arr = arr.reshape(c_size, s_size, o_size)
            worst = max(worst, _max_pairwise_tv(arr))
    return NonSignalingReport(worst, worst <= tol, tol)


def _json_float_list(flat: np.ndarray, sep: str = ", ") -> str:
    """``json.dumps(flat.tolist())`` for a 1-d float64 array, without the
    brackets and joined by ``sep``, formatting each distinct value once.

    Values are keyed by their bits, so ``0.0`` and ``-0.0`` keep their own
    text.  Table entries are finite by construction (the table constructor
    rejects NaN and infinities), so json's ``NaN``/``Infinity`` spellings
    never arise and need no branch here.
    """
    keys, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = np.fromiter(map(repr, keys.view(np.float64).tolist()), object, len(keys))
    return sep.join(text[inverse].tolist())


def write_json_file(p: ConditionalDistribution, path: str | Path) -> None:
    """Write ``json.dumps(p.to_dict()) + "\\n"``, byte for byte.

    A chained table holds few distinct values (an N=200 quantum table has
    1 607 among 160 000 entries), so the table is formatted by
    :func:`_json_float_list` and spliced after the size fields, in the
    layout that :func:`read_json_file` reads fast.
    """
    head = json.dumps(p._size_fields())[:-1]  # drop the closing brace
    table = _json_float_list(p.table.ravel())
    Path(path).write_text(f'{head}, "table": [{table}]}}\n')


def _load_json(path: str | Path):
    """Parse a JSON file.  A document nested too deeply for the parser is a
    malformed input (ValueError), not a crash.  A string goes through
    ``Path``, so that an error names the path as ``Path`` spells it."""
    try:
        with open(path if isinstance(path, Path) else Path(path)) as fh:
            return json.loads(fh.read())
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON document nested too deeply") from exc


def _written_layout(data: bytes) -> dict:
    """The document in ``data`` if its last field is the table as the writer
    writes it (``, "table": [``, ``", "``-separated tokens, ``]}\\n``) and
    the text before it is ASCII; ValueError otherwise.  Each 64 KiB chunk's
    new distinct tokens are parsed by one ``json.loads``, which must find
    one float per token, so the document is what ``json.loads`` reads.  A
    chunk of mostly new tokens gives up: all-distinct tables cost one chunk.
    """
    key = b', "table": ['
    start = data.find(key)
    if start < 0 or not data.endswith(b"]}\n") or not data[:start].isascii():
        raise ValueError("not the written layout")
    doc = json.loads(data[:start].decode() + "}")
    values = {}  # token -> value

    def chunks(pos, end):
        # Each chunk's values, once its new distinct tokens are parsed.
        while pos <= end:
            cut = data.find(b", ", min(pos + (1 << 16), end), end)
            cut = end if cut < 0 else cut
            tokens = data[pos:cut].split(b", ")
            new = list(set(tokens).difference(values))
            if 2 * len(new) > len(tokens):
                raise ValueError("mostly distinct tokens")
            parsed = json.loads("[" + b", ".join(new).decode() + "]")
            if len(parsed) != len(new) or not set(map(type, parsed)) <= {float}:
                raise ValueError("not one float per token")
            values.update(zip(new, parsed))
            yield map(values.__getitem__, tokens)
            pos = cut + 2

    chunked = itertools.chain.from_iterable(chunks(start + len(key), len(data) - 3))
    return {**doc, "table": np.fromiter(chunked, float)}


def read_json_file(path: str | Path) -> ConditionalDistribution:
    """Read a distribution document.  A file in the layout that
    :func:`write_json_file` writes parses each distinct table value once;
    any other JSON document is read again and parsed whole by
    ``json.loads``.  Both routes give the same bits and the same errors."""
    try:
        doc = _written_layout(Path(path).read_bytes())
    except (ValueError, RecursionError):
        doc = None  # parsed below, once the bytes and the error are gone
    return ConditionalDistribution.from_dict(_load_json(path) if doc is None else doc)
