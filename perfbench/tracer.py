"""Spans around calls into chainedbell's layers, recorded from outside.

A :class:`Tracer` patches every public function of the layer modules (and
the constructors of the two table types) with a wrapper that records a
span: calls, total time, self time (duration minus child spans), errors
that propagate out of the call and, in a memory pass, the tracemalloc peak
inside the span.  Functions that return generators are charged for the
time spent inside the generator's ``__next__``, not the caller that
drains it.  ``unpatch`` restores every original binding.

Self times of all spans of one job, plus the root ``cli`` span, add up to
the job's traced wall time by construction; ``self_sum`` lets the caller
check that.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("quantum", "distributions", "chained", "simplex", "hvm", "experiment")

# Constructors timed as spans of their own: building and validating a table
# or a model is a cost a later change may move.
CONSTRUCTORS = {
    "distributions": ("ConditionalDistribution",),
    "hvm": ("HiddenVariableModel",),
}

# Spans whose tracemalloc peak is recorded in the memory pass.
PEAK_SPANS = frozenset({
    "distributions.assert_nonsignaling",
    "hvm.model_from_json_file",
    "hvm.locality_bound_check",
    "experiment.simulate_shots",
})


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _table_size(result) -> int:
    return int(result.table.size)


# span name -> (counter name, argument name or None for the result, measure)
COUNTERS = {
    "quantum.qm_chained_distribution": ("quantum.table_entries", None, _table_size),
    "quantum.mix_with_noise": ("quantum.table_entries", None, _table_size),
    "distributions.read_json_file": ("distributions.json_bytes", "path", _file_bytes),
    "distributions.write_json_file": ("distributions.json_bytes", "path", _file_bytes),
    "chained.classical_min_chain_value": ("chained.strategies_scanned", "n", lambda n: 4 ** n),
    "simplex.solve_equality_lp": (
        "simplex.tableau_cells", "A", lambda a: len(a) * len(a[0]),
    ),
    "hvm.locality_measure": ("hvm.hidden_cells", "p_xu", _table_size),
    "experiment.simulate_shots": ("experiment.shots", "shots", int),
    "experiment.write_shots_csv": ("experiment.csv_bytes", "path", _file_bytes),
    "experiment.read_shots_csv": ("experiment.csv_bytes", "path", _file_bytes),
}

_MIB = float(1 << 20)


def _span_name(module: str, name: str, fn):
    """Span name, or a function of the call's bound arguments for a
    function whose modes are timed apart."""
    base = f"{module}.{name}"
    if base == "hvm.induced_distribution":
        sig = inspect.signature(fn)

        def by_mode(args, kwargs):
            return f"{base}.{sig.bind(*args, **kwargs).arguments.get('mode', 'exact')}"

        return by_mode
    return base


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "errors", "peak_mb")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.peak_mb = 0.0


class Tracer:
    """Span recorder for one pass over a job list.

    With ``memory=True`` the spans in :data:`PEAK_SPANS` also record the
    tracemalloc peak above the memory traced at span entry (for a
    generator, at entry to a sampled ``__next__``); tracing is on only while
    such a span is open, and the timings of a memory pass are not meant to
    be read.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self.counter_misses = 0
        self.self_sum = 0.0
        self._stack: list[list[float]] = []
        self._mem_stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _end(self, name: str, frame: list[float], dur: float) -> None:
        st = self.stats[name]
        st.total_s += dur
        own = dur - frame[0]
        st.self_s += own
        self.self_sum += own
        if self._stack:
            self._stack[-1][0] += dur

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside the span ``name``."""
        kwargs = kwargs or {}
        mem = self.memory and name in PEAK_SPANS
        if mem:
            self._mem_enter()
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.stats[name].errors += 1
            raise
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.stats[name].calls += 1
            self._end(name, frame, dur)
            if mem:
                self._mem_exit(name)
        self._count(name, fn, args, kwargs, result)
        if inspect.isgenerator(result):
            return self._resumes(name, result)
        return result

    def _resumes(self, name: str, gen):
        """Yield from ``gen``, timing each ``__next__`` as part of ``name``.

        Memory is sampled on resumes 0, 1, 2, 4, 8, ...: tracing every
        resume of a generator that yields one record at a time would make
        a memory pass many times slower than the job.
        """
        mem = self.memory and name in PEAK_SPANS
        stack, clock, st = self._stack, time.perf_counter, self.stats[name]
        resume = 0
        try:
            while True:
                sample = mem and resume & (resume - 1) == 0
                resume += 1
                if sample:
                    self._mem_enter()
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    st.errors += 1
                    raise
                finally:
                    # _end, inlined: this runs once per record.
                    dur = clock() - t0
                    stack.pop()
                    own = dur - frame[0]
                    st.total_s += dur
                    st.self_s += own
                    self.self_sum += own
                    if stack:
                        stack[-1][0] += dur
                    if sample:
                        self._mem_exit(name)
                yield item
        finally:
            gen.close()

    def _mem_enter(self) -> None:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([cur, cur, started])

    def _mem_exit(self, name: str) -> None:
        base, peak, started = self._mem_stack.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        st = self.stats[name]
        st.peak_mb = max(st.peak_mb, (peak - base) / _MIB)
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        if started:
            tracemalloc.stop()

    def _count(self, name: str, fn, args, kwargs, result) -> None:
        spec = COUNTERS.get(name)
        if spec is None:
            return
        counter, arg, measure = spec
        try:
            if arg is None:
                value = result
            else:
                value = inspect.signature(fn).bind(*args, **kwargs).arguments[arg]
            self.counters[counter] += measure(value)
        except (TypeError, KeyError, AttributeError, OSError):
            self.counter_misses += 1

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if callable(name):
            def wrapper(*args, **kwargs):
                return tracer.call(name(args, kwargs), fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def patch(self) -> None:
        """Wrap each layer's public functions wherever chainedbell binds them
        (``from .x import y`` copies included) and the table constructors."""
        pkg = [m for k, m in sys.modules.items()
               if k == "chainedbell" or k.startswith("chainedbell.")]
        for layer in LAYERS:
            mod = sys.modules[f"chainedbell.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(_span_name(layer, attr, fn), fn)
                for other in pkg:
                    if vars(other).get(attr) is fn:
                        self._patched.append((other, attr, fn))
                        setattr(other, attr, wrapper)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__dict__["__init__"]
                self._patched.append((cls, "__init__", init))
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", init)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
