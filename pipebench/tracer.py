"""Span tracer installed from outside the program.

The benchmark never edits ``src/``.  It records layer spans by replacing
public functions and methods of the ``repro`` modules with thin wrappers
(:func:`install`) that open a span around each call, and removes them
again afterwards.  Spans are kept in memory as plain tuples; a layer's
self time is its span's duration minus the part of it covered by child
spans *on the same thread* (:func:`ledger`).  A child running on another
thread (a pool worker) overlaps its parent in wall time but not in the
parent thread's time, so it is not subtracted.

Per thread, the traced wall time is split exactly into layer self times
plus ``unattributed`` (the time no layer span covered), which is how the
benchmark shows that its per-layer numbers account for the whole run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    thread: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans and counts; thread-safe, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: thread id -> wall seconds of its explicitly traced regions.
        self.regions: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def thread_id(self) -> int:
        """Run-unique id of the calling thread (OS idents get reused)."""
        tid = getattr(self._local, "tid", None)
        if tid is None:
            tid = self._local.tid = next(self._thread_ids)
        return tid

    def current(self) -> Optional[int]:
        """Id of the innermost open span of this thread (or its adopted parent)."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    def adopt(self, parent_id: Optional[int]) -> None:
        """Make ``parent_id`` (a span of another thread) the cause of this
        thread's next root spans."""
        self._local.adopted = parent_id

    def begin(self, name: str) -> tuple[int, Optional[int], float]:
        span_id = next(self._ids)
        parent = self.current()
        self._stack().append(span_id)
        return span_id, parent, self.clock()

    def end(self, name: str, token: tuple[int, Optional[int], float]) -> None:
        end = self.clock()
        span_id, parent, start = token
        self._stack().pop()
        record = Span(span_id, parent, self.thread_id(), name, start, end)
        with self._lock:
            self.spans.append(record)

    def finished(self) -> list[Span]:
        """The spans ended so far (threads may still be recording)."""
        with self._lock:
            return list(self.spans)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def region(self) -> "_Region":
        """Mark a traced interval of this thread; their sum is its wall time."""
        return _Region(self)


class _SpanContext:
    __slots__ = ("tracer", "name", "token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.token = self.tracer.begin(self.name)

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.name, self.token)


class _Region:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        self.start = self.tracer.clock()

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        tid = tracer.thread_id()
        tracer.regions[tid] = (tracer.regions.get(tid, 0.0)
                               + tracer.clock() - self.start)


class Ledger(NamedTuple):
    """Self and total time per layer, and per-thread closure of the
    accounting."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    #: thread ident -> (wall_s, attributed_s, unattributed_s)
    threads: dict[int, tuple[float, float, float]]

    @property
    def unattributed_s(self) -> float:
        return sum(entry[2] for entry in self.threads.values())


def ledger(spans: Sequence[Span],
           regions: Optional[dict[int, float]] = None) -> Ledger:
    """Per-layer self times and per-thread wall/unattributed split.

    A thread's wall time is the sum of its marked regions when it has any
    (the benchmark's own thread), else its busy time: the summed duration
    of its root spans (pool and server threads, whose time outside any
    layer call is idle waiting for work).
    """
    child_time: dict[int, float] = {}
    busy: dict[int, float] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is not None and parent.thread == span.thread:
            child_time[parent.span_id] = (child_time.get(parent.span_id, 0.0)
                                          + span.end - span.start)
        else:
            busy[span.thread] = (busy.get(span.thread, 0.0)
                                 + span.end - span.start)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attributed: dict[int, float] = {}
    for span in spans:
        duration = span.end - span.start
        own = duration - child_time.get(span.span_id, 0.0)
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        total_s[span.name] = total_s.get(span.name, 0.0) + duration
        attributed[span.thread] = attributed.get(span.thread, 0.0) + own
    threads: dict[int, tuple[float, float, float]] = {}
    regions = regions or {}
    for thread in set(busy) | set(regions):
        wall = regions[thread] if thread in regions else busy[thread]
        used = attributed.get(thread, 0.0)
        threads[thread] = (wall, used, wall - used)
    return Ledger(self_s, total_s, threads)


# --------------------------------------------------------------------------- #
# Installing probes
# --------------------------------------------------------------------------- #
class Probe(NamedTuple):
    """One wrapped callable: ``module:Qual.name`` recorded as layer ``layer``.

    ``on_return(tracer, args, kwargs, result)`` may add counts;
    ``on_call(tracer, args, kwargs)`` may return replaced ``(args, kwargs)``.
    """

    layer: str
    target: str
    on_return: Optional[Callable] = None
    on_call: Optional[Callable] = None


def _wrap_function(func: Callable, probe: Probe, tracer: Tracer) -> Callable:
    layer, on_return, on_call = probe.layer, probe.on_return, probe.on_call
    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            # Each resumption is a span: the consumer's time inside the
            # generator (its own work, or waiting on a pool) is this layer's.
            if on_call is not None:
                args, kwargs = on_call(tracer, args, kwargs)
            iterator = func(*args, **kwargs)
            while True:
                token = tracer.begin(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(layer, token)
                yield item
        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            args, kwargs = on_call(tracer, args, kwargs)
        token = tracer.begin(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(layer, token)
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result
    return wrapper


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, probes: Iterable[Probe],
            rebind_prefix: str = "repro") -> Callable[[], None]:
    """Wrap every probe's target; returns a function that undoes it all.

    Module-level functions are also replaced wherever another module of
    ``rebind_prefix`` bound them by name (``from x import f``).
    """
    undo: list[tuple[object, str, object]] = []
    for probe in probes:
        owner, attr = _resolve(probe.target)
        raw = owner.__dict__[attr] if attr in getattr(owner, "__dict__", {}) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap_function(raw.__func__, probe, tracer))
        else:
            wrapped = _wrap_function(raw, probe, tracer)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if (module is None or module is owner
                        or not name.startswith(rebind_prefix)):
                    continue
                if module.__dict__.get(attr) is raw:
                    undo.append((module, attr, raw))
                    setattr(module, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return uninstall
