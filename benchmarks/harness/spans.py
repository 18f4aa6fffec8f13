"""Span recording for the benchmark's traced runs.

A span is one timed call across a layer boundary: a name, a start, an
end, the span that caused it and the trace id that every span of one
operation shares.  Spans are kept in memory and written out when the run
ends.  The program is never edited: :func:`install` wraps the public
entry points listed in ``layers.BOUNDARIES`` and returns a function that
puts the originals back.

Times come from :func:`time.perf_counter`, which reads CLOCK_MONOTONIC
on Linux.  That clock is shared by every process on the host, so spans
recorded by a server child line up with the client's spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: HTTP header carrying ``<trace id> <parent span id>`` from a client
#: span to the server-side span it causes.
TRACE_HEADER = "X-Bench-Trace"


@dataclass
class Span:
    name: str
    span_id: str
    parent_id: "str | None"
    trace_id: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "start": self.start,
            "end": self.end,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        return cls(
            name=row["name"],
            span_id=row["span"],
            parent_id=row["parent"],
            trace_id=row["trace"],
            start=row["start"],
            end=row["end"],
        )


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Span ids carry the pid so spans merged from a child process
        # never collide with the parent's.
        self._prefix = f"{os.getpid()}."
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        *,
        parent_id: "str | None" = None,
        trace_id: "str | None" = None,
    ) -> Span:
        """Start a span under the thread's innermost open span, or under
        an explicit (possibly remote) parent."""
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
            trace_id = stack[-1].trace_id
        span_id = f"{self._prefix}{next(self._ids)}"
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            trace_id=trace_id or span_id,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # An abandoned generator may close after spans opened later, so
        # remove this span wherever it sits rather than popping the top.
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is span:
                del stack[position]
                break
        self.spans.append(span)


def dump_spans(spans: Iterable[Span], path: "str | os.PathLike[str]") -> None:
    """Write spans as JSON lines: name, span, parent, trace, start, end."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def load_spans(path: "str | os.PathLike[str]") -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_dict(json.loads(line)) for line in handle if line.strip()]


# -- self time ------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


# -- boundary wrappers ----------------------------------------------------


def _resolve(target: str) -> "tuple[object, str]":
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap_call(tracer: Tracer, original: Callable, name: str) -> Callable:
    @functools.wraps(original)
    def traced(*args: object, **kwargs: object) -> object:
        span = tracer.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(span)

    return traced


def _wrap_iter(tracer: Tracer, original: Callable, name: str) -> Callable:
    """The span runs from the first ``next`` until the iterator is
    exhausted or closed, and stays open in between, so work the consumer
    does per item nests under it."""

    @functools.wraps(original)
    def traced(*args: object, **kwargs: object) -> Iterator:
        inner = original(*args, **kwargs)

        def spanned() -> Iterator:
            span = tracer.open(name)
            try:
                yield from inner
            finally:
                tracer.close(span)

        return spanned()

    return traced


def _wrap_http(tracer: Tracer, original: Callable, name: str) -> Callable:
    """Server-side request span, parented to the client span named in
    the request's trace header."""

    @functools.wraps(original)
    def traced(handler: object, *args: object, **kwargs: object) -> object:
        header = handler.headers.get(TRACE_HEADER)  # type: ignore[attr-defined]
        trace_id = parent_id = None
        if header:
            trace_id, _, parent_id = header.partition(" ")
        span = tracer.open(name, parent_id=parent_id or None, trace_id=trace_id)
        try:
            return original(handler, *args, **kwargs)
        finally:
            tracer.close(span)

    return traced


WRAPPERS = {"call": _wrap_call, "iter": _wrap_iter, "http": _wrap_http}


def install(
    tracer: Tracer, boundaries: Iterable[tuple[str, str, str]]
) -> Callable[[], None]:
    """Wrap each ``(target, span name, kind)`` boundary; return the undo."""
    undo: list[tuple[object, str, object]] = []
    for target, name, kind in boundaries:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        setattr(owner, attr, WRAPPERS[kind](tracer, original, name))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
