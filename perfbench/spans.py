"""In-memory span tracer for the traced run.

A span is one timed call across a layer boundary: a name, a start and
an end (``perf_counter`` seconds), the span it was called from, and an
id shared by every span of one top-level call (a simulation, a replay
window, a service request).  Counts ride along on the span that
produced them.  Spans stay in memory until :meth:`Tracer.dump`.

Wrapping is done from outside the program: :meth:`Tracer.patch`
replaces a public function or method on its owner with a timing
wrapper and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence


class Span:
    __slots__ = ("name", "start", "end", "parent", "id", "index", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 span_id: int, index: int = 0) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.id = span_id
        self.index = index
        self.counts: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Turns a wrapped call's ``(args, kwargs, result, before)`` into
#: counts, where ``before`` is what the optional ``pre`` hook returned
#: from ``(args, kwargs)`` just before the call.
Counter = Callable[[tuple, dict, object, object], Mapping[str, float]]
Pre = Callable[[tuple, dict], object]


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None,
             pre: Pre | None = None):
        """*fn* wrapped so that every call records a span *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(
                name, 0.0, parent,
                parent.id if parent is not None else next(self._ids),
            )
            with self._lock:
                span.index = len(self.spans)
                self.spans.append(span)
            before = pre(args, kwargs) if pre is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = dict(counter(args, kwargs, result, before))
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str,
              counter: Counter | None = None, pre: Pre | None = None) -> None:
        """Replace ``owner.attr`` (a module function or a method defined
        on the class itself) with a traced wrapper."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, counter, pre))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        """Stream every span into one gzipped JSON document."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write('{"spans": [')
            for span in self.spans:
                row = {
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent.index if span.parent else None,
                    "id": span.id,
                }
                if span.counts:
                    row["counts"] = span.counts
                out.write(("," if span.index else "") + json.dumps(row))
            out.write("]}\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id(span)``): its duration minus
    the time its direct children cover."""
    spans = list(spans)
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] += span.duration
    return {id(s): s.duration - child[id(s)] for s in spans}


def by_name(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    A span nested in another of the same name (a recursive or
    ``super()`` call) adds its self time but not its duration again.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = out[span.name]
        row["calls"] += 1
        row["self_s"] += own[id(span)]
        outer = span.parent
        while outer is not None and outer.name != span.name:
            outer = outer.parent
        if outer is None:
            row["total_s"] += span.duration
    return dict(out)


def coverage(spans: Sequence[Span], root_name: str | None) -> float:
    """Share of the outermost *root_name* spans' inclusive time that the
    self times of the spans below them account for.

    The roots' own self time is the part no traced layer claims (for
    ``engine.run``, the event loop itself), so for properly nested
    spans this is ``1 - root self time / root time``."""
    own = self_times(spans)
    covered = total = 0.0
    for span in spans:
        root = None
        outer: Span | None = span
        while outer is not None:
            if outer.name == root_name:
                root = outer
            outer = outer.parent
        if root is None:
            continue
        if root is span:
            total += span.duration
        if span.name != root_name:
            covered += own[id(span)]
    return covered / total if total else 0.0
