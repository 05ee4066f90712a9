"""In-memory spans around the benchmark's calls into linefree.

A span records one call the benchmark makes into a public function of a
library module: its name (``<module>.<qualified name>``), start and end
times, the span that was open when it started, and a few attributes the
benchmark attaches (sizes, counts, verdicts).  Spans stay in memory and
are written out once, when the run ends.  Nothing inside the library is
instrumented: each layer is measured from outside, at the boundary the
benchmark crosses.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None, attrs: dict):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans from one thread; a disabled tracer records none."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans) + 1, name, parent, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter() - self._origin
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self._origin
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict(), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    the covered time is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    return {sp.id: sp.duration - covered[sp.id] for sp in spans}


def span_name(fn) -> str:
    """``<module>.<qualified name>`` with the package prefix dropped."""
    module = fn.__module__.removeprefix("linefree.")
    return f"{module}.{fn.__qualname__}"


class Client:
    """The benchmark's single closed-loop client.

    ``call`` invokes a library function inside a span named after it, so
    every call the benchmark makes is attributed to the module that
    defines the function.  ``note`` attaches attributes to the most recent
    call's span; both cost next to nothing when tracing is off.
    ``cached_spaces`` maps (p, n) to whether set-up found that the library
    keeps that space's line tables.
    """

    def __init__(self, lib, tracer: Tracer, cached_spaces: dict | None = None):
        self.lib = lib
        self.tracer = tracer
        self.cached_spaces = cached_spaces or {}
        self._last: Span | None = None

    def call(self, fn, *args, **kwargs):
        with self.tracer.span(span_name(fn)) as sp:
            self._last = sp
            return fn(*args, **kwargs)

    def note(self, **attrs) -> None:
        if self._last is not None:
            self._last.attrs.update(attrs)
