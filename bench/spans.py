"""Span tracing installed from outside the program.

``Tracer.install`` replaces public functions of ``ouv_classifier`` with
timing wrappers, patching each name in the module (or class) where its
caller looks it up: ``model.forward`` for ``train``, ``harness.train`` for
the harness cells, and so on. Spans ``{name, start, end, parent}`` stay
in memory and are written out once, at the end of the run. A name that
no longer exists is recorded as absent instead of failing the run.

The benchmark is single-threaded, so a plain stack gives each span its
parent and nothing ever waits: per-layer figures are busy time and counts.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span_name, annotate)`` target.

        ``owner`` is a module or class; ``annotate(args, kwargs, result)``
        (or None) returns extra fields stored on the span.
        """
        for owner, attr, name, annotate in targets:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else \
                getattr(owner, attr, None)
            if raw is None:
                self.absent.append(name)
                continue
            self._restore.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, annotate))
            else:
                wrapped = self._wrap(raw, name, annotate)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, fn: Callable, name: str, annotate) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result
        return wrapper

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str | Path) -> None:
        selfs = self.self_times()
        payload = {"absent": self.absent, "spans": [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "self": st, **s.info}
            for s, st in zip(self.spans, selfs)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def mean_ms(spans: list[Span]) -> float | None:
    if not spans:
        return None
    return 1000.0 * statistics.fmean(s.end - s.start for s in spans)


def total_s(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans)
